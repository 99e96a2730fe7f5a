"""weightcat: exact computations with weight modules over simple Lie algebras.

The package builds root systems with concrete Weyl-algebra realizations for
types A and C, the lattice-indexed degree-one weight modules with their
bracket and membership certificates, truncated parabolically induced modules
with exact quotient projection, a classification oracle for the categories
attached to subsets of simple roots, and cocycle spaces, coboundary witnesses
and normal-form Ext systems that certify extension vanishing on finite
windows.  All arithmetic is exact over the rationals.
"""

from .categorio import MembershipReport, Verdict, check_membership, classify
from .degonemod import DegreeOneModule, FamilyDescriptor, build_M, build_N
from .extcoh import (Cocycle, ConstraintSystem, coboundary_quotient_dim, cocycle_space, ext_solve,
                     is_coboundary, make_sl2_cocycle)
from .inducemod import (LeviModule, TruncatedVerma, central_scalars, induce, levi_module_product,
                        probe_restriction_failure, restrict_family, u0_compare)
from .paperlab import LEMMAS, LemmaReport, run_lemma
from .rootsys import (CartanType, RootSubset, RootSystem, build_root_system,
                      classify_subset, lattice_disjoint, levi_decomposition)
from .weylmod import WeylParams, check_weyl_relations, weyl_act

__version__ = "0.1.0"
