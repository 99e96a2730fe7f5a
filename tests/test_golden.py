"""Golden outputs: exact bytes of reference CLI runs and library results.

The first digests were recorded before elimination was made
row-incremental, the lab, rank-one ext and coboundary-witness pins before
the lab scripts got one entry point, and the rank-4 `verify` pins before
the bracket check's two products were written as two loops; any change to
the arithmetic that moves a single byte of these outputs fails here.
"""
import hashlib
import random
from fractions import Fraction as F

import pytest

from weightcat.cli import EXIT_OK, main
from weightcat.degonemod import build_M, build_N
from weightcat.extcoh import cocycle_space, is_coboundary
from weightcat.inducemod import induce, restrict_family


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN_RUNS = {
    "classify A4 --theta 1,4":
        "41b4025a4c3a4c3e287536f07794d9e77f764391c7c96ce26124b160b929c43a",
    "verify --module N --a -1,1/2,1/3,0 --B 3":
        "7eaf4791804f707e7ff710224a23bf4b6d9f5152de75b7969522e5aeac1771d7",
    "verify --module M --a -1,-1,1/4 --B 2":
        "7424425e2c06f79dde2ea7bbb5ef2cbedddb4c4f682989de7c7993102c2ea7ad",
    "ext --module N --a -1,1/2,1/3,0":
        "576fb071ec3379439ffbf5eef1f982f00f3d542e5c44193f286a15ce4facfcb0",
    "ext --module M --a -1,-1,1/4":
        "bea86ee93543261811852dcfbfd76b25f727cbd91036d4f3f363f03406df873c",
    "ext --module N --a 1/2,1/3":
        "aa6e6adf0687a785280589ae8d77629dec15b4e7470894dd8bab2ce59f02eb1d",
    "ext --module N --a -1,1/2,1/3,0 --b -1,1/5,1/7,0":
        "81ccb0f2398bc117a5c77987055bee78b877f63118a14a3022330ddf7c068d49",
    "lab appendix-a3 --a 1/2,1/3 --c 0":
        "34ec065b959696855d7c5baac89f10fda681f85f0574b629c5025f5c4e929a4b",
    "lab lemA12 --a 1/2,1/3":
        "c989cfcff6ff1be4e9dacd4b369997912c7bb77080c03c6249ff15cc4baa096c",
    "lab CC --a -1,1/4,1/5":
        "47dec0b4916df366335d336f538fe076fa972a9445e8693b882b0f40b780bdbb",
    "lab A1N --a -1,1/2,1/3,0":
        "6f601020f56146584d03650cf36276d0d63390c74ae38c18ee77d1e8fd8e9796",
    "lab AkAn --a -1,1/2,1/3,1/5,0":
        "4ec8e9f7aa974b3f6c0542669725b39405bbd0bd12d930796d196247fdca8a42",
    "lab AC1 --a 1/3,-11/6":
        "45ce352c853add5af7d9553c47808e58c267faaf1be98385c35541de00e6f82b",
    "lab lemA12 --a 1/2,1/3 --c=-1-A --B 2 --D 5":
        "faa12a232052aad1bef139311755b919d4d19877d2bc3f405983c888889cdd54",
    "lab appendix-a3 --a 2/5,-1/3 --c=-1-A":
        "c3e4c3e231c0cdc972cef387d7229777aff80a06d2e75b1f47d4a30af8aa9eb1",
    "ext --module N --a 2/5,-3/7 --b 7/5,-10/7 --B 4":
        "b8ef796f3f59143f0b56dd82858cee1eb2745e9768bc6133764ca7e5aa744b7a",
    "ext --module M --a -1,-1,1/4 --B 4":
        "934154f3fecce3973430178c80be01210f9bfd9823cf2d16de9487f76650bfab",
    "ext --module N --a -1,1/2,1/3,0 --B 4":
        "abdeef807bd5f1ea2c8ae0df4224bd2dfdcc5ebdbaa80ef88a7d13a1a0926986",
    "ext --module M --a -1,-1,1/4 --B 5":
        "a9d49c668089dada331eeaf51bfa514ac84e5e2662a3292e537d2f3783896c3d",
    "verify --module M --a -1,-1,-1,2/5 --B 2":
        "9965f9a66ae1bfe7ad121715d00eac301ecc1a42b4b4cd8de28288532ea29971",
    "verify --module N --a -1,-1,1/5,2/5,0 --B 2":
        "adfac591f9660fba7f3387d9daf83feb824f54c7cd337e78ac4e398addca66cf",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_RUNS))
def test_cli_output_is_golden(capsys, argv):
    assert main(argv.split()) == EXIT_OK
    assert sha256(capsys.readouterr().out) == GOLDEN_RUNS[argv]


def test_c9_cocycle_basis_is_golden():
    m = build_M(["1/4", "1/3"])
    basis = cocycle_space(m, m, 2).basis
    assert (len(basis), len(basis[0])) == (36, 104)
    assert sha256(repr(basis)) == "f30b520e1cc95092a0122477c758fa6e9d7b3950882fceb36e94ba1353206a66"


def test_kernel_data_is_golden():
    V = induce(restrict_family(build_N(["-1", "1/2", "1/3", "0"])), 3)
    rows, pivots, basis = V.kernel_data((F(-1, 2), F(-17, 6), F(-2, 3)))
    assert (len(basis), pivots) == (8, [0, 1, 2, 3, 4, 5, 6])
    assert sha256(repr((rows, pivots, basis))) == \
        "cab15443e19a1d951fa1865f6c3ca8b96ed93cdac51b731832ff28070df4a0e4"


def test_coboundary_witness_is_golden():
    space = cocycle_space(build_M(["2/5", "-3/5"]), build_M(["7/5", "2/5"]), 2)
    witness = is_coboundary(space.random_cocycle(random.Random(0)), 2)
    assert witness is not None and len(witness) == 36
    assert sha256(repr(witness)) == "f8f07c6f6eacd9d125310a4d0695e651fbf9dff78c8b1ddc34e02ad2929b13f1"
