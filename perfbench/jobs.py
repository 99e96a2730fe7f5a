"""Job slots, seeded plans and the known-answer gate for the benchmark.

A job is one thing a user of weightcat runs: a ``weightcat.cli.main(argv)``
call with stdout captured, or one library call.  Every job builds its own
root system and modules, so it pays its own object caches as a CLI run does.

Each workload is a list of *slots*.  A slot is one job shape (a family
shape, a window, a depth) and a number of occurrences per plan repetition.
Every occurrence draws its parameters from the run seed, so a seed that was
not used while tuning draws inputs of its own (slots with one parameter
have few values, and repeat some), while the mix of job classes, and so the
cost of a run, stays the same for every seed.

Library calls go through module attributes at call time (``w.weylmod.x``),
so the wrappers installed by ``tracing`` see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("certify", "ext", "lab")
DIGEST_LEN = 16


@dataclass(frozen=True)
class Job:
    cls: str                      # job class, e.g. "verify-B3"
    key: str                      # exact input; the digest table is keyed on it
    kind: str                     # "cli" or the name of a library job in LIBRARY_JOBS
    args: tuple                   # argv for "cli", parameters otherwise
    expect: Dict = field(default_factory=dict, hash=False, compare=False)
    slot: str = ""                # name of the slot the job was drawn for


@dataclass(frozen=True)
class Slot:
    name: str                     # stable identity and report label
    cls: str
    make: Callable                # make(w, rng) -> Job


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    return str(Fraction(x))


def vec_str(values: Sequence) -> str:
    return ",".join(fmt(v) for v in values)


# Every seeded parameter has this denominator.  The cost of exact arithmetic
# grows with the denominators, and a mix of them made the cost of a run
# depend on the seed by up to a quarter.
PARAM_DEN = 5


def nonint(rng: random.Random) -> Fraction:
    """A non-integer rational in [-3, 3) with denominator PARAM_DEN."""
    num = rng.randrange(-3 * PARAM_DEN, 3 * PARAM_DEN)
    while num % PARAM_DEN == 0:
        num += 1
    return Fraction(num, PARAM_DEN)


def nonints(rng: random.Random, count: int) -> List[Fraction]:
    return [nonint(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# The paper's classification table for types A and C (independent of classify)
# ---------------------------------------------------------------------------

def table_verdict(family: str, rank: int, theta: frozenset) -> Tuple[str, Optional[Tuple]]:
    """(kind, (module kind, minus_ones, free, zeros)) from the paper's tables."""
    full = frozenset(range(1, rank + 1))
    if theta == full:
        return "HIGHEST_WEIGHT", None
    if not theta:
        return "CUSPIDAL", None
    comp = sorted(full - theta)
    lo, hi = comp[0], comp[-1]
    connected = hi - lo + 1 == len(comp)
    if family == "A" and connected:
        return "NONTRIVIAL", ("N", lo - 1, hi - lo + 2, rank - hi)
    if family == "C" and connected and hi == rank and lo >= 2:
        return "NONTRIVIAL", ("M", lo - 1, rank - lo + 1, 0)
    return "TRIVIAL", None


def thetas(rank: int):
    for mask in range(1, (1 << rank) - 1):
        yield frozenset(i + 1 for i in range(rank) if mask >> i & 1)


def nontrivial_thetas(family: str, rank: int) -> List[frozenset]:
    return [t for t in thetas(rank) if table_verdict(family, rank, t)[0] == "NONTRIVIAL"]


def trivial_complements(family: str, rank: int) -> List[Tuple[int, ...]]:
    full = frozenset(range(1, rank + 1))
    return [tuple(sorted(full - t)) for t in thetas(rank)
            if table_verdict(family, rank, t)[0] == "TRIVIAL"]


def verdict_tuple(verdict) -> Tuple[str, Optional[Tuple]]:
    fam = verdict.family
    return verdict.kind, (None if fam is None else
                          (fam.kind, fam.minus_ones, fam.free, fam.zeros))


# ---------------------------------------------------------------------------
# Job constructors
# ---------------------------------------------------------------------------

def cli_job(cls: str, argv: Sequence[str], **expect) -> Job:
    argv = tuple(argv)
    return Job(cls, "cli " + " ".join(argv), "cli", argv, dict(expect))


def family_vector(w, type_name: str, theta: frozenset, rng: random.Random):
    """Classify (type, theta) and instantiate the family with seeded parameters."""
    system = w.rootsys.build_root_system(type_name)
    verdict = w.categorio.classify(system, theta)
    table = table_verdict(type_name[0], system.rank, theta)
    fam = verdict.family
    if fam is None:      # classify disagrees with the table; the job check reports it
        fam_kind, minus, free, zeros = table[1]
    else:
        fam_kind, minus, free, zeros = fam.kind, fam.minus_ones, fam.free, fam.zeros
    vec = [Fraction(-1)] * minus + nonints(rng, free) + [Fraction(0)] * zeros
    return fam_kind, vec, {"table": table, "verdict": verdict_tuple(verdict)}


def verify_slot(type_name: str, theta: frozenset, radius: int) -> Slot:
    def make(w, rng):
        kind, vec, exp = family_vector(w, type_name, theta, rng)
        return cli_job(f"verify-B{radius}",
                       ["verify", "--module", kind, "--a", vec_str(vec), "--B", str(radius)], **exp)
    label = ",".join(map(str, sorted(theta)))
    return Slot(f"verify/{type_name}/theta={label}/B={radius}", f"verify-B{radius}", make)


def weyl_slot(type_name: str, theta: frozenset, radius: int) -> Slot:
    def make(w, rng):
        _, vec, exp = family_vector(w, type_name, theta, rng)
        params = (vec_str(vec), radius)
        return Job(f"weyl-r{radius}", f"weyl {params[0]} r={radius}", "weyl", params, exp)
    label = ",".join(map(str, sorted(theta)))
    return Slot(f"weyl/{type_name}/theta={label}/r={radius}", f"weyl-r{radius}", make)


def fixed_slot(name: str, job: Job) -> Slot:
    return Slot(name, job.cls, lambda w, rng: job)


def ext_self_slot(module: str, shape: Tuple[int, int, int], radius: int, cls: str) -> Slot:
    minus, free, zeros = shape

    def make(w, rng):
        vec = [Fraction(-1)] * minus + nonints(rng, free) + [Fraction(0)] * zeros
        return cli_job(cls, ["ext", "--module", module, "--a", vec_str(vec), "--B", str(radius)],
                       dimension=1 if cls == "ext-bline" else 0)
    return Slot(f"{cls}/{module}{shape}/B={radius}", cls, make)


def ext_noniso_slot(module: str, shape: Tuple[int, int, int]) -> Slot:
    """A pair whose free parameters differ by a non-integer in some place, so
    that the weight supports are disjoint and ext takes its early exit.
    Pairs that differ by integers alone cost a thousand times as much."""
    minus, free, zeros = shape

    def make(w, rng):
        za, zb = nonints(rng, free), nonints(rng, free)
        while all((x - y).denominator == 1 for x, y in zip(za, zb)):
            zb = nonints(rng, free)
        a = [Fraction(-1)] * minus + za + [Fraction(0)] * zeros
        b = [Fraction(-1)] * minus + zb + [Fraction(0)] * zeros
        return cli_job("ext-noniso", ["ext", "--module", module, "--a", vec_str(a),
                                      "--b", vec_str(b)], dimension=0)
    return Slot(f"ext-noniso/{module}{shape}", "ext-noniso", make)


def cocycle_slot(pair: str) -> Slot:
    """C2 cocycles M(a) -> M(b).  The cross pair shifts a by a nonzero vector
    with even coordinate sum, so that the supports meet: other pairs are
    disjoint and cost a two-hundredth as much, which made the cost of a run
    depend on whether the seed drew one."""
    def make(w, rng):
        a = nonints(rng, 2)
        b = list(a)
        if pair == "cross":
            shift = (0, 0)
            while shift == (0, 0) or sum(shift) % 2:
                shift = (rng.randint(-2, 2), rng.randint(-2, 2))
            b = [x + k for x, k in zip(a, shift)]
        draw = rng.randrange(1 << 30)
        params = (vec_str(a), vec_str(b), 2, draw)
        return Job("ext-cocycle", f"cocycle M({params[0]}) M({params[1]}) r=2 draw={draw}",
                   "cocycle", params)
    return Slot(f"ext-cocycle/C2/{pair}", "ext-cocycle", make)


def lab_slot(lemma: str, shape: str, depth: int) -> Slot:
    def make(w, rng):
        argv = ["lab", lemma]
        if lemma in ("lemA12", "appendix-a3"):
            argv += ["--a", vec_str(nonints(rng, 2)), "--c=" + rng.choice(("0", "-1-A"))]
        elif lemma == "AC1":
            a1 = nonint(rng)
            a2 = rng.choice((Fraction(-1, 2), Fraction(-3, 2))) - a1
            argv += ["--a", vec_str([a1, a2])]
        else:
            minus, free, zeros = (int(x) for x in shape.split("-"))
            vec = [Fraction(-1)] * minus + nonints(rng, free) + [Fraction(0)] * zeros
            argv += ["--a", vec_str(vec)]
        argv += ["--D", str(depth)]
        return cli_job(f"lab-D{depth}", argv, match=True)
    return Slot(f"lab/{lemma}/{shape}/D={depth}", f"lab-D{depth}", make)


def probe_slot(type_name: str, comp: Tuple[int, ...], depth: int) -> Slot:
    def make(w, rng):
        system = w.rootsys.build_root_system(type_name)
        blocks = sorted((tuple(sorted(b)) for b in system.connected_components(comp)), key=min)
        components = []
        for block in blocks:
            if type_name[0] == "C" and system.rank in block:
                components.append(("M", block, vec_str(nonints(rng, len(block)))))
            else:
                components.append(("N", block, vec_str(nonints(rng, len(block) + 1))))
        central = tuple((i, fmt(nonint(rng))) for i in range(1, system.rank + 1)
                        if i not in comp)
        params = (type_name, tuple(components), central, depth)
        return Job(f"probe-D{depth}", f"probe {json.dumps(params)}", "probe", params)
    label = ",".join(map(str, comp))
    return Slot(f"probe/{type_name}/comp={label}/D={depth}", f"probe-D{depth}", make)


# algebra -> (block, inner kind, inner size, central coroots, monomial depth of the probes)
VERMA_SHAPES = {
    "A3": ((1,), "N", 2, (2, 3), 2),
    "A4": ((2,), "N", 2, (1, 3, 4), 1),
    "C3": ((2, 3), "M", 2, (1,), 2),
}
VERMA_PROBES = 8


def verma_slot(type_name: str) -> Slot:
    block, kind, size, central_at, mono_depth = VERMA_SHAPES[type_name]

    def make(w, rng):
        inner = vec_str(nonints(rng, size))
        central = tuple((i, fmt(nonint(rng))) for i in central_at)
        draw = rng.randrange(1 << 30)
        params = (type_name, block, kind, inner, central, mono_depth, VERMA_PROBES, draw)
        return Job("verma", f"verma {json.dumps(params)}", "verma", params)
    return Slot(f"verma/{type_name}", "verma", make)


# ---------------------------------------------------------------------------
# Workload definitions: (slot, occurrences per plan repetition)
# ---------------------------------------------------------------------------

REF_VERIFY = ["verify", "--module", "N", "--a", "-1,1/2,1/3,0", "--B", "3"]
REF_CLASSIFY = ["classify", "A4", "--theta", "1,4"]
REF_EXT_N = ["ext", "--module", "N", "--a", "-1,1/2,1/3,0"]
REF_EXT_M = ["ext", "--module", "M", "--a", "-1,-1,1/4"]
REF_LAB = ["lab", "appendix-a3", "--a", "1/2,1/3", "--c", "0"]

# The rank-4 families verified at B=2: the five that take under 2 s per job
# on a 2-core Xeon.  The other seven (1.3 s to 6.7 s each) would push a run
# past the budget that 70 runs of three workloads must share.
RANK4_VERIFY = {("A4", frozenset({1, 2, 3})), ("A4", frozenset({2, 3, 4})),
                ("A4", frozenset({1, 3, 4})), ("A4", frozenset({1, 2, 4})),
                ("C4", frozenset({1, 2, 3}))}


def certify_slots() -> List[Tuple[Slot, int]]:
    slots: List[Tuple[Slot, int]] = [
        (fixed_slot("ref/verify", cli_job("ref-verify", REF_VERIFY)), 2),
        (fixed_slot("ref/classify", cli_job("ref-classify", REF_CLASSIFY)), 2),
    ]
    for type_name in ("A2", "A3", "C2", "C3"):
        for theta in nontrivial_thetas(type_name[0], int(type_name[1:])):
            slots.append((verify_slot(type_name, theta, 3), 2 if type_name[1] == "2" else 1))
            slots.append((weyl_slot(type_name, theta, 2), 1))
            if type_name != "A3":       # A3 at r=3: 4-6 s per job
                slots.append((weyl_slot(type_name, theta, 3), 1))
    for type_name in ("A4", "C4"):
        for theta in nontrivial_thetas(type_name[0], 4):
            if (type_name, theta) in RANK4_VERIFY:
                slots.append((verify_slot(type_name, theta, 2), 1))
            if type_name == "C4":       # A4 at r=2: 5-13 s per job
                slots.append((weyl_slot(type_name, theta, 2), 1))
    return slots


def ext_slots() -> List[Tuple[Slot, int]]:
    slots: List[Tuple[Slot, int]] = [
        (fixed_slot("ref/ext-N", cli_job("ref-ext", REF_EXT_N, dimension=0)), 1),
        (fixed_slot("ref/ext-M", cli_job("ref-ext", REF_EXT_M, dimension=0)), 1),
    ]
    slots.append((ext_self_slot("N", (1, 2, 1), 3, "ext-self"), 2))
    slots.append((ext_self_slot("N", (1, 2, 1), 4, "ext-self"), 1))
    slots.append((ext_self_slot("M", (2, 1, 0), 3, "ext-self"), 1))
    slots.append((ext_self_slot("M", (2, 1, 0), 4, "ext-self"), 1))
    for radius in (3, 4, 5, 6):
        slots.append((ext_self_slot("M", (1, 1, 0), radius, "ext-self"), 5))
    for radius in range(3, 9):
        slots.append((ext_self_slot("N", (0, 2, 0), radius, "ext-bline"), 1))
    slots.append((ext_noniso_slot("N", (1, 2, 1)), 2))
    slots.append((ext_noniso_slot("M", (1, 1, 0)), 2))
    slots.append((ext_noniso_slot("M", (2, 1, 0)), 2))
    slots.append((cocycle_slot("self"), 1))
    slots.append((cocycle_slot("cross"), 1))
    return slots


LAB_LEMMAS = (("lemA12", "2"), ("A1N", "1-2-1"), ("A1N", "2-2-2"), ("AkAn", "1-3-1"),
              ("AC1", "2"), ("CC", "1-2-0"), ("CC", "2-2-0"), ("appendix-a3", "2"))


def lab_slots() -> List[Tuple[Slot, int]]:
    slots: List[Tuple[Slot, int]] = [
        (fixed_slot("ref/lab", cli_job("ref-lab", REF_LAB, match=True)), 2)]
    for depth in (4, 5, 6):
        for lemma, shape in LAB_LEMMAS:
            slots.append((lab_slot(lemma, shape, depth), 1))
    for type_name in ("A3", "A4", "C2", "C3", "C4"):
        for comp in trivial_complements(type_name[0], int(type_name[1:])):
            for depth in (3, 4):
                slots.append((probe_slot(type_name, comp, depth), 2))
    for type_name in VERMA_SHAPES:
        slots.append((verma_slot(type_name), 1))
    return slots


SLOTS = {"certify": certify_slots, "ext": ext_slots, "lab": lab_slots}


def make_plan(w, workload: str, seed: int, reps: int = 1, smoke: bool = False) -> List[Job]:
    """The seeded job list of one run: `reps` copies of the workload's slots.

    Occurrence `k` of a slot in repetition `r` draws its parameters from its
    own generator, seeded by workload, run seed, slot, `r` and `k`."""
    entries = SLOTS[workload]()
    if smoke:                      # one occurrence of the first slot of each class
        seen, small = set(), []
        for slot, _ in entries:
            if slot.cls not in seen:
                seen.add(slot.cls)
                small.append((slot, 1))
        entries = small
    plan: List[Job] = []
    for r in range(reps):
        for slot, count in entries:
            for k in range(count):
                rng = random.Random(f"{workload}:{seed}:{slot.name}:{r}:{k}")
                plan.append(replace(slot.make(w, rng), slot=slot.name))
    random.Random(f"{workload}:{seed}").shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# Running a job
# ---------------------------------------------------------------------------

def run_cli(w, argv) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = w.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def frs(s: str) -> List[Fraction]:
    return [Fraction(x) for x in s.split(",")]


def weyl_job(w, vec: str, radius: int) -> Tuple[int, str]:
    params = w.weylmod.WeylParams(tuple(frs(vec)))
    return 0, json.dumps(w.weylmod.check_weyl_relations(params, radius))


def cocycle_job(w, a: str, b: str, radius: int, draw: int) -> Tuple[int, str]:
    source = w.degonemod.build_M(frs(a))
    target = w.degonemod.build_M(frs(b))
    space = w.extcoh.cocycle_space(source, target, radius)
    cocycle = space.random_cocycle(random.Random(draw))
    phi = w.extcoh.is_coboundary(cocycle, radius)
    witness = None if phi is None else {str(list(k)): fmt(v) for k, v in sorted(phi.items())}
    return 0, json.dumps({"dimension": space.dimension, "coboundary": witness}, sort_keys=True)


def build_levi(w, type_name: str, components, central):
    system = w.rootsys.build_root_system(type_name)
    parts = []
    for kind, block, vec in components:
        inner = w.degonemod.build_M(frs(vec)) if kind == "M" else w.degonemod.build_N(frs(vec))
        parts.append((tuple(block), inner))
    cen = {i: Fraction(v) for i, v in central}
    return system, w.inducemod.levi_module_product(system, parts, cen)


def probe_job(w, type_name: str, components, central, depth: int) -> Tuple[int, str]:
    _, C = build_levi(w, type_name, components, central)
    rep = w.inducemod.probe_restriction_failure(C, depth=depth)
    wit = rep.witness
    return 0, json.dumps({
        "restriction_impossible": rep.restriction_impossible,
        "witness": None if wit is None else [list(wit.alpha), list(wit.chain_weight),
                                             list(wit.delta), list(wit.witness_root)],
        "candidates_checked": rep.candidates_checked}, sort_keys=True)


def _vsub(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for k, v in b.items():
        t = out.get(k, Fraction(0)) - v
        if t:
            out[k] = t
        else:
            out.pop(k, None)
    return out


def verma_job(w, type_name: str, block, kind: str, inner: str, central, mono_depth: int,
              probes: int, draw: int) -> Tuple[int, str]:
    """Bracket fidelity [X_mu, X_nu] v on a few shallow vectors of the induced module."""
    system, C = build_levi(w, type_name, [(kind, block, inner)], central)
    V = w.inducemod.induce(C, 4)
    neg = lambda r: tuple(-x for x in r)  # noqa: E731
    monos = [[]] + [[neg(r)] for r in V.ideal_pos]
    if mono_depth >= 2:
        monos += [[neg(a), neg(b)] for a in V.ideal_pos for b in V.ideal_pos]
    picks = random.Random(draw).sample(range(len(monos)), min(probes, len(monos)))
    vectors = [V.monomial_tensor(monos[i], C.zero_index()) for i in sorted(picks)]
    real = system.realization
    roots = sorted(system.roots, key=lambda r: (sum(r), r))
    checked, violations = 0, []
    for i, mu in enumerate(roots):
        for nu in roots[i:]:
            s = tuple(a + b for a, b in zip(mu, nu))
            for p, vec in enumerate(vectors):
                got = _vsub(V.act_root(mu, V.act_root(nu, vec)),
                            V.act_root(nu, V.act_root(mu, vec)))
                if s in system.roots:
                    n = real.structure_constant(mu, nu)
                    want = {k: n * c for k, c in V.act_root(s, vec).items() if n * c}
                elif not any(s):
                    want = V.act_coroot_combo(real.cartan_coefficients(mu), vec)
                else:
                    want = {}
                if _vsub(got, want):
                    violations.append(f"{list(mu)},{list(nu)} on probe {p}")
                checked += 1
    return 0, json.dumps({"checked": checked, "violations": violations})


LIBRARY_JOBS = {"weyl": weyl_job, "cocycle": cocycle_job, "probe": probe_job, "verma": verma_job}


def execute(w, job: Job) -> Tuple[int, str]:
    if job.kind == "cli":
        return run_cli(w, job.args)
    return LIBRARY_JOBS[job.kind](w, *job.args)


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def raised_text(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def known_answer(job: Job, rc: int, text: str) -> Optional[str]:
    """None if the output carries the paper's answer, else the reason it does not.

    The answers come from the paper, not from the code under test: verify
    certifies every NONTRIVIAL family; the Weyl relations hold; ext vanishes
    on self pairs and support-disjoint pairs and is one-dimensional on the
    rank-one b-line; C2 cocycles are coboundaries; every lab script matches
    its closed form; every TRIVIAL probe finds the obstruction; the induced
    action respects brackets; classify reproduces the tables.
    """
    if rc != 0:
        return f"exit code {rc}"
    exp = job.expect
    if "table" in exp and exp["verdict"] != exp["table"]:
        return f"classify gave {exp['verdict']}, the table says {exp['table']}"
    out = json.loads(text)
    cls = job.cls
    if cls.startswith("verify") or cls == "ref-verify":
        ok = out.get("all_pass") is True
    elif cls == "ref-classify":
        fam = out.get("family") or {}
        ok = (out.get("kind"), (fam.get("kind"), fam.get("minus_ones"), fam.get("free"),
                                fam.get("zeros"))) == ("NONTRIVIAL", ("N", 1, 3, 1))
    elif cls.startswith("weyl"):
        ok = out == []
    elif cls.startswith("ext-") or cls == "ref-ext":
        if cls == "ext-cocycle":
            ok = out.get("coboundary") is not None
        else:
            ok = out.get("dimension") == exp["dimension"]
    elif cls.startswith("lab") or cls == "ref-lab":
        ok = out.get("match") is exp["match"]
    elif cls.startswith("probe"):
        ok = out.get("restriction_impossible") is True
    elif cls == "verma":
        ok = out.get("checked", 0) > 0 and out.get("violations") == []
    else:
        raise KeyError(f"no known answer for job class {cls!r}")
    return None if ok else "known answer broken"


@dataclass
class Outcome:
    failed: bool
    reason: str
    unexpected: bool              # differs from the outcome recorded in digests.json


def failure_kind(reason: str) -> str:
    """What a failure reason says before its details: "raised DepthOverflowError",
    "exit code 1", "known answer broken"."""
    return reason.split(":", 1)[0]


def judge(job: Job, rc: Optional[int], text: str, recorded: Dict) -> Outcome:
    """Known-answer and digest gate for one job.

    `rc` is None when the job raised, and `text` then describes the error.
    `recorded` is one workload's entry of digests.json.  For every job that
    the recorded seeds drew, ``recorded["jobs"][digest(job.key)]`` holds the
    digest of its output at the baseline commit and whether it passed there;
    a job no recorded seed drew is judged by its known answer alone.
    ``recorded["known_failures"]`` maps a slot to the kind of failure its
    jobs showed at the baseline.

    A job fails if it raised, exited with an unexpected code, broke its known
    answer or changed its output digest.  A failure is *unexpected* unless
    its output is byte-identical to the recorded one or, for a job without a
    recorded digest, it is the kind of failure recorded for its slot (a known
    defect, still counted as a failure).  A job that failed at the baseline
    and now carries the known answer passes: its defect was fixed.
    """
    rec = recorded["jobs"].get(digest(job.key))
    same = rec is not None and digest(text) == rec["digest"]
    if rc is None:
        reason = text
    else:
        try:
            reason = known_answer(job, rc, text)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            reason = f"unreadable output: {exc}"
    if reason is not None:
        known = rec is None and recorded["known_failures"].get(job.slot) == failure_kind(reason)
        return Outcome(True, reason, not (same or known))
    if rec is not None and not same and rec["ok"]:
        return Outcome(True, "output digest changed", True)
    return Outcome(False, "", False)
