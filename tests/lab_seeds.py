"""Seeded parameter draws for the lab lemmas, shared by the lab tests.

`seeded_reports(lemma, seed, count)` runs one lemma on `count` random valid
parameter sets at the lab defaults; the draws of a seed are fixed, and the
tests pin them by hash.
"""
import random
from fractions import Fraction
from typing import List

from weightcat.paperlab import BRANCHES, LemmaReport, run_lemma


def random_nonint(rng: random.Random, lo: int = -3, hi: int = 3) -> Fraction:
    den = rng.choice([2, 3, 4, 5, 7])
    num = rng.randrange(lo * den, hi * den)
    while num % den == 0:
        num += 1
    return Fraction(num, den)


def seeded_reports(lemma: str, seed: int, count: int = 5) -> List[LemmaReport]:
    """Run one lemma on `count` random valid parameter sets, at the lab defaults."""
    rng = random.Random(seed)
    out: List[LemmaReport] = []
    for _ in range(count):
        branch = rng.choice(BRANCHES)
        if lemma in ("lemA12", "appendix-a3"):
            params = [random_nonint(rng), random_nonint(rng)]
        elif lemma == "A1N":
            z1, z2 = random_nonint(rng), random_nonint(rng)
            pre = [Fraction(-1)] * rng.choice([1, 2])
            post = [Fraction(0)] * rng.choice([1, 2])
            params = pre + [z1, z2] + post
        elif lemma == "AkAn":
            params = [Fraction(-1)] + [random_nonint(rng) for _ in range(3)] + [Fraction(0)]
        elif lemma == "AC1":
            a1 = random_nonint(rng)
            target = rng.choice([Fraction(-1, 2), Fraction(-3, 2)])
            a2 = target - a1
            if a2.denominator == 1:
                a1 += Fraction(1, 5)
                a2 = target - a1
            params = [a1, a2]
        else:                       # CC; run_lemma rejects an unknown name
            mids = [random_nonint(rng) for _ in range(2)]
            params = [Fraction(-1)] * rng.choice([1, 2]) + mids
        out.append(run_lemma(lemma, params, branch=branch))
    return out
