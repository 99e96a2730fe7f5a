import hashlib
from fractions import Fraction as F

import pytest

from lab_seeds import seeded_reports
from weightcat.paperlab import (LEMMAS, appendix_a3, verify_A1N, verify_AC1, verify_AkAn,
                                verify_CC, verify_lemA12)


def test_lemA12_frozen_values():
    rep = verify_lemA12("1/2", "1/3", k_range=(0, 1), branch="0")
    assert rep.match
    assert rep.computed["c"] == 0
    assert rep.computed["eta"][0] == F(3, 8)
    assert rep.computed["eta"][1] == F(9, 2)
    rep = verify_lemA12("1/2", "1/3", k_range=(0,), branch="-1-A")
    assert rep.match and rep.computed["c"] == F(-11, 6)
    assert rep.computed["eta"][0] == -1


def test_lemA12_rejects_integer_parameters():
    with pytest.raises(ValueError):
        verify_lemA12("1", "1/3")


def test_A1N_constraints():
    rep = verify_A1N(["-1", "1/2", "1/3", "0"])
    assert rep.match
    c, cp = rep.computed["c"], rep.computed["c'"]
    A = F(1, 2) + F(1, 3)
    assert c + cp + A + 1 == 0 and c * cp == 0
    rep = verify_A1N(["-1", "-1", "1/5", "2/7", "0", "0"])
    assert rep.match
    assert all(v == 0 for k, v in rep.computed.items() if k.startswith("d"))


def test_AkAn_constants_and_comparison():
    rep = verify_AkAn(["-1", "1/2", "1/3", "1/5", "0"])
    assert rep.match
    assert rep.computed["c"] == 0 and rep.computed["c'"] == -1
    assert rep.computed["u0_compare"] is True


def test_AC1_branches():
    rep = verify_AC1("1/4", "-3/4")
    assert rep.match and rep.computed["c"] == 0
    rep = verify_AC1("1/3", "-11/6")
    assert rep.match and rep.computed["c"] == 1
    with pytest.raises(ValueError):
        verify_AC1("1/4", "1/4")


def test_CC_boundary_constant():
    rep = verify_CC(["-1", "1/4", "1/5"])
    assert rep.match and rep.computed["c"] == -1
    rep = verify_CC(["-1", "-1", "1/4", "1/5"])
    assert rep.match


def test_appendix_closed_forms():
    rep = appendix_a3("1/2", "1/3", branch="0", k_range=(0,))
    assert rep.match
    assert rep.computed["d"] == F(-17, 6)
    assert rep.computed["eta1"][0] == F(-7, 4)
    assert rep.computed["eta2"][0] == 1
    rep = appendix_a3("1/2", "1/3", branch="-1-A", k_range=(0, 1))
    assert rep.match


def test_appendix_integer_sum_cases():
    # A = -2: kernel vector at lowering power 1
    rep = appendix_a3("1/2", "-5/2", branch="0", k_range=(0,))
    assert rep.computed["verma_simple"] is False
    assert rep.computed["kernel_vector_ok"] is True
    # A = -3: kernel vector at power 2, power 1 still alive
    rep = appendix_a3("1/2", "-7/2", branch="0", k_range=(0,))
    assert rep.computed["verma_simple"] is False
    assert rep.computed["kernel_vector_ok"] is True
    # A positive integer sum is outside the degenerate range
    rep = appendix_a3("1/2", "3/2", branch="0", k_range=(0,))
    assert rep.computed["verma_simple"] is True and rep.match


# sha256 of repr([r.params for r in seeded_reports(lemma, seed=2024, count=5)])
SEEDED_PARAMS = {
    "A1N": "caa637f6681f61aad800b1c4b5f84c8bc5a7e6320f7241c772c02318c0363d21",
    "AC1": "175f8c3005aca982232b2a8efba4a990f2fecd1ab75b2bd533a5559824df9cb3",
    "AkAn": "aa2ae8a71da4e1c79765d5fe84af8b93c2e4ca05fa41827e13a77d3d8842a716",
    "CC": "ff76887e8fab81fd8dda66338cd2bb1ad04bbad4011d9b1f65e56e6c961ae768",
    "appendix-a3": "92ec043807734a7fa71ab844884116b7a61fac0413aa7878dd2f84d8bb79981d",
    "lemA12": "92ec043807734a7fa71ab844884116b7a61fac0413aa7878dd2f84d8bb79981d",
}


@pytest.mark.parametrize("lemma", sorted(LEMMAS))
def test_seeded_parameter_sweeps(lemma):
    reports = seeded_reports(lemma, seed=2024, count=5)
    assert len(reports) == 5
    params = repr([rep.params for rep in reports])
    assert hashlib.sha256(params.encode()).hexdigest() == SEEDED_PARAMS[lemma]
    for rep in reports:
        assert rep.match, (lemma, rep.params, rep.computed, rep.expected)


def test_branch_consistency_lemA12():
    # extracted constants always land in the stated two-element set
    for seed in (1, 2, 3):
        for rep in seeded_reports("lemA12", seed=seed, count=3):
            a1 = F(rep.params["a1"])
            a2 = F(rep.params["a2"])
            assert rep.computed["c"] in (F(0), -1 - a1 - a2)


def test_depth_stability_of_extracted_scalars():
    for depth in (3, 4, 5):
        rep = verify_lemA12("1/2", "1/3", k_range=(0, 1), depth=depth)
        assert rep.computed["eta"][0] == F(3, 8)
        rep2 = appendix_a3("1/2", "1/3", branch="0", k_range=(0,), depth=max(depth, 3))
        assert rep2.computed["eta1"][0] == F(-7, 4)


def test_report_json_roundtrip():
    import json
    rep = verify_lemA12("1/2", "1/3", k_range=(0,))
    js = rep.to_json()
    assert json.loads(json.dumps(js)) == js
