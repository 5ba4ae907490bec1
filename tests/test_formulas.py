"""Closed-form formulas: thin surgeries, doubles, splices, classifiers."""
import pytest

from knotsurgery.cone import PreconditionError
from knotsurgery.formulas import (
    UNKNOT_PROFILE,
    SutureDimProfile,
    WhDoubleSpec,
    almost_lspace_necessary_conditions,
    nearly_fibered_classify,
    parse_profile,
    splice_dim,
    thin_surgery_formula,
    whitehead_double_negative_clasp,
    whitehead_double_pm1,
)


def test_thin_formula_anchors():
    assert thin_surgery_formula(5, 0, 1, 1) == 3     # figure-eight at +1
    assert thin_surgery_formula(7, 1, 1, 1) == 3     # 5_2 mirror at +1
    assert thin_surgery_formula(7, 3, -1, 1) == 11   # (2,7) torus knot at -1


def test_thin_formula_tau_negative_branch():
    # tau = -2 at slope +1: 3 + |-1 - 3| = 7
    assert thin_surgery_formula(5, -2, 1, 1) == 7
    assert thin_surgery_formula(5, -2, -1, 1) == 5


def test_thin_formula_rejects_inconsistent_pair():
    with pytest.raises(PreconditionError, match="inconsistent"):
        thin_surgery_formula(7, 0, 1, 1)
    with pytest.raises(PreconditionError, match="inconsistent"):
        thin_surgery_formula(3, 2, 1, 1)


def test_thin_formula_rejects_bad_slopes():
    with pytest.raises(PreconditionError):
        thin_surgery_formula(5, 0, 0, 1)
    with pytest.raises(PreconditionError):
        thin_surgery_formula(5, 0, 2, 4)


def test_alternating_family():
    # the alternating twist family of genus n has tau = n
    assert thin_surgery_formula(3, 1, 1, 1) == 1      # (2,3) torus knot anchor
    assert thin_surgery_formula(7, 3, 1, 1) == 9      # (7 + 6 - 3)/2 + |1 - 5|
    assert thin_surgery_formula(5, 2, 7, 1) == 7      # large slope gives p


def test_whitehead_double_twist_values():
    # companion = unknot: t = -1 is the right trefoil, t = 0 the unknot,
    # t = +1 the figure-eight
    assert whitehead_double_pm1(WhDoubleSpec(-1, UNKNOT_PROFILE)).dim_plus_one == 1
    assert whitehead_double_pm1(WhDoubleSpec(-1, UNKNOT_PROFILE)).dim_minus_one == 3
    r0 = whitehead_double_pm1(WhDoubleSpec(0, UNKNOT_PROFILE))
    assert (r0.dim_plus_one, r0.dim_minus_one) == (1, 1)
    r1 = whitehead_double_pm1(WhDoubleSpec(1, UNKNOT_PROFILE))
    assert (r1.dim_plus_one, r1.dim_minus_one) == (3, 3)


def test_whitehead_tau_step():
    # tau steps from 1 to 0 exactly at t = 2 tau(companion) = 0 for the unknot
    for t in range(-4, 5):
        expected = 1 if t < 0 else 0
        assert whitehead_double_pm1(WhDoubleSpec(t, UNKNOT_PROFILE)).tau == expected
    # and at t = 2 tau for a tau = 1 companion
    prof = SutureDimProfile(tau=1, base_dim=1)
    assert whitehead_double_pm1(WhDoubleSpec(1, prof)).tau == 1
    assert whitehead_double_pm1(WhDoubleSpec(2, prof)).tau == 0


def test_whitehead_top_grading():
    prof = SutureDimProfile(tau=1, base_dim=1)
    # top grading dim = companion dimension at slope -t = 1 + |-t + 2|
    assert whitehead_double_pm1(WhDoubleSpec(0, prof)).top_grading_dim == 3
    assert whitehead_double_pm1(WhDoubleSpec(2, prof)).top_grading_dim == 1


def test_whitehead_negative_clasp_mirror_relation():
    # D^-_t(J) mirrors to D^+_{-t}(mirror J); slope dimensions swap
    spec = WhDoubleSpec(2, SutureDimProfile(tau=1, base_dim=1))
    neg = whitehead_double_negative_clasp(spec)
    pos = whitehead_double_pm1(WhDoubleSpec(-2, SutureDimProfile(tau=-1, base_dim=1)))
    assert (neg.dim_plus_one, neg.dim_minus_one) == (pos.dim_minus_one, pos.dim_plus_one)


def test_splice_values():
    assert splice_dim(3, SutureDimProfile(tau=0, base_dim=2)) == 13
    assert splice_dim(1, SutureDimProfile(tau=1, base_dim=0)) == 5
    assert splice_dim(-1, SutureDimProfile(tau=1, base_dim=0)) == 3


def test_splice_rejects_bad_input():
    with pytest.raises(PreconditionError, match="nonzero"):
        splice_dim(0, SutureDimProfile(tau=0, base_dim=2))
    with pytest.raises(PreconditionError, match="nontrivial"):
        splice_dim(1, UNKNOT_PROFILE)
    with pytest.raises(TypeError):
        splice_dim(1, SutureDimProfile(tau=1, base_dim=0), gamma0=2)


def test_gamma0_check_is_shared():
    prof = SutureDimProfile(tau=1, base_dim=0)
    prof.check_gamma0(None)
    prof.check_gamma0(2)
    with pytest.raises(PreconditionError,
                       match="^inconsistent profile: gamma0 = 5 but tau/base give 2$"):
        prof.check_gamma0(5)


def test_splice_affine_in_n_on_each_branch():
    # on either tau branch the dimension is affine in |n| with slope 2*gamma0
    for prof in (SutureDimProfile(tau=0, base_dim=2), SutureDimProfile(tau=2, base_dim=1)):
        for ns in (range(1, 6), range(-5, 0)):
            vals = [splice_dim(n, prof) for n in ns]
            steps = {b - a for a, b in zip(vals, vals[1:])}
            assert len(steps) == 1
            assert abs(next(iter(steps))) == 2 * prof.gamma0


def test_profile_parse():
    prof = parse_profile({"tau": 1, "base_dim": 0, "gamma0": 2})
    assert prof.dim_gamma(-2) == 0 and prof.dim_gamma(0) == 2
    with pytest.raises(PreconditionError, match="inconsistent"):
        parse_profile({"tau": 1, "base_dim": 0, "gamma0": 3})


def test_nearly_fibered_classify():
    assert nearly_fibered_classify(7, {1: 2, 0: -3, -1: 2}) == ("5_2", "5_2-bar")
    got = nearly_fibered_classify(9, [[2, 1], [-3, 0], [2, -1]])
    assert "15n43522" in got[0]
    got2 = nearly_fibered_classify(9, {1: -2, 0: 5, -1: -2})
    assert any("pretzel" in c for c in got2)
    with pytest.raises(PreconditionError, match="not nearly-fibered"):
        nearly_fibered_classify(9, {1: 1, 0: -1, -1: 1})
    with pytest.raises(PreconditionError, match="not nearly-fibered"):
        nearly_fibered_classify(11, {1: 2, 0: -3, -1: 2})


def test_almost_lspace_conditions():
    assert almost_lspace_necessary_conditions(1, {-1: 1, 0: 3, 1: 1}).ok
    assert almost_lspace_necessary_conditions(1, {-1: 2, 0: 3, 1: 2}).ok
    assert almost_lspace_necessary_conditions(2, {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}).ok
    bad = almost_lspace_necessary_conditions(3, {-3: 1, -2: 2, -1: 1, 0: 3, 1: 1, 2: 2, 3: 1})
    assert not bad.ok and any("> 1" in v for v in bad.violations)
    asym = almost_lspace_necessary_conditions(1, {-1: 1, 0: 3, 1: 2})
    assert not asym.ok


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the scan calls the left-handed trefoil 'almost', "
                          "and the necessary conditions reject its table")
def test_the_conditions_accept_every_model_the_scan_calls_almost():
    # per-grading dims of each catalog model and mirror with an "almost" scan;
    # today the left-handed trefoil (dims 1, 1, 1) fails under its three names
    from collections import Counter
    from knotsurgery.catalog import thin_catalog
    from knotsurgery.cone import almost_lspace_scan
    from knotsurgery.knotcx import mirror
    almost = [M for K in thin_catalog() for M in (K, mirror(K))
              if almost_lspace_scan(M).verdict == "almost"]
    assert len(almost) == 10
    rejected = [M.name for M in almost if not almost_lspace_necessary_conditions(
        M.genus, Counter(g.alex // 2 for g in M.space.generators)).ok]
    assert rejected == []
