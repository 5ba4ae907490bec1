"""Exterior-algebra pathway: graded slices, circle bundles, Seifert spaces."""
import math
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from knotsurgery import borromean, crosscheck
from knotsurgery.borromean import (
    circle_bundle_dim_formula,
    circle_bundle_dim_module,
    seifert,
    seifert_dim,
    seifert_dim_windowed,
)
from knotsurgery.cone import PreconditionError
from borromean_helpers import (
    MonomialModule,
    circle_bundle_dim_double_sum,
    gamma_slice,
    gamma_slice_table,
    khi_borromean,
    monomial_dim,
    residue_classes,
    seifert_offsets,
)


def test_monomial_module_dims_binomial_identity():
    for g in range(1, 7):
        for k in range(0, 2 * g + 1):
            assert monomial_dim(g, k) == sum(comb(2 * g, j) for j in range(k, 2 * g + 1))
    # explicit basis agrees with the closed count for small g
    for g in (1, 2, 3):
        for k in range(0, 2 * g + 1):
            assert MonomialModule.degree_at_least(g, k).dim == monomial_dim(g, k)


def test_monomial_module_is_submodule():
    for g in (1, 2):
        for k in range(0, 2 * g + 1):
            assert MonomialModule.degree_at_least(g, k).is_submodule()


def test_gamma_slice_genus_one_slope_two():
    top = gamma_slice(1, 2, 3)      # grading 3/2
    assert top.dim == 1 and top.monomials == frozenset({frozenset({1, 2})})
    mid = gamma_slice(1, 2, 1)      # grading 1/2
    assert mid.dim == 3
    assert frozenset({1}) in mid.monomials and frozenset() not in mid.monomials
    assert gamma_slice(1, 2, -3).dim == 1
    assert gamma_slice(1, 2, 5).dim == 0


def test_gamma_slice_full_band():
    assert gamma_slice(2, 5, 0).dim == 16


def test_gamma_slice_table_totals():
    # slice dims are symmetric, peak at the full algebra, and total n * 4^g
    for g, n in ((1, 2), (1, 3), (2, 4), (2, 5)):
        dims = [sl.dim for sl in gamma_slice_table(g, n)]
        assert dims == dims[::-1]
        # the full algebra appears only once the inner band is nonempty
        assert max(dims) == (4 ** g if n > 2 * g else 4 ** g - 1)
        assert sum(dims) == n * (4 ** g)


def test_gamma_slice_rejects_small_slope():
    with pytest.raises(PreconditionError, match="below the supported range"):
        gamma_slice(2, 3, 0)


def test_gamma_slice_rejects_bad_parity():
    with pytest.raises(PreconditionError, match="parity"):
        gamma_slice(1, 2, 0)


def test_khi_borromean():
    assert [khi_borromean(1, i) for i in (-1, 0, 1)] == [1, 2, 1]
    assert khi_borromean(2, 0) == 6
    for g in range(1, 5):
        assert sum(khi_borromean(g, i) for i in range(-g, g + 1)) == 4 ** g


def test_circle_bundle_spot_values():
    assert circle_bundle_dim_module(2, 3) == 48
    assert circle_bundle_dim_module(2, 2) == 34
    assert circle_bundle_dim_module(2, 1) == 20
    assert circle_bundle_dim_formula(3, 5) == 320
    assert circle_bundle_dim_formula(3, 4) == 258
    assert circle_bundle_dim_formula(3, 3) == 196


def test_circle_bundle_module_equals_formula_grid():
    grid = [(g, m) for g in range(2, 41) for m in range(1, 2 * g + 3)]
    grid += [(200, m) for m in (1, 2, 3, 100, 397, 398, 399, 402)]
    for g, m in grid:
        a = circle_bundle_dim_module(g, m)
        b = circle_bundle_dim_formula(g, m)
        assert a == b, (g, m, a, b)
        assert circle_bundle_dim_module(g, -m) == a
        assert a >= (4 ** g) * m
        if m >= 2 * g - 1:
            assert a == (4 ** g) * m


def test_circle_bundle_formula_equals_the_double_sum():
    for g in range(2, 41):
        for m in range(-2 * g - 2, 2 * g + 3):
            if m:
                assert circle_bundle_dim_formula(g, m) == circle_bundle_dim_double_sum(g, m), (g, m)
    for g in range(41, borromean.MAX_GENUS + 1):
        for m in (1, 2, 2 * g - 2, 2 * g - 1):
            assert circle_bundle_dim_formula(g, m) == circle_bundle_dim_double_sum(g, m), (g, m)
        for m in (2 * g - 1, 2 * g):  # the module's cone at the edge of the large regime
            assert circle_bundle_dim_module(g, m) == circle_bundle_dim_double_sum(g, m), (g, m)


def test_circle_bundles_never_take_the_large_regime_shortcut(monkeypatch):
    """Both circle-bundle pathways compute in the large regime, so they check each other there."""
    def refuse(*args):
        raise AssertionError("circle bundles must not call _large_applicable")
    monkeypatch.setattr(borromean, "_large_applicable", refuse)
    result = crosscheck.suite_circle_bundles()
    assert result.ok and result.cases == 51, result.mismatches
    for m in (399, -399):
        assert circle_bundle_dim_module(200, m) == circle_bundle_dim_double_sum(200, m) == 4 ** 200 * 399


def test_tail_table_differences_are_the_monomial_dims(monkeypatch):
    monkeypatch.setattr(borromean, "_TAIL_PREFIX", {})
    for g in range(1, 13):
        prefix = borromean._tail_prefix(g)
        assert [b - a for a, b in zip(prefix, prefix[1:])] == [monomial_dim(g, k) for k in range(2 * g + 2)]
        assert borromean._tail_prefix(g) is prefix  # built once per genus
    assert sorted(borromean._TAIL_PREFIX) == list(range(1, 13))


def _bundle_and_seifert_answers(genera):
    """Every circle bundle |m| <= 2g + 2 and a few Seifert cones of each genus, in the given order."""
    answers = {}
    for g in genera:
        for m in range(1, 2 * g + 3):
            answers[g, m] = circle_bundle_dim_module(g, m)
        for m, pairs in ((1, [(1, 2)]), (0, [(-1, 3), (2, 5)]), (-1, [(2, 7), (-1, 11)])):
            answers[g, m, tuple(pairs)] = seifert_dim_windowed(g, m, pairs)
    return answers


def test_answers_do_not_depend_on_the_order_genera_are_first_queried(monkeypatch):
    genera = range(2, 13)
    monkeypatch.setattr(borromean, "_TAIL_PREFIX", {})
    ascending = _bundle_and_seifert_answers(genera)
    monkeypatch.setattr(borromean, "_TAIL_PREFIX", {})
    descending = _bundle_and_seifert_answers(reversed(genera))
    assert ascending == descending
    assert sorted(borromean._TAIL_PREFIX) == list(genera)
    for key, dim in ascending.items():
        if len(key) == 2:
            assert dim == circle_bundle_dim_double_sum(*key), key


def test_a_genus_past_the_limit_raises_before_the_table_grows(monkeypatch):
    monkeypatch.setattr(borromean, "_TAIL_PREFIX", {})
    g = borromean.MAX_GENUS + 1
    for call in (lambda: circle_bundle_dim_module(g, 1), lambda: circle_bundle_dim_formula(g, 1),
                 lambda: seifert_dim(g, 1, [(1, 2)]), lambda: seifert_dim_windowed(g, 1, [(1, 2)])):
        with pytest.raises(PreconditionError, match="MAX_GENUS = 200"):
            call()
    assert borromean._TAIL_PREFIX == {}


def test_circle_bundle_rejects_zero_euler():
    with pytest.raises(PreconditionError, match="zero orbifold degree"):
        circle_bundle_dim_module(2, 0)
    with pytest.raises(PreconditionError):
        circle_bundle_dim_formula(2, 0)


def test_circle_bundle_rejects_genus_one():
    with pytest.raises(PreconditionError):
        circle_bundle_dim_module(1, 2)


def test_seifert_trivial_pairs_match_circle_bundle():
    # integral pairs collapse onto the circle bundle at the total Euler number
    assert seifert_dim(2, 1, [(1, 1), (1, 1)]) == circle_bundle_dim_module(2, 3) == 48
    assert seifert_dim(2, 2, []) == 34
    for g in (2, 3):
        for e in range(1, 2 * g + 2):
            split = [(1, 1)] * (e - 1)
            assert seifert_dim(g, 1, split) == circle_bundle_dim_module(g, e), (g, e)


def test_seifert_large_slope_agreement():
    # deg = 7/2 puts this in the large regime; the forced cone must agree
    assert seifert_dim(2, 3, [(1, 2)]) == 112
    assert seifert(2, 3, [(1, 2)]) == (Fraction(7, 2), 112, "large-surgery")
    assert seifert_dim_windowed(2, 3, [(1, 2)]) == 112


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: with two fibres v_i > 1 the shortcut and its cone disagree")
def test_multi_fibre_shortcut_equals_its_cone():
    # deg = 35/6: the shortcut answers 560, the forced cone 592
    shortcut = seifert(2, 5, [(1, 2), (1, 3)])
    assert shortcut.pathway == "large-surgery"
    assert shortcut.dim == seifert_dim_windowed(2, 5, [(1, 2), (1, 3)])


def test_seifert_small_slope_windowed_consistency():
    # below the large regime the shortcut does not apply, and the cone answers
    res = seifert(2, 1, [(1, 2)])
    assert res.pathway == "cone" and res.degree == Fraction(3, 2)
    assert res.dim == seifert_dim(2, 1, [(1, 2)]) == seifert_dim_windowed(2, 1, [(1, 2)])


def test_seifert_orientation_flip():
    assert seifert_dim(2, -3, [(-1, 2)]) == seifert_dim(2, 3, [(1, 2)])
    assert seifert_dim(2, -2, []) == seifert_dim(2, 2, [])


def test_seifert_genus_one_large_only():
    assert seifert_dim(1, 3, []) == 12
    assert seifert_dim(1, -1, []) == 4


def test_seifert_rejects_zero_degree():
    with pytest.raises(PreconditionError, match="orbifold degree 0"):
        seifert_dim(2, 0, [])
    with pytest.raises(PreconditionError, match="orbifold degree 0"):
        seifert_dim(2, -1, [(1, 1)])


def test_seifert_rejects_common_factor():
    with pytest.raises(PreconditionError, match="gcd"):
        seifert_dim(2, 1, [(1, 2), (1, 4)])


def test_seifert_coprimality_check_is_linear():
    # v = 1 pairs never raise prod v_i, so nothing but the check's own cost
    # bounds their number; one pass over the pairs answers 40000 of them
    start = time.perf_counter()
    assert seifert_dim(2, 1, [(1, 1)] * 40000) == circle_bundle_dim_module(2, 40001)
    assert time.perf_counter() - start < 1
    # the text names the first clashing pair in input order, as a scan of all pairs would
    message = "gcd(3, 3) > 1: multiplicities must satisfy gcd(v_i, v_j) = 1 for i != j"
    clash = [(1, 3), (1, 5), (1, 5), (1, 3)]
    for pairs in (clash, [(1, 1)] * 40000 + clash):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            seifert_dim(2, 1, pairs)


def test_seifert_rejects_unreduced_pair():
    with pytest.raises(PreconditionError, match="not reduced"):
        seifert_dim(2, 1, [(2, 4)])


@pytest.mark.parametrize("fn", [seifert_dim, seifert, seifert_dim_windowed])
@pytest.mark.parametrize("g, m, pairs, message", [
    (0, 3, [(1, 2)], "base genus must be at least 1"),
    (2, 1, [(1, 0)], "multiplicity 0 must be a positive integer"),
    (2, 1, [(2, 4)], "pair 2/4 is not reduced"),
])
def test_seifert_entry_points_share_validation(fn, g, m, pairs, message):
    with pytest.raises(PreconditionError, match=message):
        fn(g, m, pairs)


def test_large_slope_answers_on_both_pathways():
    # the forced cone spans about 10^6 slots, yet sums one class key
    assert seifert(2, 10 ** 6, []) == (10 ** 6, 16 * 10 ** 6, "large-surgery")
    assert seifert_dim(2, 10 ** 6, []) == 16 * 10 ** 6
    assert seifert_dim_windowed(2, 10 ** 6, []) == circle_bundle_dim_formula(2, 10 ** 6)


@pytest.mark.parametrize("fn", [seifert_dim, seifert, seifert_dim_windowed])
def test_seifert_counts_the_classes_once_per_call(fn, monkeypatch):
    # a genus-15 base at prod v_i = 96441: the window holds 31 * 96441 slots
    counted = []
    count = borromean._residue_class_counts
    monkeypatch.setattr(borromean, "_residue_class_counts",
                        lambda *args: counted.append(args) or count(*args))
    pairs = [(1, 31), (1, 61), (1, 51)]
    start = time.perf_counter()
    answer = fn(15, 0, pairs)
    assert time.perf_counter() - start < 1
    assert len(counted) == 1
    dim = seifert_dim_windowed(15, 0, pairs)
    assert answer == ((Fraction(6583, 96441), dim, "cone") if fn is seifert else dim)


# --- the exterior cone against its per-slot reference -------------------------

def _cone_dim_by_slots(g, p, u, offset_map):
    """The exterior cone summed slot by slot, one monomial_dim call per slot."""
    def s0(sigma):
        off = offset_map[sigma % (2 * p)]
        return (sigma - off) // (2 * p)
    W = max(g, u // (2 * p) + 1)
    full = 4 ** g
    sources = [2 * s_prime * p + off
               for s_prime in range(-W, W + 1) for off in offset_map.values()]
    parity = sources[0] % 2
    tgt_count = image_total = 0
    for sigma in range(2 * u - 2 * W * p - (p - 1), 2 * W * p + p):
        if sigma % 2 != parity or (sigma % (2 * p)) not in offset_map:
            continue
        if s0(sigma) > W or s0(sigma - 2 * u) < -W:
            continue
        tgt_count += 1
        k_low = min(max(g - s0(sigma), 0), 2 * g + 1)
        k_high = min(max(g + s0(sigma - 2 * u), 0), 2 * g + 1)
        image_total += monomial_dim(g, min(k_low, k_high))
    return len(sources) * full + tgt_count * full - 2 * image_total


def _large_applicable_by_slots(g, p, u, offset_map):
    def s0(sigma):
        off = offset_map[sigma % (2 * p)]
        return (sigma - off) // (2 * p)
    parity = next(iter(offset_map.values())) % 2
    for sigma in range(2 * u + 2 * (1 - g) * p - (p - 1), 2 * (g - 1) * p + p):
        if sigma % 2 != parity or (sigma % (2 * p)) not in offset_map:
            continue
        if s0(sigma) <= g - 1 and s0(sigma - 2 * u) >= 1 - g:
            return False
    return True


def test_large_applicable_equals_the_all_form_on_a_grid():
    # the loop returns early; the generator form it replaced is the reference
    from itertools import product
    keys = list(product(range(-5, 3), range(-3, 2), range(-5, 3)))
    seen = set()
    for g in range(1, 5):
        for size in range(4):
            for chosen in combinations(keys[::7] if size > 1 else keys, size):
                classes = dict.fromkeys(chosen, 1)
                want = all(min(e, c) + min(gamma, 0) < 2 - 2 * g for e, gamma, c in classes)
                assert borromean._large_applicable(g, classes) == want, (g, chosen)
                seen.add(want)
    assert seen == {True, False}


def _seifert_args(g, m, pairs):
    """The private arguments of one Seifert input: (classes, offset_map, p, u)."""
    _, p, u, multiplicities = borromean._seifert_setup(g, m, pairs)
    return borromean._residue_class_counts(p, u, multiplicities), seifert_offsets(multiplicities), p, u


def test_exterior_cone_equals_slot_sum_on_circle_bundles():
    for g in range(2, 7):
        for u in range(1, 2 * g + 3):  # every Euler number, the large regime included
            classes = borromean._residue_class_counts(1, u, [])
            assert borromean._cone_dim_exterior(g, 1, u, classes) == _cone_dim_by_slots(g, 1, u, {0: 0}), (g, u)
            assert borromean._large_applicable(g, classes) == _large_applicable_by_slots(g, 1, u, {0: 0})


@pytest.mark.parametrize("g, m, pairs", [
    (2, 1, [(2, 7), (-1, 11), (2, 13)]),
    (3, -3, [(1, 3), (2, 7), (6, 11), (6, 13)]),
    (2, 1, [(-3, 5), (4, 7), (-9, 13), (8, 17)]),
    (2, -1, [(6, 7), (-7, 11), (6, 13), (-5, 17)]),
])
def test_exterior_cone_equals_slot_sum_on_seifert_regressions(g, m, pairs):
    classes, offset_map, p, u = _seifert_args(g, m, pairs)
    assert borromean._cone_dim_exterior(g, p, u, classes) == _cone_dim_by_slots(g, p, u, offset_map)
    assert borromean._large_applicable(g, classes) == _large_applicable_by_slots(g, p, u, offset_map)


def test_exterior_cone_equals_slot_sum_on_random_seifert_inputs():
    import random
    rng = random.Random(29)
    checked = large = 0
    while checked < 120:
        g = rng.randint(1, 4)
        pairs = []
        for v in rng.sample((2, 3, 5, 7), rng.randint(0, 3)):
            r = rng.choice([r for r in range(-2 * v, 2 * v + 1) if math.gcd(abs(r), v) == 1])
            pairs.append((r, v))
        try:
            classes, offset_map, p, u = _seifert_args(g, rng.randint(-2 * g - 2, 2 * g + 2), pairs)
        except PreconditionError:  # orbifold degree 0
            continue
        checked += 1
        assert borromean._cone_dim_exterior(g, p, u, classes) == _cone_dim_by_slots(g, p, u, offset_map), (g, pairs)
        applicable = borromean._large_applicable(g, classes)
        assert applicable == _large_applicable_by_slots(g, p, u, offset_map), (g, pairs)
        large += applicable
    assert 0 < large < checked


# --- the per-fibre class count against the listed lattice, on generated inputs ----

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)
LARGE_PRIMES = tuple(n for n in range(1000, 10 ** 4)
                     if all(n % d for d in range(2, math.isqrt(n) + 1)))


@st.composite
def seifert_inputs(draw, max_product):
    """(g, m, pairs): 0-5 fibres from the primes <= 17 and v = 1, or one large prime fibre.

    Small primes that would take prod v_i past ``max_product`` are dropped.
    """
    g = draw(st.integers(1, 4))
    if draw(st.integers(0, 4)) == 0:
        multiplicities = [draw(st.sampled_from([v for v in LARGE_PRIMES if v <= max_product]))]
    else:
        multiplicities = []
        for v in draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=5, unique=True)):
            if math.prod(multiplicities) * v <= max_product:
                multiplicities.append(v)
    multiplicities += [1] * draw(st.integers(0, 5 - len(multiplicities)))
    pairs = [(draw(st.integers(-2 * v, 2 * v).filter(lambda r, v=v: v == 1 or r % v)), v)
             for v in draw(st.permutations(multiplicities))]
    return g, draw(st.integers(-2 * g - 3, 2 * g + 3)), pairs


@settings(max_examples=150, deadline=None)
@given(seifert_inputs(max_product=borromean.MAX_MULTIPLICITY_PRODUCT))
@example((2, 3, [(1, 2)]))  # large regime
@example((2, 0, [(-1, 7), (-10, 11), (12, 13)]))  # cone
def test_class_count_equals_the_listed_lattice(args):
    try:
        classes, offset_map, p, u = _seifert_args(*args)
    except PreconditionError:  # orbifold degree 0
        assume(False)
    g = args[0]
    for W in (g - 1, borromean._window(g, p, u)):
        lo, hi = 2 * u - 2 * W * p - (p - 1), 2 * W * p + (p - 1)
        keyed = Counter({(-W - e, W + gamma, c): n for (e, gamma, c), n in classes.items()})
        assert keyed == Counter(residue_classes(p, u, offset_map, lo, hi)), W


@settings(max_examples=60, deadline=None)
@given(seifert_inputs(max_product=3000))
@example((2, 3, [(1, 2)]))
@example((2, 0, [(-1, 7), (-10, 11), (12, 13)]))
def test_seifert_dim_equals_the_slot_sums(args):
    try:
        classes, offset_map, p, u = _seifert_args(*args)
    except PreconditionError:
        assume(False)
    g = args[0]
    large = _large_applicable_by_slots(g, p, u, offset_map)
    assert borromean._large_applicable(g, classes) == large
    want = u * 4 ** g if large else _cone_dim_by_slots(g, p, u, offset_map)
    assert seifert_dim(*args) == want
    assert seifert_dim_windowed(*args) == _cone_dim_by_slots(g, p, u, offset_map)


# --- the per-fibre class count against the listed lattice, on every small fibre set ----

def test_class_count_equals_the_listed_lattice_on_every_small_fibre_set(monkeypatch):
    seen = Counter()
    bisect_right, half_sums = borromean.bisect_right, borromean._half_sums

    def spy_bisect(cuts, x, *lo):
        # a pair's second bisect_right starts at its first one's answer, and
        # returns it when no cut lies inside the pair's sums
        j = bisect_right(cuts, x, *lo)
        if lo:
            seen["between two cuts" if j == lo[0] else "split by a cut"] += 1
        return j

    def spy_half(p, u, fibres):
        sums = half_sums(p, u, fibres)
        seen["empty list"] += any(not offs for offs in sums.values())
        seen["lone-fibre range"] += isinstance(sums[0], range)
        return sums
    monkeypatch.setattr(borromean, "bisect_right", spy_bisect)
    monkeypatch.setattr(borromean, "_half_sums", spy_half)
    fibre_sets = [list(vs) for size in range(7) for vs in combinations((2, 3, 5, 7, 11, 13), size)
                  if math.prod(vs) <= 3000]
    assert len(fibre_sets) == 57 and [2, 3, 5, 7, 11] in fibre_sets and [3, 7, 11, 13] not in fibre_sets
    for multiplicities in fibre_sets:
        p = math.prod(multiplicities)
        offset_map = seifert_offsets(multiplicities)
        v = max(multiplicities, default=1)
        # v | u empties the kappa = -1 terms of that fibre; the other u give both kappas
        for u in sorted({1, 2, v, p - 1 or 1, p, p + 1, 2 * p + 3, 5 * p - 2}):
            classes = borromean._residue_class_counts(p, u, multiplicities)
            for W in (0, 2):
                lo, hi = 2 * u - 2 * W * p - (p - 1), 2 * W * p + (p - 1)
                keyed = Counter({(-W - e, W + gamma, c): n for (e, gamma, c), n in classes.items()})
                assert keyed == Counter(residue_classes(p, u, offset_map, lo, hi)), (multiplicities, u, W)
    assert set(+seen) == {"between two cuts", "split by a cut", "empty list", "lone-fibre range"}


def _seifert_regression():
    """The frozen Seifert references of the benchmark's ``lattice`` workload."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [entry for slot in module.SEIFERT_REGRESSION for entry in slot]


@pytest.mark.parametrize("g, m, pairs, dim", _seifert_regression())
def test_seifert_regression_dimensions(g, m, pairs, dim):
    assert seifert_dim(g, m, pairs) == dim
