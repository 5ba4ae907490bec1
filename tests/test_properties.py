"""Structural property suites over the catalog plus randomized thin models.

Fifty seeded random staircase-plus-squares models are pushed through every
invariant: differential identities, grading symmetry, Euler-characteristic
consistency, surgery parity bounds, window stability, mirror symmetry of
surgery dimensions, and scalar independence of the assembled cones.
"""
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from knotsurgery.catalog import thin_catalog
from knotsurgery.cone import (
    almost_lspace_scan,
    build_cone_problem,
    surgery_dim,
    zero_surgery_dims,
    zero_surgery_levels,
)
from knotsurgery.formulas import thin_surgery_formula
from knotsurgery.knotcx import (
    KnotComplex,
    SquareSpec,
    StaircaseSpec,
    assemble,
    chi_graded,
    decompose,
    knot_spec_dict,
    mirror,
    parse_knot_spec,
    poly_norm,
    validate,
)
from knotsurgery.linalg import GradedSpace, space, sparse_map
from cone_elimination import elimination_dimension, h_sources
from knot_helpers import components
from level_oracle import compute_tau
from linalg_helpers import compose, homology_two_pass
from map_reads import column
from validation_oracle import dims_by_grading


def random_thin_models(count: int, seed: int = 20240817) -> list:
    rng = random.Random(seed)
    models = []
    for i in range(count):
        tau = rng.randrange(-3, 4)
        squares = []
        for _ in range(rng.randrange(0, 3)):
            squares.append(SquareSpec(0, rng.choice((-1, 1))))
        if rng.random() < 0.5:
            s = rng.randrange(1, 3)
            sign = rng.choice((-1, 1))
            squares.extend([SquareSpec(s, sign), SquareSpec(-s, sign)])
        models.append(assemble(StaircaseSpec(tau), squares, name=f"random{i}"))
    return models


def _random_invertible(n: int, rng: random.Random, max_denominator: int = 3) -> tuple:
    """(M, M^-1) for a random invertible n x n matrix of rationals, as row lists.

    Numerators are in -3..3 and denominators in 1..max_denominator.
    """
    while True:
        m = [[Fraction(rng.randrange(-3, 4), rng.randrange(1, max_denominator + 1))
              for _ in range(n)]
             for _ in range(n)]
        aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
        for c in range(n):
            piv = next((r for r in range(c, n) if aug[r][c]), None)
            if piv is None:
                break
            aug[c], aug[piv] = aug[piv], aug[c]
            aug[c] = [x / aug[c][c] for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c]:
                    aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
        else:
            return m, [row[n:] for row in aug]


def scramble(K: KnotComplex, rng: random.Random, whole_space: bool = False,
             max_denominator: int = 3) -> KnotComplex:
    """K in a random rational basis, changed inside each component's (grading, z2) blocks.

    The components stay apart, but a staircase gets non-unit coefficients
    and two generators of a square that share a block get mixed, so neither
    keeps its standard form.  With ``whole_space`` the blocks are those of
    the whole space, so generators of different components that share a
    block get mixed too, which merges those components.  The generators are
    listed in a random order, so the survivor need not come first.  The
    basis change has denominators up to ``max_denominator``.
    """
    cols, inv_cols = [], []
    for comp in [K.space.generators] if whole_space else components(K):
        blocks = {}
        for g in comp:
            blocks.setdefault((g.alex, g.z2), []).append(g.gid)
        for ids in blocks.values():
            for mat, out in zip(_random_invertible(len(ids), rng, max_denominator),
                                (cols, inv_cols)):
                out.extend((ids[i], ids[j], c) for i, row in enumerate(mat)
                           for j, c in enumerate(row) if c)
    sp = K.space
    p, p_inv = sparse_map(sp, sp, cols), sparse_map(sp, sp, inv_cols)
    shuffled = GradedSpace(tuple(rng.sample(sp.generators, sp.dim)))
    d_plus, d_minus = (sparse_map(shuffled, shuffled, compose(p_inv, compose(d, p)).entries)
                       for d in (K.d_plus, K.d_minus))
    meta = tuple(sorted({**K.meta_dict(), "name": f"scrambled({K.name})"}.items()))
    return KnotComplex(shuffled, d_plus, d_minus, genus=K.genus, tau=K.tau, meta=meta)


MODELS = random_thin_models(50) + thin_catalog()


@pytest.mark.parametrize("K", MODELS, ids=lambda K: K.name)
def test_structural_invariants(K):
    report = validate(K)
    assert report.ok, report.violations
    # total differential squares to zero on every generator
    for gid in K.space.ids:
        once = {}
        for m in (K.d_plus, K.d_minus):
            for tgt, val in column(m, gid).items():
                once[tgt] = once.get(tgt, Fraction(0)) + val
        twice = {}
        for src, c in once.items():
            for m in (K.d_plus, K.d_minus):
                for tgt, val in column(m, src).items():
                    acc = twice.get(tgt, Fraction(0)) + c * val
                    if acc == 0:
                        twice.pop(tgt, None)
                    else:
                        twice[tgt] = acc
        assert not twice, f"(d+ + d-)^2 != 0 on {gid}"
    dims = dims_by_grading(K.space)
    assert all(dims.get(-a, 0) == n for a, n in dims.items())
    chi = chi_graded(K)
    delta = K.delta()
    assert chi == delta or {p: -c for p, c in chi.items()} == delta
    assert compute_tau(K) == K.tau


@pytest.mark.parametrize("K", MODELS, ids=lambda K: K.name)
def test_mirror_is_involution(K):
    M = mirror(mirror(K))
    assert M.space == K.space
    assert M.d_plus == K.d_plus and M.d_minus == K.d_minus


SURGERY_SAMPLE = MODELS[:20] + [K for K in thin_catalog() if K.genus <= 3]


@pytest.mark.parametrize("K", SURGERY_SAMPLE, ids=lambda K: K.name)
def test_surgery_properties(K):
    for p, q in ((1, 1), (-1, 1), (3, 1), (1, 2)):
        dim = surgery_dim(K, p, q).dimension
        # closed thin formula: total dimension stands in for the coefficient norm
        assert dim == thin_surgery_formula(K.dim, K.tau, p, q), (K.name, p, q)
        assert dim >= abs(p) and (dim - p) % 2 == 0
        assert surgery_dim(mirror(K), -p, q).dimension == dim


@pytest.mark.parametrize("K", MODELS[:12], ids=lambda K: K.name)
def test_window_stability_random(K):
    for p, q in ((1, 1), (-2, 1), (1, 2)):
        base = build_cone_problem(K, p, q).dimension()
        assert build_cone_problem(K, p, q, window_margin=4).dimension() == base


@pytest.mark.parametrize("K", MODELS[:12], ids=lambda K: K.name)
def test_scalar_independence_random(K):
    rng = random.Random(99)
    prob = build_cone_problem(K, -1, 1)
    base = prob.dimension()
    for src in h_sources(prob)[:4]:
        c = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
        assert elimination_dimension(K, prob, {src: c}) == base


@pytest.mark.parametrize("K", MODELS[:10], ids=lambda K: K.name)
def test_zero_surgery_support(K):
    table = zero_surgery_dims(K, span=K.genus + 1)
    for s, d in table.items():
        if abs(s) >= K.genus:
            assert d in (0, None)


def test_catalog_norm_equals_dimension():
    for K in thin_catalog():
        assert K.dim == poly_norm(K.delta())


def _paired_squares(picked) -> list:
    """A square at (s, sign) for each pick, and its mirror image at -s when s != 0."""
    return [SquareSpec(t, sign) for s, sign in picked for t in ((s, -s) if s else (0,))]


@st.composite
def scrambled_thin_models(draw):
    """A staircase plus squares at random levels and signs, in a random basis (see ``scramble``).

    A square off level 0 comes with its mirror image at the opposite level,
    so the graded dimensions stay symmetric.
    """
    tau = draw(st.integers(-3, 3))
    squares = _paired_squares(draw(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from((-1, 1))), max_size=6)))
    K = assemble(StaircaseSpec(tau), squares, name="hypothesis")
    return scramble(K, random.Random(draw(st.integers(0, 2 ** 32))))


@st.composite
def slopes(draw):
    q = draw(st.integers(1, 6))
    p = draw(st.integers(-12, 12).filter(lambda p: p != 0 and math.gcd(abs(p), q) == 1))
    return p, q


@settings(max_examples=60, deadline=None)
@given(scrambled_thin_models(), st.lists(slopes(), min_size=1, max_size=4))
def test_split_models_match_the_thin_formula(K, picked):
    assert validate(K).ok
    assert sum(1 for comp in components(K) if sum((-1) ** g.z2 for g in comp)) == 1
    for p, q in picked:
        assert surgery_dim(K, p, q).dimension == thin_surgery_formula(K.dim, K.tau, p, q), (p, q)


@settings(max_examples=40, deadline=None)
@given(scrambled_thin_models(), st.booleans(), st.data())
def test_levels_match_the_cone_on_scrambled_models(K, mirrored, data):
    """The answer from the decomposition equals the ranked cone, at q up to 50."""
    K = mirror(K) if mirrored else K
    q = data.draw(st.integers(1, 50))
    bound = 4 * max(K.genus, 1) * q + 3
    p = data.draw(st.integers(1, bound)) * data.draw(st.sampled_from((-1, 1)))
    d = math.gcd(abs(p), q)
    p, q = p // d, q // d
    assert surgery_dim(K, p, q).dimension == build_cone_problem(K, p, q).dimension(), (p, q)


@st.composite
def whole_space_models(draw):
    """(tau, squares, K): K is ``assemble(StaircaseSpec(tau), squares)`` in a whole-space basis.

    Up to six squares of both signs, in mirror pairs off level 0, at levels
    -2..2, so every model stays small enough to rank its cone quickly.
    """
    tau = draw(st.integers(-3, 3))
    squares = _paired_squares(draw(st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from((-1, 1))), max_size=3)))
    K = assemble(StaircaseSpec(tau), squares, name="hypothesis")
    return tau, squares, scramble(K, random.Random(draw(st.integers(0, 2 ** 32))), whole_space=True)


BASIS_SLOPES = ((1, 1), (-1, 1), (3, 2), (-2, 3))


@settings(max_examples=40, deadline=None)
@given(whole_space_models())
def test_answers_do_not_depend_on_the_basis(model):
    """decompose, surgery_dim, the zero-surgery table and the scan see through a change of basis."""
    tau, squares, K = model
    assert decompose(K) == (tau, dict(Counter((sq.s, sq.sign) for sq in squares)))
    for p, q in BASIS_SLOPES:
        assert surgery_dim(K, p, q).dimension == build_cone_problem(K, p, q).dimension(), (p, q)
    for span in (None, K.genus + 1):
        assert zero_surgery_dims(K, span=span) == zero_surgery_levels(K, span=span), span
    assert almost_lspace_scan(K) == almost_lspace_scan(assemble(StaircaseSpec(tau), squares))


def _broken(K: KnotComplex, how: str, grading: int) -> KnotComplex:
    """K as it is ("none"), or with one fault: a free generator, a zero-Euler pair, a shifted tau.

    A pair is x -> y one grading up under d+ (or x -> y one grading down
    under d-), from ``grading``, together with its mirror image, so the
    graded dimensions stay symmetric; the genus grows to cover it.
    """
    if how == "none":
        return K
    if how == "tau":
        return KnotComplex(K.space, K.d_plus, K.d_minus, genus=K.genus, tau=K.tau + (grading or 1))
    gens = [(g.gid, g.alex, g.z2) for g in K.space.generators]
    d_plus, d_minus = list(K.d_plus.entries), list(K.d_minus.entries)
    genus = K.genus
    if how == "free":
        gens.append(("free", 0, 0))
    else:
        step, arrows = (1, d_plus) if how == "plus-pair" else (-1, d_minus)
        for name, a in (("x", grading), ("w", -grading - step)):
            gens += [(f"{name}0", 2 * a, 0), (f"{name}1", 2 * (a + step), 1)]
            arrows.append((f"{name}1", f"{name}0", 1))
        genus = max(genus, abs(grading), abs(grading + step))
    sp = space(gens)
    return KnotComplex(sp, sparse_map(sp, sp, d_plus), sparse_map(sp, sp, d_minus),
                       genus=genus, tau=K.tau)


@settings(max_examples=60, deadline=None)
@example(-2, [(1, 1)], "none", 0, 1)
@example(1, [], "free", 0, 2)
@example(2, [(0, -1)], "plus-pair", 1, 3)
@example(-1, [(1, -1)], "minus-pair", -2, 4)
@example(0, [(2, 1)], "tau", -1, 5)
@given(st.integers(-3, 3),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-1, 1))), max_size=3),
       st.sampled_from(("none", "free", "plus-pair", "minus-pair", "tau")),
       st.integers(-3, 3), st.integers(0, 2 ** 32))
def test_validate_agrees_with_the_homology_oracle(tau, picked, how, grading, seed):
    """validate(K).ok exactly when H(d-) and H(d+) are 1-dimensional and tau is recorded right.

    Each model is a staircase plus squares, possibly broken (see ``_broken``),
    in a whole-space basis, so the fault is mixed into the blocks it shares.
    """
    K = _broken(assemble(StaircaseSpec(tau), _paired_squares(picked)), how, grading)
    K = scramble(K, random.Random(seed), whole_space=True)
    hm = homology_two_pass(K.space, K.d_minus)
    hp = homology_two_pass(K.space, K.d_plus)
    holds = hm.dim == 1 and hp.dim == 1 and compute_tau(K) == K.tau
    assert validate(K).ok == holds, (how, validate(K).violations)
    assert holds == (how == "none")


@settings(max_examples=60, deadline=None)
@given(scrambled_thin_models())
def test_knot_spec_round_trip(K):
    """The explicit knot-spec format keeps a model exactly, non-unit rational coefficients too."""
    for M in (K, mirror(K)):
        back = parse_knot_spec(json.loads(json.dumps(knot_spec_dict(M))))
        assert back.space == M.space
        assert back.d_plus == M.d_plus and back.d_minus == M.d_minus
        assert (back.genus, back.tau) == (M.genus, M.tau)
