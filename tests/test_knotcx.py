"""Knot models: staircases, squares, thin synthesis, mirror, tau, validation, decomposition."""
import random
import re
from collections import Counter

import pytest

from knotsurgery import knotcx
from knotsurgery.catalog import get_knot, knot_names, thin_catalog
from knotsurgery.knotcx import (
    KnotComplex,
    ModelError,
    SquareSpec,
    StaircaseSpec,
    assemble,
    build_square,
    build_staircase,
    chi_graded,
    decompose,
    mirror,
    parse_knot_spec,
    poly_from_pairs,
    poly_norm,
    thin_decomposition,
    thin_from_alexander,
    validate,
)
from knotsurgery.linalg import space, sparse_map
from knot_helpers import (
    TWO_SURVIVORS_SPEC,
    graded_signature,
    half_level_squares_model,
    knot_spec_dict,
)
from level_oracle import compute_tau, homologies
from test_properties import random_thin_models, scramble
from linalg_helpers import homology_two_pass, is_zero, zero_map
from map_reads import column


def test_staircase_zero_is_single_generator():
    K = build_staircase(0)
    assert K.dim == 1 and K.genus == 0 and K.tau == 0
    assert is_zero(K.d_plus) and is_zero(K.d_minus)


def test_staircase_one_matches_diagram():
    # a1@-1, a2@0, a3@1 with d+(a2)=a3 and d-(a2)=a1.
    K = build_staircase(1)
    assert [(g.gid, g.alex // 2) for g in K.space.generators] == [("a1", -1), ("a2", 0), ("a3", 1)]
    assert column(K.d_plus, "a2") == {"a3": 1}
    assert column(K.d_minus, "a2") == {"a1": 1}


def test_staircase_negative_two():
    # Five generators at gradings 2,1,0,-1,-2; lowering homology survives at -2.
    K = build_staircase(-2)
    assert sorted(g.alex // 2 for g in K.space.generators) == [-2, -1, 0, 1, 2]
    hm, hp = homologies(K)
    assert hm.dim == 1 and hm.classes[0].alex // 2 == -2
    assert hp.dim == 1 and hp.classes[0].alex // 2 == 2


def test_square_fragment_anticommutes():
    frag = build_square(0, sign=-1)
    gradings = sorted(a // 2 for _, a, _ in frag["generators"])
    assert gradings == [-1, 0, 0, 1]
    # forced by the -1 coefficient: d+d-(a) = d, d-d+(a) = -d
    K = assemble(StaircaseSpec(0), [SquareSpec(0, -1)])
    assert validate(K).ok


def test_figure_eight_is_staircase_plus_square():
    K = get_knot("figure-eight")
    assert K.dim == 5
    assert K.tau == 0 and K.genus == 1
    assert chi_graded(K) == {1: -1, 0: 3, -1: -1}


def test_thin_5_2_bar():
    K = thin_from_alexander(poly_from_pairs([(2, 1), (-3, 0), (2, -1)]), 1)
    assert K.dim == 7
    assert K.tau == 1 and K.genus == 1


def test_thin_decomposition_splits():
    from knotsurgery.knotcx import thin_decomposition
    stair, squares = thin_decomposition({1: -1, 0: 3, -1: -1}, 0)
    assert stair == StaircaseSpec(0) and squares == (SquareSpec(0, -1),)
    stair, squares = thin_decomposition({1: 2, 0: -3, -1: 2}, 1)
    assert stair == StaircaseSpec(1) and squares == (SquareSpec(0, 1),)
    stair, squares = thin_decomposition({2: 1, 1: -1, 0: 1, -1: -1, -2: 1}, 2)
    assert stair == StaircaseSpec(2) and squares == ()
    # squares off center come in mirror pairs
    stair, squares = thin_decomposition({2: 1, 1: -2, 0: 3, -1: -2, -2: 1}, 0)
    assert stair == StaircaseSpec(0)
    assert squares == (SquareSpec(-1, 1), SquareSpec(1, 1))


def test_thin_t2_5_pure_staircase():
    K = thin_from_alexander(poly_from_pairs([(1, 2), (-1, 1), (1, 0), (-1, -1), (1, -2)]), 2)
    assert K.dim == 5 and K.genus == 2 and K.tau == 2


def test_thin_attaches_the_normalised_polynomial():
    # the input's zero term and its sign at t=1 leave no trace in the model
    trefoil = get_knot("trefoil")
    for delta in ({1: 1, 0: -1, -1: 1, 2: 0}, {1: -1, 0: 1, -1: -1}):
        K = thin_from_alexander(delta, 1, name="trefoil-right")
        assert K == trefoil and K.delta() == {1: 1, 0: -1, -1: 1}


def test_thin_rejects_wrong_norm():
    # norm 7 with tau = 0 would need a non-integer number of squares
    with pytest.raises(ModelError, match="not a thin complex"):
        thin_from_alexander(poly_from_pairs([(2, 1), (-3, 0), (2, -1)]), 0)


def test_thin_rejects_non_symmetric():
    with pytest.raises(ModelError, match="not symmetric"):
        thin_from_alexander(poly_from_pairs([(1, 1), (-1, 0)]), 0)


def test_thin_rejects_bad_value_at_one():
    with pytest.raises(ModelError, match="at t=1"):
        thin_from_alexander(poly_from_pairs([(1, 1), (0, 0), (1, -1)]), 0)


def test_mirror_staircase():
    assert graded_signature(mirror(build_staircase(1))) == graded_signature(build_staircase(-1))


def test_mirror_figure_eight_self():
    K = get_knot("figure-eight")
    M = mirror(K)
    assert graded_signature(M) == graded_signature(K)
    assert compute_tau(M) == 0


def test_mirror_involution_exact():
    K = get_knot("5_2-bar")
    M = mirror(mirror(K))
    assert M.space == K.space
    assert M.d_plus == K.d_plus and M.d_minus == K.d_minus
    assert M.tau == K.tau


def test_mirror_reflects_the_attached_polynomial():
    # An asymmetric chi: squares of opposite signs at -1 and +1.  The mirror
    # negates every grading, so it carries the reflected polynomial.
    K = assemble(StaircaseSpec(1), [SquareSpec(1, 1), SquareSpec(-1, -1)])
    M = mirror(K)
    assert M.delta() == {-e: c for e, c in K.delta().items()} != K.delta()
    assert validate(M).ok and chi_graded(M) == M.delta()
    for K in thin_catalog():  # symmetric polynomials: the meta is unchanged
        assert mirror(K).delta() == K.delta()


def test_compute_tau_catalog_values():
    assert compute_tau(get_knot("trefoil-right")) == 1
    assert compute_tau(get_knot("figure-eight")) == 0
    assert compute_tau(mirror(get_knot("t2_5"))) == -2


def test_compute_tau_rejects_fat_homology():
    sp = space([("x", 0, 0), ("y", 0, 0)])
    K = KnotComplex(sp, zero_map(sp), zero_map(sp), genus=0, tau=0)
    with pytest.raises(ModelError, match="not an S"):
        compute_tau(K)


def test_validate_catalog_all_pass():
    for K in thin_catalog():
        report = validate(K)
        assert report.ok, (K.name, report.violations)
        assert compute_tau(K) == K.tau
        assert K.dim == poly_norm(K.delta())


def test_clean_report_keeps_the_survivor_blocks():
    # H(d-) and H(d+) each live in one (doubled grading, z2) block: the
    # blocks of the survivor classes of the rational homology
    rng = random.Random(3)
    models = thin_catalog() + random_thin_models(6)
    for K0 in models + [scramble(K, rng, whole_space=True) for K in models[:8]]:
        for K in (K0, mirror(K0)):
            expected = tuple({(c.alex, c.z2): 1 for c in h.classes} for h in homologies(K))
            assert K.report.homology_blocks == expected, K.name
    assert validate(build_staircase(-2)).homology_blocks == ({(-4, 0): 1}, {(4, 0): 1})


def test_clean_report_keeps_the_block_ranks():
    # the ranks of d- and d+ out of each (doubled grading, z2) block, zeros
    # left out, as the rational oracle ranks them
    from validation_oracle import _block_ranks, _blocks
    rng = random.Random(4)
    models = thin_catalog() + random_thin_models(6)
    for K0 in models + [scramble(K, rng, whole_space=True) for K in models[:8]]:
        for K in (K0, mirror(K0)):
            expected = tuple(_block_ranks(_blocks(K), lambda gid, d=d: column(d, gid), shift)
                             for d, shift in ((K.d_minus, -2), (K.d_plus, 2)))
            assert K.report.ranks == expected, K.name
    assert validate(build_staircase(-2)).ranks == ({(0, 0): 1, (4, 0): 1}, {(-4, 0): 1, (0, 0): 1})


def test_validate_flags_bad_shift():
    K = get_knot("trefoil-right")
    # inject a d+ arrow that jumps two gradings
    bad = sparse_map(K.space, K.space, [("a3", "a1", 1)])
    K2 = KnotComplex(K.space, bad, K.d_minus, genus=K.genus, tau=K.tau, meta=K.meta)
    report = validate(K2)
    assert any("shifts grading" in v for v in report.violations)


def _explicit(gens, d_plus, d_minus, genus=1, tau=1):
    """Model from (id, grading, z2) triples and (source, target) unit arrows, not validated."""
    sp = space((gid, 2 * alex, z2) for gid, alex, z2 in gens)
    return KnotComplex(sp, sparse_map(sp, sp, [(t, s, 1) for s, t in d_plus]),
                       sparse_map(sp, sp, [(t, s, 1) for s, t in d_minus]), genus=genus, tau=tau)


STAIRCASE_ONE = ([("a1", -1, 0), ("a2", 0, 1), ("a3", 1, 0)], [("a2", "a3")], [("a2", "a1")])


def test_validate_flags_extra_generator():
    # staircase(1) plus an isolated generator: both homologies gain a class
    message = "one-differential homology dims (2, 2) differ from the ambient value 1"
    with pytest.raises(ModelError, match=re.escape(f"invalid explicit knot model: {message}")):
        parse_knot_spec(TWO_SURVIVORS_SPEC)
    gens, dp, dm = STAIRCASE_ONE
    K = _explicit(gens + [("extra", 0, 0)], dp, dm)  # the same model
    assert validate(K).violations == [message]
    with pytest.raises(ModelError, match="not an S\\^3-knot model: homology dims are d-:2, d\\+:2"):
        compute_tau(K)


def test_validate_counts_homology_of_zero_euler_components():
    # staircase(1) plus x -> y under d+ and u -> w under d-: both extra
    # components have Euler characteristic 0 but carry two classes each,
    # x, y for d- and u, w for d+.
    gens, dp, dm = STAIRCASE_ONE
    K = _explicit(gens + [("x", 0, 0), ("y", 1, 1), ("u", 0, 0), ("w", -1, 1)],
                  dp + [("x", "y")], dm + [("u", "w")])
    assert validate(K).violations == [
        "one-differential homology dims (3, 3) differ from the ambient value 1"]
    assert homology_two_pass(K.space, K.d_minus).dim == 3
    assert homology_two_pass(K.space, K.d_plus).dim == 3


def test_validate_flags_commuting_square():
    # a square whose four unit arrows commute: d+d-(a) = d-d+(a) = d
    K = _explicit([("a", 0, 0), ("b", -1, 1), ("c", 1, 1), ("d", 0, 0)],
                  [("a", "c"), ("b", "d")], [("a", "b"), ("c", "d")])
    assert validate(K).violations == ["d+d- + d-d+ != 0 (witness a)"]


def test_validate_stops_at_a_structural_fault():
    # d+ jumps two gradings; the homology checks would also fail (H(d-) has
    # both generators), but a structural fault ends the report.
    K = _explicit([("x", -1, 0), ("y", 1, 1)], [("x", "y")], [])
    assert validate(K).violations == ["d+ shifts grading of x by 2.0, expected 1"]


def test_validate_writes_far_gradings_exactly():
    # a model built in the library, past what parse_knot_spec admits: y sits
    # at the true grading 10^400, which no float holds, so the report writes
    # its halves exactly instead of raising OverflowError; ordinary halves
    # (0.5, 1.5, 2.0) are pinned by the oracle of test_integer_validation,
    # which still formats them by float division
    far = 10 ** 400
    sp = space([("x", 0, 0), ("y", 2 * far, 1)])
    K = KnotComplex(sp, sparse_map(sp, sp, [("y", "x", 1)]), zero_map(sp), genus=1, tau=0)
    assert validate(K).violations == [
        f"d+ shifts grading of x by {far}.0, expected 1",
        f"grading dims asymmetric: 1 at {far}.0 vs 0 at -{far}.0",
        f"generator beyond genus: |grading| {far}.0 > genus 1",
        "no generator at the top grading 1",
    ]


def test_validate_never_ranks_a_faulty_model(monkeypatch):
    # a grading shift, a composition and the Euler characteristic each end
    # the report before any block is ranked; a clean model ranks d-, d+ and
    # d+ d- once each
    ranked = []
    rank = knotcx.block_ranks

    def spy(cols, blocks):
        ranked.append(blocks)
        return rank(cols, blocks)

    monkeypatch.setattr(knotcx, "block_ranks", spy)
    trefoil = get_knot("trefoil")
    faulty = {
        "d+ shifts grading of x by 2.0, expected 1": _explicit([("x", -1, 0), ("y", 1, 1)],
                                                               [("x", "y")], []),
        "d+d- + d-d+ != 0 (witness a)": _explicit(
            [("a", 0, 0), ("b", -1, 1), ("c", 1, 1), ("d", 0, 0)],
            [("a", "c"), ("b", "d")], [("a", "b"), ("c", "d")]),
        "graded Euler characteristic does not match the attached polynomial": KnotComplex(
            trefoil.space, trefoil.d_plus, trefoil.d_minus, genus=trefoil.genus,
            tau=trefoil.tau, meta=get_knot("figure-eight").meta),
    }
    for message, K in faulty.items():
        assert validate(K).violations == [message]
        assert ranked == [], message
    K = assemble(StaircaseSpec(1), [SquareSpec(0, 1)])
    assert validate(K).ok
    assert ranked == [K.blocks] * 3


def test_parse_thin_spec_round_trip():
    data = {"name": "fig8", "alexander": [[-1, 1], [3, 0], [-1, -1]], "tau": 0}
    K = parse_knot_spec(data)
    assert K.dim == 5
    spec = knot_spec_dict(K)
    K2 = parse_knot_spec(spec)
    assert graded_signature(K2) == graded_signature(K)


def test_thin_idempotent_on_readback():
    for name in ("figure-eight", "5_2-bar", "t2_7", "twist(3)"):
        K = get_knot(name)
        K2 = thin_from_alexander(chi_graded(K), compute_tau(K))
        assert graded_signature(K2) == graded_signature(K)


def test_twist_knot_family():
    # t = -1 is the right trefoil, t = 1 the figure-eight, t = -2 the 5_2 mirror
    assert graded_signature(get_knot("twist(-1)")) == graded_signature(get_knot("trefoil-right"))
    assert graded_signature(get_knot("twist(1)")) == graded_signature(get_knot("figure-eight"))
    assert graded_signature(get_knot("twist(-2)")) == graded_signature(get_knot("5_2-bar"))
    assert get_knot("twist(0)").dim == 1


def test_poly_str_rendering():
    from knotsurgery.knotcx import poly_str
    assert poly_str({1: 2, 0: -3, -1: 2}) == "2*t-3+2*t^-1"
    assert poly_str({1: 1, 0: -1, -1: 1}) == "t-1+t^-1"
    assert poly_str({2: -1, 0: 5}) == "-t^2+5"
    assert poly_str({0: 1}) == "1"
    assert poly_str({}) == "0"


def test_catalog_names_resolve():
    assert "figure-eight" in knot_names()
    assert get_knot("fig8").name == "figure-eight"
    with pytest.raises(ModelError, match="unknown catalog knot"):
        get_knot("not-a-knot")


def test_catalog_models_built_once():
    assert get_knot("fig8") is get_knot("figure-eight")


def test_model_hash_is_cached_and_not_pickled():
    import pickle

    delta, tau = [(2, 1), (-3, 0), (2, -1)], 1
    K = thin_from_alexander(delta, tau, name="5_2-bar")
    field_hash = hash((K.space, K.d_plus, K.d_minus, K.genus, K.tau, K.meta))
    assert hash(K) == field_hash == hash(thin_from_alexander(delta, tau, name="5_2-bar"))
    assert K == thin_from_alexander(delta, tau, name="5_2-bar") and K != mirror(K)
    K2 = pickle.loads(pickle.dumps(K))
    assert K2 == K and hash(K2) == field_hash


def test_pickles_and_copies_carry_the_fields_alone():
    # derived state (blocks, maps, report, bend ranks, level table, mirror,
    # name) is recomputed on first use, never carried
    import copy
    import pickle

    from knotsurgery import cone

    K = KnotComplex(*get_knot("t2_11"))  # a fresh copy: no derived state yet
    fresh = pickle.dumps(K)
    answers = cone.build_cone_problem(K, 7, 3).dimension(), cone.large_surgery_dim(K, 9)
    assert K.mirrored.mirrored is K and len(K.levels) == 2 * K.genus + 3
    assert pickle.dumps(K) == fresh
    K2 = pickle.loads(fresh)
    assert K2 == K and K2.__dict__ == {}
    assert (cone.build_cone_problem(K2, 7, 3).dimension(), cone.large_surgery_dim(K2, 9)) == answers
    assert K2.levels == K.levels and K2.mirrored == K.mirrored and K2.mirrored.mirrored is K2
    for C in (copy.copy(K), copy.deepcopy(K)):
        assert C == K and C.__dict__ == {}
        assert C.levels is not K.levels and C.levels == {}
        assert C.mirrored == K.mirrored and C.mirrored.mirrored is C


def test_the_name_is_read_once_and_kept(monkeypatch):
    reads = []
    meta_dict = KnotComplex.meta_dict

    def counted(K):
        reads.append(K.meta)
        return meta_dict(K)

    delta, tau = [(2, 1), (-3, 0), (2, -1)], 1
    K = thin_from_alexander(delta, tau, name="5_2-bar")
    unnamed = KnotComplex(K.space, K.d_plus, K.d_minus, genus=K.genus, tau=K.tau)
    M, N = mirror(K), mirror(unnamed)
    monkeypatch.setattr(KnotComplex, "meta_dict", counted)
    for model, name in ((K, "5_2-bar"), (M, "mirror(5_2-bar)"), (unnamed, "<unnamed>"),
                        (N, "<unnamed>")):
        reads.clear()
        assert model.name == name == dict(model.meta).get("name", "<unnamed>")
        assert model.name == name and reads == [model.meta], name
    assert mirror(M).name == "5_2-bar"
    # the kept name is not a field: equal models stay equal, and hash equal
    fresh = thin_from_alexander(delta, tau, name="5_2-bar")
    assert "name" in K.__dict__ and "name" not in fresh.__dict__
    assert K == fresh and hash(K) == hash(fresh)


# --- decomposition -----------------------------------------------------------

def test_decompose_reads_back_the_catalog_squares():
    # each catalog model is assembled from thin_decomposition's squares; its
    # mirror has them at the negated levels with the same signs
    for K in thin_catalog():
        _, squares = thin_decomposition(K.delta(), K.tau)
        want = Counter((sq.s, sq.sign) for sq in squares)
        assert decompose(K) == (K.tau, dict(want)), K.name
        assert decompose(mirror(K)) == (-K.tau, {(-s, sign): n for (s, sign), n in want.items()})


def test_decompose_is_kept_on_the_model():
    K = assemble(StaircaseSpec(-2), [SquareSpec(1, 1), SquareSpec(-1, 1), SquareSpec(0, -1),
                                     SquareSpec(0, -1)])
    assert "report" not in K.__dict__
    assert decompose(K) is decompose(K) is K.report.decomposition
    assert decompose(K).squares == {(1, 1): 1, (-1, 1): 1, (0, -1): 2}


def test_decompose_counts_squares_at_half_integer_gradings():
    # no spec format can place a generator there, and validate rejects one
    K = half_level_squares_model()
    message = "generator 'xa' sits at a half-integer grading"
    assert validate(K).violations == [message]
    with pytest.raises(ModelError, match=f"invalid knot model: {message}$"):
        decompose(K)


def test_decompose_rejects_an_invalid_model_and_checks_the_dimension(monkeypatch):
    sp = space([("x", 0, 0), ("y", 0, 0)])
    K = KnotComplex(sp, zero_map(sp), zero_map(sp), genus=0, tau=0)
    with pytest.raises(ModelError, match="invalid knot model"):
        decompose(K)
    assert K.report.decomposition is None
    # with every d+ d- column emptied, 5 generators and no square contradict tau 0
    one_pass = knotcx._one_pass

    def without_squares(K):
        bad, squares = one_pass(K)
        return bad, {i: {} for i in squares}

    monkeypatch.setattr(knotcx, "_one_pass", without_squares)
    K = assemble(StaircaseSpec(0), [SquareSpec(0, -1)])
    message = "model dimension 5 differs from 2|tau| + 1 + 4k = 1 for tau 0 and its squares"
    assert validate(K) == ([message], None, None, None)
    with pytest.raises(ModelError, match=f"invalid knot model: {re.escape(message)}$"):
        decompose(K)
