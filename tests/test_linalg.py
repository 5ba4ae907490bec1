"""Exact linear algebra: sparse maps, integer ranks, and the rational homology oracle.

The integer layer of ``knotsurgery.linalg`` (``Echelon``, ``block_ranks``,
``homology``, ``induced_map_on_homology``) is tested at the end, against
the rational rank and homology with representatives of ``level_oracle``.
Expected values were computed by hand (Gaussian elimination / kernel-image
chases written out in comments) before the implementation existed.
"""
import random
from fractions import Fraction

import pytest

from knotsurgery import linalg
from knotsurgery.linalg import LinearAlgebraError, SparseExactMap, sparse_map, space
from level_oracle import Echelon, homology, induced_map_on_homology, rank
from linalg_helpers import add_maps, compose, identity_map, kernel_basis, zero_map
from map_reads import apply, column, generator, position


def test_rank_zero_map():
    sp = space([("a", 0, 0), ("b", 0, 0), ("c", 0, 0)])
    assert rank(zero_map(sp)) == 0


def test_rank_identity():
    sp = space([(f"g{i}", 0, 0) for i in range(4)])
    assert rank(identity_map(sp)) == 4


def test_rank_single_relation():
    # a |-> c + b on span{a..e}: one nonzero column, rank 1 by inspection.
    sp = space([(g, 0, 0) for g in "abcde"])
    m = sparse_map(sp, sp, [("c", "a", 1), ("b", "a", 1)])
    assert rank(m) == 1


def test_rank_plus_kernel_is_source_dim_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 7)
        m_dim = rng.randrange(1, 7)
        src = space([(f"s{i}", 0, 0) for i in range(n)])
        tgt = space([(f"t{i}", 0, 0) for i in range(m_dim)])
        entries = {}
        for _ in range(rng.randrange(0, 2 * n * m_dim)):
            key = (f"t{rng.randrange(m_dim)}", f"s{rng.randrange(n)}")
            entries[key] = Fraction(rng.randrange(-3, 4))
        f = sparse_map(src, tgt, [(t, s, v) for (t, s), v in entries.items() if v != 0])
        assert rank(f) + len(kernel_basis(f)) == n


def test_structural_error_unknown_id():
    sp = space([("a", 0, 0)])
    with pytest.raises(LinearAlgebraError):
        sparse_map(sp, sp, [("a", "nope", 1)])


def test_duplicate_entry_rejected():
    sp = space([("a", 0, 0), ("b", 0, 0)])
    with pytest.raises(LinearAlgebraError):
        sparse_map(sp, sp, [("b", "a", 1), ("b", "a", 2)])


def _figure_eight_space_and_diffs():
    """Five-generator model: lone generator e plus a square a,b,c,d.

    d+: a -> c, b -> d        (raises the doubled grading by 2)
    d-: a -> b, c -> -d       (lowers it by 2)
    """
    sp = space([
        ("a", 0, 0), ("b", -2, 1), ("c", 2, 1), ("d", 0, 0), ("e", 0, 0),
    ])
    dp = sparse_map(sp, sp, [("c", "a", 1), ("d", "b", 1)])
    dm = sparse_map(sp, sp, [("b", "a", 1), ("d", "c", -1)])
    return sp, dp, dm


def test_homology_figure_eight_plus_differential():
    # ker d+ = {c, d, e}, im d+ = {c, d}: one class, generated by e at grading 0.
    sp, dp, _ = _figure_eight_space_and_diffs()
    h = homology(sp, dp)
    assert h.dim == 1
    assert h.classes[0].alex == 0
    assert h.classes[0].rep_vec() == {"e": Fraction(1)}


def test_homology_zero_differential_returns_space():
    sp = space([("x", 2, 0), ("y", -2, 1)])
    h = homology(sp, zero_map(sp))
    assert h.dim == 2
    assert sorted(c.alex for c in h.classes) == [-2, 2]


def test_homology_acyclic_pair():
    sp = space([("a", 0, 0), ("b", 2, 1)])
    d = sparse_map(sp, sp, [("b", "a", 1)])
    assert homology(sp, d).dim == 0


def test_homology_rejects_non_differential():
    sp = space([("a", 0, 0), ("b", 0, 1), ("c", 0, 0)])
    d = sparse_map(sp, sp, [("b", "a", 1), ("c", "b", 1)])
    with pytest.raises(LinearAlgebraError, match="not a differential"):
        homology(sp, d)


def test_homology_dim_independent_of_generator_order():
    sp, dp, dm = _figure_eight_space_and_diffs()
    bent = add_maps(dp, dm)  # not a differential candidate in general; here d+d- cancels
    rng = random.Random(3)
    base = homology(sp, dp).dim
    gens = list(sp.generators)
    for _ in range(5):
        rng.shuffle(gens)
        sp2 = space([(g.gid, g.alex, g.z2) for g in gens])
        dp2 = sparse_map(sp2, sp2, [(t, s, v) for t, s, v in dp.entries])
        assert homology(sp2, dp2).dim == base
    del bent


def test_induced_map_identity():
    sp, dp, _ = _figure_eight_space_and_diffs()
    hp = homology(sp, dp)
    ind = induced_map_on_homology(identity_map(sp), dp, dp, hp, hp)
    assert rank(ind) == hp.dim


def test_induced_map_bent_projections_figure_eight():
    # Bent complex at level 1 (doubled 2): differential sends a |-> b, c |-> -d.
    # Its homology is one class [e].  Projecting to the low side (gradings <= 2,
    # i.e. everything) then to d- homology keeps [e] (rank 1); projecting to the
    # high side (gradings >= 2, only c) kills it (rank 0).
    sp, dp, dm = _figure_eight_space_and_diffs()
    bent = sparse_map(sp, sp, [("b", "a", 1), ("d", "c", -1)])
    hbent = homology(sp, bent)

    keep_low = sparse_map(sp, sp, [(g, g, 1) for g in ["a", "b", "d", "e"] + ["c"]
                                   if generator(sp, g).alex <= 2])
    v = induced_map_on_homology(keep_low, bent, dm, hbent, homology(sp, dm))
    assert rank(v) == 1

    keep_high = sparse_map(sp, sp, [(g, g, 1) for g in sp.ids if generator(sp, g).alex >= 2])
    h = induced_map_on_homology(keep_high, bent, dp, hbent, homology(sp, dp))
    assert rank(h) == 0


def test_induced_map_rejects_non_chain_map():
    sp = space([("a", 0, 0), ("b", 2, 1)])
    d = sparse_map(sp, sp, [("b", "a", 1)])
    f = sparse_map(sp, sp, [("a", "b", 1)])
    with pytest.raises(LinearAlgebraError, match="not a chain map"):
        induced_map_on_homology(f, d, zero_map(sp), homology(sp, d), homology(sp, zero_map(sp)))


def test_induced_map_rejects_mismatched_spaces():
    x = space([("a", 0, 0)])
    y = space([("b", 0, 0)])
    f = sparse_map(x, y, [("b", "a", 1)])
    hx, hy = homology(x, zero_map(x)), homology(y, zero_map(y))
    with pytest.raises(LinearAlgebraError, match="does not map"):
        induced_map_on_homology(f, zero_map(y), zero_map(y), hx, hy)


def test_quasi_isomorphism_induces_full_rank():
    # Acyclic-cone fixture: X = (a -> b) + (c), Y = (c'); f kills the acyclic
    # pair and matches c to c'.  f is a quasi-isomorphism, so the induced map
    # must have full rank 1.
    x = space([("a", 0, 0), ("b", 2, 1), ("c", 0, 0)])
    y = space([("c'", 0, 0)])
    dx = sparse_map(x, x, [("b", "a", 1)])
    dy = zero_map(y)
    f = sparse_map(x, y, [("c'", "c", 1)])
    ind = induced_map_on_homology(f, dx, dy, homology(x, dx), homology(y, dy))
    assert rank(ind) == 1
    assert ind.source.dim == 1 and ind.target.dim == 1


def test_express_tracks_boundaries():
    sp, dp, _ = _figure_eight_space_and_diffs()
    h = homology(sp, dp)
    # e + (boundary c) is the same class as e
    coeffs = h.express({"e": Fraction(1), "c": Fraction(5)})
    assert coeffs == {h.classes[0].cid: Fraction(1)}


def test_echelon_reduce_usage():
    # usage is keyed by the pivot row of each stored vector it used
    ech = Echelon(["r0", "r1", "r2"])
    assert ech.insert({"r0": Fraction(1), "r1": Fraction(1)}) == "r0"
    res, usage = ech.reduce({"r0": Fraction(2), "r1": Fraction(2)})
    assert res == {} and usage == {"r0": Fraction(2)}


# --- the column index and its id-keyed reads (map_reads) against a plain scan --

def _random_map(rng, src, tgt):
    entries = {}
    for _ in range(rng.randrange(0, 2 * src.dim * tgt.dim + 1)):
        key = (rng.choice(tgt.ids), rng.choice(src.ids))
        entries[key] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    return sparse_map(src, tgt, [(t, s, v) for (t, s), v in entries.items() if v != 0])


def _scan_column(m, gid):
    return {t: v for t, s, v in m.entries if s == gid}


def _scan_apply(m, vec):
    out = {}
    for t, s, v in m.entries:
        if s in vec:
            out[t] = out.get(t, Fraction(0)) + vec[s] * v
    return {t: v for t, v in out.items() if v != 0}


def test_indexed_map_matches_entry_scan_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (space([(f"{x}{i}", 0, 0) for i in range(rng.randrange(1, 6))])
                   for x in "abc")
        f, g = _random_map(rng, a, b), _random_map(rng, b, c)
        for gid in a.ids:
            assert column(f, gid) == _scan_column(f, gid)
        vec = {gid: Fraction(rng.randrange(-2, 3)) for gid in a.ids}
        vec = {k: v for k, v in vec.items() if v != 0}
        assert apply(f, vec) == _scan_apply(f, vec)
        gf = compose(g, f)
        assert gf.source == a and gf.target == c
        want = {(t, s): v for s in a.ids for t, v in _scan_apply(g, _scan_column(f, s)).items()}
        assert {(t, s): v for t, s, v in gf.entries} == want


def test_column_is_a_copy():
    sp = space([("a", 0, 0), ("b", 2, 1)])
    m = sparse_map(sp, sp, [("b", "a", 1)])
    col = column(m, "a")
    col["a"] = Fraction(7)
    col.pop("b")
    assert column(m, "a") == {"b": Fraction(1)}
    assert apply(m, {"a": Fraction(1)}) == {"b": Fraction(1)}


def test_columns_are_keyed_by_position():
    sp = space([("a", 0, 0), ("b", 2, 1), ("c", 4, 0)])
    m = sparse_map(sp, sp, [("c", "b", 2), ("b", "a", 1), ("a", "b", Fraction(1, 2))])
    assert m.columns == {0: {1: 1}, 1: {2: 2, 0: Fraction(1, 2)}, 2: {}}
    assert list(column(m, "b")) == ["c", "a"]
    assert [position(sp, g) for g in "abc"] == [0, 1, 2]


def test_an_unknown_source_id_raises():
    sp = space([("a", 0, 0), ("b", 2, 1)])
    m = sparse_map(sp, sp, [("b", "a", 1)])
    for read in (lambda: column(m, "typo"), lambda: apply(m, {"a": 1, "typo": 1})):
        with pytest.raises(LinearAlgebraError, match="unknown generator id 'typo'"):
            read()


def test_generator_lookup():
    sp = space([("a", 0, 0), ("b", 2, 1)])
    assert generator(sp, "b").alex == 2
    assert sp.ids == ("a", "b")
    with pytest.raises(LinearAlgebraError, match="unknown generator id 'nope'"):
        generator(sp, "nope")


@pytest.mark.parametrize("entries, message", [
    ([("nope", "a", 1)], "unknown target generator"),
    ([("b", "a", 0)], "explicit zero entry"),
])
def test_map_construction_errors(entries, message):
    # unknown source ids and duplicate entries have their own tests above
    sp = space([("a", 0, 0), ("b", 2, 1)])
    with pytest.raises(LinearAlgebraError, match=message):
        SparseExactMap(sp, sp, tuple((t, s, Fraction(v)) for t, s, v in entries))


# --- integer ranks: the one eliminator, dim H per block, induced ranks --------

def _integer_columns(m):
    """m's columns as {index: {index: int}}, its entries times the LCM of their denominators."""
    from math import lcm
    scale = lcm(*(v.denominator for _, _, v in m.entries if type(v) is not int))
    tgt = {gid: i for i, gid in enumerate(m.target.ids)}
    return {s: {tgt[t]: int(v * scale) for t, v in column(m, gid).items()}
            for s, gid in enumerate(m.source.ids)}


def test_integer_echelon_rank_equals_the_rational_rank_random():
    rng = random.Random(31)
    for _ in range(200):
        src = space([(f"s{i}", 0, 0) for i in range(rng.randrange(1, 8))])
        tgt = space([(f"t{i}", 0, 0) for i in range(rng.randrange(1, 8))])
        f = _random_map(rng, src, tgt)
        cols = _integer_columns(f)
        assert linalg.Echelon().reduce(cols.values()) == rank(f)
        assert all(cols[i] == _integer_columns(f)[i] for i in cols)  # the vectors are unchanged


def test_integer_echelon_stores_coprime_vectors():
    ech = linalg.Echelon()
    assert ech.reduce([{0: 4, 2: 6}]) == 1
    assert ech.reduce([{0: -6, 2: -9}]) == 1  # a multiple of the stored vector
    assert ech.reduce([{0: 3, 1: 5}]) == 2
    # 2 (3, 5, 0) - 3 (2, 0, 3) = (0, 10, -9), stored on its least key
    assert ech._pivots == {0: {0: 2, 2: 3}, 1: {1: 10, 2: -9}}
    assert linalg.Echelon().reduce([{5: 7}, {5: -1}, {}]) == 1


def test_block_ranks_rank_each_block_apart():
    # keys 0, 1 in block A map onto the same vector; key 2 in block B is free
    cols = {0: {3: 2}, 1: {3: -4}, 2: {4: 1, 5: 1}, 3: {}}
    blocks = {"A": [0, 1], "B": [2], "C": [3]}
    assert linalg.block_ranks(cols, blocks) == {"A": 1, "B": 1}


def test_homology_per_block_from_the_ranks():
    # the figure-eight's d+ by blocks (doubled grading, z2): a@(0,0) -> c@(2,1), b@(-2,1) -> d@(0,0);
    # e@(0,0) is left, and a and d share a block: dim H is 1 there, 0 elsewhere
    sizes = {(0, 0): 3, (2, 1): 1, (-2, 1): 1}
    ranks = {(0, 0): 1, (-2, 1): 1}
    assert linalg.homology(sizes, ranks, 2) == {(0, 0): 1}
    assert linalg.homology(sizes, {}, 2) == sizes  # the zero differential


def _graded(cols, block_of):
    """(keys by block, ranks out of each block, blocks where H is nonzero) of a complex."""
    blocks = {}
    for key, block in block_of.items():
        blocks.setdefault(block, []).append(key)
    ranks = linalg.block_ranks(cols, blocks)
    sizes = {block: len(keys) for block, keys in blocks.items()}
    return blocks, ranks, set(linalg.homology(sizes, ranks, 2))


def _target(f, cols, block_of):
    """The target (f, cols, keys by block, blocks where H is nonzero) of a chain map f."""
    blocks, _, nonzero = _graded(cols, block_of)
    return f, cols, blocks, nonzero


def test_induced_rank_from_the_cone_matches_the_oracle_on_bent_projections():
    # the figure-eight bent at level 1 (doubled 2), projected to the low side
    # into (C, d-) and to the high side into (C, d+): ranks 1 and 0 (see
    # test_induced_map_bent_projections_figure_eight); the targets keep the
    # generators' indices and are graded by 2 - alex and alex - 2, so that
    # each projection keeps the block and each differential raises it by 2
    sp, dp, dm = _figure_eight_space_and_diffs()
    bent = sparse_map(sp, sp, [("b", "a", 1), ("d", "c", -1)])
    gens = list(enumerate(sp.generators))
    a_cols = _integer_columns(bent)
    a_blocks, a_ranks, _ = _graded(a_cols, {i: (abs(g.alex - 2), g.z2) for i, g in gens})
    minus, plus = _integer_columns(dm), _integer_columns(dp)
    low = {i: {i: 1} if g.alex <= 2 else {} for i, g in gens}
    high = {i: {i: 1} if g.alex >= 2 else {} for i, g in gens}
    low_target = _target(low, minus, {i: (2 - g.alex, g.z2) for i, g in gens})
    high_target = _target(high, plus, {i: (g.alex - 2, g.z2) for i, g in gens})
    assert linalg.induced_map_on_homology(a_cols, a_blocks, a_ranks, [low_target]) == 1
    assert linalg.induced_map_on_homology(a_cols, a_blocks, a_ranks, [high_target]) == 0


def test_induced_rank_of_a_quasi_isomorphism_is_full():
    # X = (a -> b) + (c), Y = (c'); f kills the acyclic pair and matches c to
    # c' (see test_quasi_isomorphism_induces_full_rank): rank 1
    d_src = {0: {1: 1}, 1: {}, 2: {}}
    d_tgt = {0: {}}
    f = {0: {}, 1: {}, 2: {0: 1}}
    src_blocks = {(0, 0): [0, 2], (2, 1): [1]}
    tgt_blocks = {(0, 0): [0]}
    for g, rank in ((f, 1), ({0: {}, 1: {}, 2: {}}, 0)):
        target = (g, d_tgt, tgt_blocks, {(0, 0)})
        assert linalg.induced_map_on_homology(d_src, src_blocks, {(0, 0): 1}, [target]) == rank


def test_induced_rank_rejects_a_non_chain_map():
    # a -> b under d_src, zero d_tgt, and f(b) = b': f(d(a)) = b' but d_tgt(f(a)) = 0
    d_src = {0: {1: 1}, 1: {}}
    d_tgt = {2: {}, 3: {}}
    f = {0: {}, 1: {3: 1}}
    target = (f, d_tgt, {(0, 0): [2], (2, 1): [3]}, {(0, 0), (2, 1)})
    with pytest.raises(LinearAlgebraError, match=r"not a chain map: \(f o d - d o f\)\(0\)"):
        linalg.induced_map_on_homology(d_src, {(0, 0): [0], (2, 1): [1]}, {(0, 0): 1}, [target])
