"""One-elimination homology against the two-pass oracle in ``linalg_helpers``.

Both live in the tests: ``level_oracle.homology`` is the oracle of the
level table.  They must give the same classes (id, representative,
grading, parity), in the same order, and the same ``express``
coefficients, on seeded random differentials and on the bent complexes
of the level table.
"""
import random
from fractions import Fraction

import pytest

from knotsurgery.catalog import thin_catalog
from knotsurgery.knotcx import mirror
from knotsurgery.linalg import LinearAlgebraError, space, sparse_map
import level_oracle
from knot_helpers import squares_model
from level_oracle import bent_differential, homologies, homology, projection
from linalg_helpers import compose, homology_two_pass
from map_reads import apply, column


def _elementary(sp, i, j, c):
    """I + c e_ij and its inverse I - c e_ij (i != j)."""
    one = Fraction(1)
    diag = [(g, g, one) for g in sp.ids]
    return (sparse_map(sp, sp, diag + [(i, j, c)]), sparse_map(sp, sp, diag + [(i, j, -c)]))


def random_differential(rng):
    """A standard complex (pairs a -> b plus lone generators) conjugated by elementary moves."""
    gens, entries = [], []
    for k in range(rng.randrange(1, 5)):
        alex, z2 = 2 * rng.randrange(-2, 3), rng.randrange(2)
        gens += [(f"a{k}", alex, z2), (f"b{k}", alex - 2, 1 - z2)]
        entries.append((f"b{k}", f"a{k}", Fraction(rng.choice((-2, -1, 1, 3)))))
    gens += [(f"e{k}", 2 * rng.randrange(-2, 3), rng.randrange(2)) for k in range(rng.randrange(0, 4))]
    rng.shuffle(gens)
    sp = space(gens)
    d = sparse_map(sp, sp, entries)
    for _ in range(rng.randrange(0, 8)):
        i, j = rng.sample(sp.ids, 2)
        e, e_inv = _elementary(sp, i, j, Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4)))
        d = compose(e, compose(d, e_inv))
    return sp, d


def assert_same_homology(new, old, cycles=()):
    assert new.classes == old.classes
    assert new.space == old.space
    for z in cycles:
        assert list(new.express(z).items()) == list(old.express(z).items())


def _random_cycles(rng, sp, d, h, count=6):
    """Random combinations of class representatives plus a random boundary."""
    out = []
    for _ in range(count):
        z = {}
        for cls in h.classes:
            a = rng.randrange(-2, 3)
            for g, v in cls.rep:
                z[g] = z.get(g, Fraction(0)) + a * v
        chain = {g: Fraction(rng.randrange(-2, 3)) for g in sp.ids}
        for g, v in apply(d, {g: v for g, v in chain.items() if v}).items():
            z[g] = z.get(g, Fraction(0)) + v
        out.append({g: v for g, v in z.items() if v})
    return out


def test_random_differentials_match_the_two_pass_oracle():
    rng = random.Random(29)
    for _ in range(150):
        sp, d = random_differential(rng)
        new, old = homology(sp, d), homology_two_pass(sp, d)
        assert_same_homology(new, old, _random_cycles(rng, sp, d, new))
        for gid in sp.ids:  # a generator with a nonzero boundary is not a cycle
            if column(d, gid):
                with pytest.raises(LinearAlgebraError, match="not in ker"):
                    new.express({gid: Fraction(1)})
                with pytest.raises(LinearAlgebraError, match="not in ker"):
                    old.express({gid: Fraction(1)})


def _models():
    catalog = [M for K in thin_catalog() for M in (K, mirror(K))]
    return catalog + [squares_model(g, tau, seed) for seed, (g, tau) in
                      enumerate(((2, 1), (3, -2), (4, 0), (4, 3)))]


@pytest.mark.parametrize("K", _models(), ids=lambda K: K.name)
def test_bent_homologies_match_the_two_pass_oracle(K):
    hm_old = homology_two_pass(K.space, K.d_minus, prefix="m")
    hp_old = homology_two_pass(K.space, K.d_plus, prefix="p")
    hm, hp = homologies(K)
    assert_same_homology(hm, hm_old)
    assert_same_homology(hp, hp_old)
    for s in range(-K.genus - 2, K.genus + 3):
        d = bent_differential(K, s)
        new = homology(K.space, d, prefix=f"b{s}_")
        assert_same_homology(new, homology_two_pass(K.space, d, prefix=f"b{s}_"))
        # the images that pi_maps expresses over H(d-) and H(d+)
        for side, h_new, h_old in ((-1, hm, hm_old), (1, hp, hp_old)):
            f = projection(K, s, side)
            for cls in new.classes:
                img = apply(f, cls.rep_vec())
                assert list(h_new.express(img).items()) == list(h_old.express(img).items())


def test_each_homology_builds_one_echelon(monkeypatch):
    built = []
    init = level_oracle.Echelon.__init__

    def counting(self, row_order):
        built.append(1)
        init(self, row_order)

    monkeypatch.setattr(level_oracle.Echelon, "__init__", counting)
    rng = random.Random(3)
    for _ in range(10):
        sp, d = random_differential(rng)
        before = len(built)
        homology(sp, d)
        assert len(built) == before + 1
