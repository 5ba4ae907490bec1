"""Exterior-algebra models for surgeries on connected sums of Borromean knots.

Nonzero integral surgeries on the g-fold connected sum give circle bundles
over a genus-g surface; adding lens-space core-knot summands gives Seifert
fibered spaces with nonzero orbifold degree.  All differentials vanish, so
the truncated surgery cone is assembled from monomial submodules of the
exterior algebra on 2g generators: the image at each retained slot is the
span of monomials of degree at least

    min(g - s0(t),  g + s0(t - u))

where s0 collapses a refined lattice index to the base level and u is the
total slope numerator.  The two halves are the low- and high-side
projection images; both are monomial submodules of the same flag, so their
sum is again one.  For Seifert inputs this index law is an extrapolation of
the circle-bundle block computation and is gated by the regression tests
against the unfibered/circle-bundle values; treat it as experimental.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import comb
from typing import Iterable, Optional

from .cone import PreconditionError, check_lattice_slots

# Size limits, checked before any work starts.  The exterior cone sums each
# residue class at once, so its cost grows about as genus + prod(v_i): on a
# 2-vCPU host the module pathway takes 2 ms at genus 200 and a genus-2 base
# with prod(v_i) = 96441 takes 0.08 s, most of it building the offsets.
# cone.MAX_LATTICE_SLOTS still bounds the window, checked on
# (2W + 1) * |offsets| slots (|offsets| = prod(v_i), W >= genus) before each
# cone; that base is inside all three limits.
MAX_GENUS = 200
MAX_MULTIPLICITY_PRODUCT = 10 ** 5


def _check_genus(g: int):
    if g > MAX_GENUS:
        raise PreconditionError(f"genus {g} exceeds the limit MAX_GENUS = {MAX_GENUS}")


def monomial_dim(g: int, k: int) -> int:
    """Dimension of the degree->=k submodule: sum of binomials C(2g, j), j >= k."""
    if k <= 0:
        k = 0
    if k > 2 * g:
        return 0
    return sum(comb(2 * g, j) for j in range(k, 2 * g + 1))


# --- truncated cone over the exterior-algebra model -------------------------

def _residue_classes(p: int, u: int, offset_map: dict, lo: int, hi: int):
    """(first, last, c) for each residue class of lattice slots in lo..hi.

    The slots of the class of offset off are sigma = off + 2p s: sigma
    collapses to the low level s, and sigma - 2u to the high level s + c,
    where c = (off - 2u - off') / 2p is constant on the class, off' being
    the offset of the residue of off - 2u.  The class meets lo..hi at
    first <= s <= last.
    """
    two_p, two_u = 2 * p, 2 * u
    for off in offset_map.values():
        t = off - two_u
        yield -((off - lo) // two_p), (hi - off) // two_p, (t - offset_map[t % two_p]) // two_p


def _large_applicable(g: int, p: int, u: int, offset_map: dict) -> bool:
    """Whether the direct-sum shortcut is valid for total slope u.

    True when no lattice slot lands strictly between the projection bands,
    i.e. every slot has its low collapse at the genus or beyond, or its
    shifted collapse at minus the genus or below.  For a plain circle bundle
    this reduces to u >= 2g - 1.  Each residue class is checked at once.
    """
    check_lattice_slots((2 * g + 1) * len(offset_map))
    lo = 2 * u + 2 * (1 - g) * p - (p - 1)
    hi = 2 * (g - 1) * p + (p - 1)
    # a violation is a slot with s_low <= g - 1 and s_high = s_low + c >= 1 - g
    return all(max(first, 1 - g - c) > min(last, g - 1)
               for first, last, c in _residue_classes(p, u, offset_map, lo, hi))


def _cone_dim_exterior(g: int, p: int, u: int, offset_map: dict) -> int:
    """ker + coker of the truncated cone with all-vanishing differentials.

    Source slots carry the full exterior algebra (dimension 4^g); target
    slots do too; the image inside each retained target is the monomial
    block given by the collapse index law.  Slot sigma collapses to the
    level s0(sigma) = (sigma - offset) // 2p, offset being the lattice
    offset of sigma's residue mod 2p.  On one residue class the image
    degree min(g - s_low, g + s_high) runs through consecutive integers, up
    and then down, so each class adds two runs of the tail sums, read off
    one prefix-sum table.
    """
    if u <= 0:
        raise PreconditionError("internal: cone expects a positive total slope")
    W = max(g, u // (2 * p) + 1)
    check_lattice_slots((2 * W + 1) * len(offset_map))
    full = 4 ** g
    src_total = (2 * W + 1) * len(offset_map) * full
    # tails[k] = monomial_dim(g, k) for k = 0..2g+1; prefix[j] = tails[0] + ... + tails[j-1]
    top = 2 * g + 1
    tails = [0] * (top + 1)
    for k in range(2 * g, -1, -1):
        tails[k] = tails[k + 1] + comb(2 * g, k)
    prefix = [0, *accumulate(tails)]

    def run(k0: int, k1: int) -> int:
        """Image sizes at degrees k0..k1: full below 0, tails[k] up to 2g + 1, 0 past it."""
        total = full * max(0, min(k1, -1) - k0 + 1)
        a, b = max(k0, 0), min(k1, top)
        return total + (prefix[b + 1] - prefix[a] if a <= b else 0)

    lo = 2 * u + 2 * (-W) * p - (p - 1)
    hi = 2 * W * p + (p - 1)
    tgt_count = 0
    image_total = 0
    # classes sharing (first, last, c) add the same image sizes; there are few such triples
    for (first, last, c), n in Counter(_residue_classes(p, u, offset_map, lo, hi)).items():
        a, b = max(first, -W - c), min(last, W)  # retained: s_low <= W, s_high >= -W
        if a > b:
            continue
        tgt_count += n * (b - a + 1)
        # the high side g + c + s is the smaller up to s = floor(-c / 2), the low side g - s after
        turn = min(b, -c // 2)
        if a <= turn:
            image_total += n * run(g + c + a, g + c + turn)
        if max(a, turn + 1) <= b:
            image_total += n * run(g - b, g - max(a, turn + 1))
    return src_total + tgt_count * full - 2 * image_total


def circle_bundle_dim_module(g: int, m: int) -> int:
    """Circle-bundle dimension over a genus-g surface, module pathway.

    Evaluates the truncated cone with monomial-block images; for
    |m| >= 2g - 1 the cone has no retained targets and collapses to the
    direct sum 4^g * |m|.
    """
    if g < 2:
        raise PreconditionError("module pathway requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)  # the bundle and its orientation reverse have equal dimensions
    if mm >= 2 * g - 1:
        return (4 ** g) * mm
    return _cone_dim_exterior(g, 1, mm, {0: 0})


def circle_bundle_dim_formula(g: int, m: int) -> int:
    """Closed-form circle-bundle dimension (three cases by parity and size)."""
    if g < 2:
        raise PreconditionError("closed form requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)
    if mm >= 2 * g - 1:
        return (4 ** g) * mm
    if mm % 2 == 0:
        l = mm // 2
        return ((4 ** g) * mm
                + 4 * sum(comb(2 * g, i) for j in range(1, g - l) for i in range(j))
                + 2 * sum(comb(2 * g, i) for i in range(g - l)))
    l = (mm + 1) // 2
    return ((4 ** g) * mm
            + 4 * sum(comb(2 * g, i) for j in range(1, g - l + 1) for i in range(j)))


def _seifert_offsets(multiplicities: list) -> dict:
    """Residue map for the refined lattice of a multi-core connected sum.

    Each doubled offset is sum(tau_i * p/v_i) with tau_i running over the
    doubled lens gradings |tau_i| <= v_i - 1 of the right parity; pairwise
    coprime multiplicities make the residues mod 2p distinct.
    """
    p = math.prod(multiplicities)
    offsets: dict = {}
    # the terms tau_i * p/v_i, for each i
    choices = [range(-(v - 1) * (p // v), v * (p // v), 2 * (p // v)) for v in multiplicities]
    for off in map(sum, product(*choices)):
        key = off % (2 * p)
        if key in offsets:
            raise PreconditionError("multiplicities are not pairwise coprime")
        offsets[key] = off
    if not offsets:
        offsets[0] = 0
    return offsets


def _seifert_setup(g: int, m: int, pairs: Iterable[tuple]) -> tuple:
    """Validate Seifert invariants; return (degree, p, u, offset_map).

    ``degree`` is the orbifold degree m + sum(r_i/v_i) as given.  The rest
    describes the space oriented so the degree is positive (orientation
    reversal flips every invariant and keeps dimensions): p = prod(v_i) and
    u = |degree| * p is the total slope numerator.
    """
    pairs = [(int(r), int(v)) for r, v in pairs]
    if g < 1:
        raise PreconditionError("base genus must be at least 1")
    _check_genus(g)
    for r, v in pairs:
        if v < 1:
            raise PreconditionError(f"multiplicity {v} must be a positive integer")
        if v > 1 and math.gcd(abs(r), v) != 1:
            raise PreconditionError(f"pair {r}/{v} is not reduced")
    for (r1, v1), (r2, v2) in combinations(pairs, 2):
        if math.gcd(v1, v2) != 1:
            raise PreconditionError(
                f"gcd({v1}, {v2}) > 1: multiplicities must satisfy gcd(v_i, v_j) = 1 for i != j")
    multiplicities = [v for _, v in pairs]
    p = math.prod(multiplicities)
    if p > MAX_MULTIPLICITY_PRODUCT:
        raise PreconditionError(f"prod v_i = {p} exceeds the limit "
                                f"MAX_MULTIPLICITY_PRODUCT = {MAX_MULTIPLICITY_PRODUCT}")
    u = m * p + sum((p // v) * r for r, v in pairs)
    if u == 0:
        raise PreconditionError("orbifold degree 0 unsupported (no zero-slope formula here)")
    offset_map = _seifert_offsets(multiplicities) if multiplicities else {0: 0}
    return Fraction(u, p), p, abs(u), offset_map


def seifert_dim(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """Seifert fibered space over a genus-g base with invariants (m, r_i/v_i).

    Requires nonzero orbifold degree m + sum(r_i/v_i), multiplicities
    v_i >= 1 pairwise coprime and each r_i/v_i reduced.  Experimental for
    v_i > 1: the monomial-block index law is extrapolated from the
    circle-bundle computation and gated by regression tests.
    """
    return _seifert_evaluate(g, m, pairs)[1]


def _seifert_evaluate(g: int, m: int, pairs: Iterable[tuple]) -> tuple:
    """(degree, dim, pathway) from one setup: the large-slope shortcut, else the cone."""
    degree, p, u, offset_map = _seifert_setup(g, m, pairs)
    if _large_applicable(g, p, u, offset_map):
        # large-slope regime: direct sum of u full slots
        return degree, u * (4 ** g), "large-surgery"
    return degree, _cone_dim_exterior(g, p, u, offset_map), "cone"


def seifert_dim_large(g: int, m: int, pairs: Iterable[tuple]) -> Optional[int]:
    """Large-slope shortcut value, or None when outside that regime."""
    _, p, u, offset_map = _seifert_setup(g, m, pairs)
    return u * (4 ** g) if _large_applicable(g, p, u, offset_map) else None


def seifert_dim_windowed(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """Force the truncated-cone evaluation even in the large regime."""
    _, p, u, offset_map = _seifert_setup(g, m, pairs)
    return _cone_dim_exterior(g, p, u, offset_map)
