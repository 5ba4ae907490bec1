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
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple

from .knotcx import PreconditionError

# Size limits, checked before any work starts.  The residue classes are
# counted per fibre, meeting two halves of balanced product, and the exterior
# cone sums each class key at once off a tail table built once per genus, so
# the cost grows about as genus + sqrt(prod(v_i)) * n^2 * log(prod(v_i)) for
# n fibres.  On a 2-vCPU host the module pathway takes 1.6 ms for the first
# query at genus 200 (building the table) and 7 us for each one after it, the
# closed form 0.8 ms, and a genus-2 base with prod(v_i) near 10^5 under 1 ms;
# the tables of every genus up to MAX_GENUS hold about 3 MB.
# Neither cost grows with the window, so no limit bounds the cone's slots:
# ``seifert --genus 200 --base 0 --pair 1/99991``, a window of about 4 * 10^7
# slots, answers in under a millisecond.
MAX_GENUS = 200
MAX_MULTIPLICITY_PRODUCT = 10 ** 5


def _check_genus(g: int):
    if g > MAX_GENUS:
        raise PreconditionError(f"genus {g} exceeds the limit MAX_GENUS = {MAX_GENUS}")


# --- truncated cone over the exterior-algebra model -------------------------
#
# The lattice slots are sigma = off + 2p s, one residue class per offset off
# (see _residue_class_counts).  sigma collapses to the low level s, and
# sigma - 2u to the high level s + c, c being constant on the class.  In the
# window |levels| <= W the class meets first <= s <= last, where first =
# -W - e and last = W + gamma with e = floor((off - 2u + p - 1) / 2p) and
# gamma = floor((p - 1 - off) / 2p).  So classes are keyed by (e, gamma, c),
# and one count of the keys serves every window.

def _window(g: int, p: int, u: int) -> int:
    """Half-width W of the cone's window: at least the genus, and past the slope."""
    return max(g, u // (2 * p) + 1)


def _large_applicable(g: int, classes) -> bool:
    """Whether the direct-sum shortcut is valid, from the class keys (e, gamma, c).

    True when no lattice slot lands strictly between the projection bands,
    i.e. every slot has its low collapse at the genus or beyond, or its
    shifted collapse at minus the genus or below.  For a plain circle bundle
    this reduces to u >= 2g - 1.  With W = g - 1 a class has a violating
    slot, s_low <= W and s_low + c >= -W, iff -W - min(e, c) <= W + min(gamma, 0).
    """
    for e, gamma, c in classes:  # min(e, c) + min(gamma, 0), without the calls
        if (e if e < c else c) + (gamma if gamma < 0 else 0) >= 2 - 2 * g:
            return False
    return True


# The tail prefix sums of each genus met so far (see _tail_prefix).  Every
# caller checks the genus against MAX_GENUS first, so at most MAX_GENUS
# genera are ever kept; circle-bundle grids and Seifert batteries query each
# genus many times.
_TAIL_PREFIX: dict = {}


def _tail_prefix(g: int) -> list:
    """prefix[j] = tails[0] + ... + tails[j-1], built once per genus.

    tails[k] = sum_{i >= k} C(2g, i) is the dimension of the span of the
    monomials of degree >= k, for k = 0..2g+1.
    """
    prefix = _TAIL_PREFIX.get(g)
    if prefix is None:
        tails, c = [0] * (2 * g + 2), 1  # c = C(2g, k), stepped down from C(2g, 2g)
        for k in range(2 * g, -1, -1):
            tails[k] = tails[k + 1] + c
            c = c * k // (2 * g - k + 1)
        prefix = _TAIL_PREFIX[g] = [0, *accumulate(tails)]
    return prefix


def _cone_dim_exterior(g: int, p: int, u: int, classes) -> int:
    """ker + coker of the truncated cone with all-vanishing differentials.

    Source slots carry the full exterior algebra (dimension 4^g); target
    slots do too; the image inside each retained target is the monomial
    block given by the collapse index law.  u > 0: every caller refuses a
    zero degree and passes |u|.  ``classes`` maps each key
    (e, gamma, c) to its number of residue classes, p in all.  On one class
    the image degree min(g - s_low, g + s_high) runs through consecutive
    integers, up and then down, so each key adds two runs of the tail sums,
    read off the genus's prefix table (``_tail_prefix``).  After the first
    cone of a genus the cost is O(1) per key.
    """
    W = _window(g, p, u)
    full = 4 ** g
    src_total = (2 * W + 1) * p * full
    prefix = _tail_prefix(g)
    last = 2 * g + 2  # every degree from here on has an empty image

    def cum(k: int) -> int:
        """cum(k1 + 1) - cum(k0) sums the image sizes at degrees k0..k1: 4^g below 0, tails[k] after."""
        return full * k if k < 0 else prefix[k if k < last else last]

    tgt_count = 0
    image_total = 0
    for (e, gamma, c), n in classes.items():
        # retained: s_low <= W and s_high >= -W, inside first..last
        a, b = -W - min(e, c), W + min(gamma, 0)
        if a > b:
            continue
        tgt_count += n * (b - a + 1)
        # the high side g + c + s is the smaller up to s = floor(-c / 2), the low side g - s
        # after, so the degrees run g + c + a .. g + c + turn, then g - b .. g - turn - 1
        turn = min(b, -c // 2)
        if a <= turn:
            image_total += n * (cum(g + c + turn + 1) - cum(g + c + a))
        if turn < b:
            image_total += n * (cum(g - max(a, turn + 1) + 1) - cum(g - b))
    return src_total + tgt_count * full - 2 * image_total


def circle_bundle_dim_module(g: int, m: int) -> int:
    """Circle-bundle dimension over a genus-g surface, module pathway.

    Evaluates the truncated cone with monomial-block images on its one
    residue class (e = c = -|m|, gamma = 0) for every m, so it checks the
    closed form in the large regime |m| >= 2g - 1 too.
    """
    if g < 2:
        raise PreconditionError("module pathway requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)  # the bundle and its orientation reverse have equal dimensions
    return _cone_dim_exterior(g, 1, mm, {(-mm, 0, -mm): 1})


def circle_bundle_dim_formula(g: int, m: int) -> int:
    """Closed form: 4^g * |m| plus a correction by parity, 0 once |m| >= 2g - 1.

    The nested binomial sums take one pass of O(g) steps, each binomial
    C(2g, j + 1) stepped from C(2g, j) by one multiply and divide.  It builds
    its own sums and never reads ``_tail_prefix``, so it stays an independent
    check of the module pathway.
    """
    if g < 2:
        raise PreconditionError("closed form requires genus at least 2")
    _check_genus(g)
    if m == 0:
        raise PreconditionError("Euler number 0 unsupported (zero orbifold degree)")
    mm = abs(m)
    # With H(j) = sum_{i < j} C(2g, i) and l = ceil(|m| / 2), the correction is
    # 4 (H(1) + ... + H(g - l - 1)) + 2 H(g - l) for even |m| and
    # 4 (H(1) + ... + H(g - l)) for odd |m|: one running head sum gives both.
    head = nested = 0
    n, c = 2 * g, 1  # c = C(2g, j), stepped up from C(2g, 0)
    for j in range(g - (mm + 1) // 2):
        head += c  # H(j + 1)
        nested += head
        c = c * (n - j) // (j + 1)
    return (4 ** g) * mm + 4 * nested - (2 * head if mm % 2 == 0 else 0)


def _fibre_terms(p: int, u: int, v: int) -> dict:
    """A fibre's offset terms tau * p/v, by kappa: {-1: range, 0: range}.

    tau runs over the doubled lens gradings |tau| <= v - 1 of the right
    parity.  With q = p/v and rho = u q^-1 mod v, shifting by -2u moves the
    term tau q to (tau - 2 rho) q, which stays in range for tau >= 2 rho - v + 1
    (kappa = 0) and wraps by +2v, one step of 2p, below that (kappa = -1).
    """
    q = p // v
    cut = (2 * (u * pow(q, -1, v) % v) - v + 1) * q
    return {-1: range(-(v - 1) * q, cut, 2 * q), 0: range(cut, v * q, 2 * q)}


def _half_sums(p: int, u: int, fibres: list) -> dict:
    """kappa-sum -> sorted offset sums over one half of the fibres; a lone fibre keeps its ranges."""
    if len(fibres) == 1:
        return _fibre_terms(p, u, fibres[0])
    sums = {0: [0]}
    for v in fibres:
        grown: dict = {}
        for k, offs in sums.items():
            for kappa, terms in _fibre_terms(p, u, v).items():
                grown.setdefault(k + kappa, []).extend(o + t for o in offs for t in terms)
        sums = grown
    return {k: sorted(offs) for k, offs in sums.items()}


def _residue_class_counts(p: int, u: int, multiplicities: list) -> Counter:
    """Count the residue classes of the refined lattice by their key (e, gamma, c).

    Each offset is off = sum_i tau_i p/v_i (pairwise coprime multiplicities
    make the p offsets distinct mod 2p), and its class shift is
    c = sum_i kappa_i - M with M = (u - sum_i rho_i p/v_i) / p.  The fibres
    are split into two halves of balanced product, and each half's offset
    sums are sorted by their kappa sum.  For each pair of kappa sums only the
    cuts, the points where e or gamma changes, inside the pair's range of
    sums cost anything; at such a cut only the offsets of the shorter list
    whose window of sums straddles it are bisected against the longer list,
    the others meeting all of it or none.  So the cost is at most about
    sqrt(prod v_i) bisections per cut, rather than prod v_i.
    """
    fibres = sorted((v for v in multiplicities if v > 1), reverse=True)
    halves, products = ([], []), [1, 1]
    for v in fibres:
        i = int(products[1] < products[0])
        halves[i].append(v)
        products[i] *= v
    small, large = sorted((_half_sums(p, u, half) for half in halves),
                          key=lambda sums: sum(map(len, sums.values())))
    shift = (u - sum(u * pow(p // v, -1, v) % v * (p // v) for v in fibres)) // p
    two_p = 2 * p
    extent = sum((v - 1) * (p // v) for v in fibres)  # |off| <= extent
    # e steps up at off = 2u - p + 1 (mod 2p), gamma down at off = p (mod 2p)
    cuts = sorted({*range(1 - extent + (2 * u - p + extent) % two_p, extent + 1, two_p),
                   *range(1 - extent + (p - 1 + extent) % two_p, extent + 1, two_p)})
    cells = [((x - 2 * u + p - 1) // two_p, (p - 1 - x) // two_p) for x in (-extent, *cuts)]
    counts: Counter = Counter()
    for ks, s_offs in small.items():
        for kl, l_offs in large.items():
            short, long = (s_offs, l_offs) if len(s_offs) <= len(l_offs) else (l_offs, s_offs)
            if not short:
                continue
            l_min, l_max, n_l = long[0], long[-1], len(long)
            # only the cuts strictly inside the pair's range of sums split it
            j0 = bisect_right(cuts, short[0] + l_min)
            j1 = bisect_right(cuts, short[-1] + l_max, j0)
            below = [0]  # below[j] = number of pairs with off < cuts[j0 + j - 1]
            for x in cuts[j0:j1]:
                # a < x - l_max meets all of long, a >= x - l_min none of it
                i0 = bisect_left(short, x - l_max)
                i1 = bisect_left(short, x - l_min, i0)
                below.append(i0 * n_l + sum(bisect_left(long, x - a) for a in short[i0:i1]))
            below.append(len(short) * n_l)
            c = ks + kl - shift
            for (e, gamma), lo, hi in zip(cells[j0:j1 + 1], below, below[1:]):
                if hi > lo:
                    counts[e, gamma, c] += hi - lo
    return counts


def _seifert_setup(g: int, m: int, pairs: Iterable[tuple]) -> tuple:
    """Validate Seifert invariants; return (degree, p, u, multiplicities).

    ``degree`` is the orbifold degree m + sum(r_i/v_i) as given.  The rest
    describes the space oriented so the degree is positive (orientation
    reversal flips every invariant and keeps dimensions): p = prod(v_i) and
    u = |degree| * p is the total slope numerator.  Nothing is counted here.
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
    # The first clashing pair in input order has the first v that shares a
    # factor with the product of the v after it; one pass from the end finds it.
    first, later = None, 1
    for i in range(len(pairs) - 1, -1, -1):
        v = pairs[i][1]
        if math.gcd(v, later) != 1:
            first = i
        later *= v
    if first is not None:
        v1 = pairs[first][1]
        v2 = next(v for _, v in pairs[first + 1:] if math.gcd(v1, v) != 1)
        raise PreconditionError(
            f"gcd({v1}, {v2}) > 1: multiplicities must satisfy gcd(v_i, v_j) = 1 for i != j")
    multiplicities = [v for _, v in pairs]
    p = math.prod(multiplicities)
    if p > MAX_MULTIPLICITY_PRODUCT:
        try:
            shown = f"prod v_i = {p}"
        except ValueError:  # more digits than Python converts to a string
            shown = f"prod v_i, a {p.bit_length()}-bit number,"
        raise PreconditionError(f"{shown} exceeds the limit "
                                f"MAX_MULTIPLICITY_PRODUCT = {MAX_MULTIPLICITY_PRODUCT}")
    u = m * p + sum((p // v) * r for r, v in pairs)
    if u == 0:
        raise PreconditionError("orbifold degree 0 unsupported (no zero-slope formula here)")
    return Fraction(u, p), p, abs(u), multiplicities


class SeifertResult(NamedTuple):
    """The orbifold degree as given, the dimension, and its pathway: "large-surgery" or "cone"."""
    degree: Fraction
    dim: int
    pathway: str


def seifert(g: int, m: int, pairs: Iterable[tuple]) -> SeifertResult:
    """Seifert fibered space over a genus-g base with invariants (m, r_i/v_i).

    Requires nonzero orbifold degree m + sum(r_i/v_i), multiplicities
    v_i >= 1 pairwise coprime and each r_i/v_i reduced.  One setup and one
    count of the residue classes serve the large-regime test and, outside
    that regime, the cone.  Experimental for v_i > 1: the monomial-block
    index law is extrapolated from the circle-bundle computation and gated
    by regression tests.
    """
    degree, p, u, multiplicities = _seifert_setup(g, m, pairs)
    classes = _residue_class_counts(p, u, multiplicities)
    if _large_applicable(g, classes):
        # large-slope regime: direct sum of u full slots
        return SeifertResult(degree, u * (4 ** g), "large-surgery")
    return SeifertResult(degree, _cone_dim_exterior(g, p, u, classes), "cone")


def seifert_dim(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """The dimension of ``seifert(g, m, pairs)``."""
    return seifert(g, m, pairs).dim


def seifert_dim_windowed(g: int, m: int, pairs: Iterable[tuple]) -> int:
    """The truncated cone even in the large regime: the oracle of the shortcut."""
    _, p, u, multiplicities = _seifert_setup(g, m, pairs)
    return _cone_dim_exterior(g, p, u, _residue_class_counts(p, u, multiplicities))
