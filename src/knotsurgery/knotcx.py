"""Finite models of instanton knot homology.

A model is a graded space with two anticommuting differentials, one raising
the Alexander grading and one lowering it.  Thin models (one staircase plus
squares) are synthesized from a symmetric Alexander polynomial and a tau
invariant; arbitrary models can be supplied explicitly.  Every model that
passes ``validate`` is isomorphic to one staircase plus squares, which
``decompose`` reads off the ranks of d+ d-.
"""
from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Iterable, NamedTuple, Optional

from .linalg import (
    GradedSpace,
    Generator,
    SparseExactMap,
    apply,
    block_ranks,
    homology,
    quotient,
    sparse_map,
    space,
)


class ModelError(Exception):
    """A knot model violates its structural contract or cannot be built."""


class PreconditionError(Exception):
    """Input violates a stated hypothesis of the computation."""


# Laurent polynomials are dicts power -> integer coefficient (true units).
Poly = dict

# Largest genus a knot spec may declare, checked by ``parse_knot_spec``
# before any synthesis or validation: the thin form's polynomial degree, and
# the explicit form's "genus" field and each generator's |alex|.  A surgery
# answer costs one validation and one decomposition: on a 2-vCPU host under
# 0.02 s for the genus-200 staircase.  The level table that ``--compare``
# reads costs one elimination per level, of its bend, and one more at each
# level whose bend holds a survivor: for the genus-200 staircase,
# 0.005-0.008 s for the ranked cone at slope 1 and 0.014-0.024 s for the
# whole slope grid there.  This limit and MAX_MODEL_DIM bound the level table too.
MAX_MODEL_GENUS = 200

# Largest model dimension a knot spec may ask for, checked by
# ``parse_knot_spec`` before any synthesis: the coefficient norm of the
# Alexander polynomial, which a thin model's dimension equals, and the
# generator count of the explicit form.  The degree limit alone lets
# [[c, 1], [1 - 2c, 0], [c, -1]] ask for 4c - 1 generators.  On a 2-vCPU
# host the slowest thin spec measured at this limit (squares spread over
# every level to genus 200) answers ``surgery`` in 0.27 s, and the cost is
# linear in the dimension; ``--compare`` on it answers as fast, since every
# level together takes about a third of the validation time.
MAX_MODEL_DIM = 10 ** 4

# Largest explicit spec, checked by ``parse_knot_spec`` before any map is
# built: the d+ and d- entries together, and the bits of each map's
# integers in ``KnotComplex.integer_maps`` (the LCM of the map's
# denominators, and every entry scaled by it), which validation and the
# level table both rank.  Dense rational input is what costs: ranking a
# dense block takes about (block size)^3 operations on integers that grow
# to about (block size) x (entry bits).  On a 2-vCPU host the slowest input
# measured at both limits, one dense full-rank 70 x 70 block of 64-bit
# entries, validates in 2.0-2.4 s; a random dense map that fails a
# structural check is never ranked, and takes 0.1 s.  A model given in the
# thin form is bounded by MAX_MODEL_DIM alone.
MAX_SPEC_ENTRIES = 5000
MAX_SPEC_BITS = 64


def poly_from_pairs(pairs: Iterable[tuple]) -> Poly:
    out: Poly = {}
    for coef, power in pairs:
        if coef:
            out[int(power)] = out.get(int(power), 0) + int(coef)
    return {p: c for p, c in out.items() if c}


def poly_to_pairs(poly: Poly) -> tuple:
    return tuple(sorted(((c, p) for p, c in poly.items()), key=lambda t: -t[1]))


def poly_str(poly: Poly) -> str:
    if not poly:
        return "0"
    parts = []
    for p in sorted(poly, reverse=True):
        c = poly[p]
        if p == 0:
            parts.append(str(c))
            continue
        term = "t" if p == 1 else f"t^{p}"
        if abs(c) == 1:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(f"{c}*{term}")
    return "+".join(parts).replace("+-", "-")


def poly_norm(poly: Poly) -> int:
    """Sum of absolute values of the coefficients."""
    return sum(abs(c) for c in poly.values())


def staircase_polynomial(tau: int) -> Poly:
    """Alternating-sign polynomial of span 2|tau| contributed by a staircase."""
    return {i: (-1) ** (abs(tau) - i) for i in range(-abs(tau), abs(tau) + 1)}


class StaircaseSpec(NamedTuple):
    l: int


class SquareSpec(NamedTuple):
    s: int      # center grading (true units)
    sign: int   # contribution sign in the Alexander polynomial decomposition


class _ModelFields(NamedTuple):
    space: GradedSpace
    d_plus: SparseExactMap
    d_minus: SparseExactMap
    genus: int
    tau: int
    meta: tuple = ()  # sorted (key, value) pairs: name, delta, ...


class KnotComplex(_ModelFields):
    # Derived state, computed on first use and kept in the instance __dict__
    # that this subclass adds (not fields, so equality and hashing see only
    # the fields above): the block index and the integer maps that
    # validation and the level table read, the validation report, the level
    # table that the cone oracles read, the mirror and the name.
    @cached_property
    def blocks(self) -> dict:
        """{(doubled grading, z2): positions of that block's generators, in model order}.

        ``validate`` reads the grading dimensions and ranks its maps on it,
        ``chi_graded`` the Euler characteristic, and each level of the cone
        reads its own blocks out of it, as ``K.blocks.get((s2, z))``.
        """
        blocks: dict = {}
        for i, g in enumerate(self.space.generators):
            blocks.setdefault((g.alex, g.z2), []).append(i)
        return blocks

    @cached_property
    def integer_maps(self) -> tuple:
        """(d+, d-) as integer columns {position: {position: int}}, each map times its own LCM.

        A position is a generator's place in the space, and a map's scale is
        the LCM of its entry denominators.  A map of int entries is its own
        ``columns``, not a copy; any other is one scaled copy of them, each
        integral ``Fraction`` entry made an int.  This is the one integer
        form of a model: ``validate`` forms its compositions and ranks its
        blocks on it, and the level table ranks the bent complexes and their
        cones on it.  A nonzero scale of one map changes no zero test and no
        rank.  Scaled by a and b, the two maps are conjugate by the diagonal
        change of basis x -> lambda^(alex(x)/2) x, with lambda^2 = a/b, to
        sqrt(ab) times the true ones: a d+ + b d- becomes sqrt(ab) (d+ + d-),
        and so does each bent differential.  That change keeps every
        (grading, z2) block and commutes with the projections onto gradings,
        so no block rank and no level shape changes.  So each map keeps its
        own scale, and every integer here is one that ``parse_knot_spec``
        bounds by MAX_SPEC_BITS.
        """
        def scaled(d: SparseExactMap) -> dict:
            if not (denominators := [v.denominator for _, _, v in d.entries if type(v) is not int]):
                return d.columns
            scale = lcm(*denominators)
            return {i: {j: v * scale if type(v) is int else v.numerator * (scale // v.denominator)
                        for j, v in col.items()} for i, col in d.columns.items()}
        return scaled(self.d_plus), scaled(self.d_minus)

    @cached_property
    def report(self) -> "ValidationReport":
        """``validate(self)``, computed once."""
        return validate(self)

    @cached_property
    def levels(self) -> dict:
        """The cone's level table {s: (class count, v, h, line)}, filled by ``cone.level_table``."""
        return {}

    @cached_property
    def mirrored(self) -> "KnotComplex":
        """``mirror(self)``, built once; its own mirror is this model."""
        M = _build_mirror(self)
        M.__dict__["mirrored"] = self
        return M

    def meta_dict(self) -> dict:
        return dict(self.meta)

    @cached_property
    def name(self) -> str:
        """The "name" of ``meta``, or "<unnamed>"; read once, as ``meta`` never changes."""
        return self.meta_dict().get("name", "<unnamed>")

    @property
    def dim(self) -> int:
        return self.space.dim

    def delta(self) -> Optional[Poly]:
        pairs = self.meta_dict().get("delta")
        return poly_from_pairs(pairs) if pairs is not None else None


def _meta(name: Optional[str], delta: Optional[Poly]) -> tuple:
    items = []
    if name is not None:
        items.append(("name", name))
    if delta is not None:
        items.append(("delta", poly_to_pairs(delta)))
    return tuple(sorted(items))


def chi_graded(K: KnotComplex) -> Poly:
    """Graded Euler characteristic: signed generator count per true grading, read off ``K.blocks``."""
    half = [positions[0] for (alex, _), positions in K.blocks.items() if alex % 2]
    if half:
        raise ModelError(f"generator {K.space.ids[min(half)]!r} sits at a half-integer grading")
    out: Poly = {}
    for (alex, z2), positions in K.blocks.items():
        out[alex // 2] = out.get(alex // 2, 0) + (-1) ** z2 * len(positions)
    return {p: c for p, c in out.items() if c}


def build_staircase(l: int, name: Optional[str] = None) -> KnotComplex:
    """Staircase model with 2|l|+1 generators; first generator at grading -l.

    For l > 0 the even-index generators map up (d+) and down (d-) along the
    chain; for l <= 0 the odd-index generators do.  Either way the lowering
    differential has one surviving class at grading l and the raising one at
    grading -l.
    """
    return assemble(StaircaseSpec(l), (), name=name or f"staircase({l})")


def staircase_fragment(l: int) -> dict:
    """Generators a1..a(2|l|+1) and arrows of the staircase of l (see ``build_staircase``)."""
    n = 2 * abs(l) + 1
    gens = []
    dplus = []
    dminus = []
    for k in range(1, n + 1):
        grading = -l + (k - 1) if l > 0 else -l - (k - 1)
        gens.append((f"a{k}", 2 * grading, (k - 1) % 2))
    if l > 0:
        for i in range(1, l + 1):
            dplus.append((f"a{2 * i + 1}", f"a{2 * i}", 1))
            dminus.append((f"a{2 * i - 1}", f"a{2 * i}", 1))
    elif l < 0:
        for i in range(1, -l + 1):
            dminus.append((f"a{2 * i}", f"a{2 * i - 1}", 1))
            dplus.append((f"a{2 * i}", f"a{2 * i + 1}", 1))
    return {"generators": gens, "d_plus": dplus, "d_minus": dminus}


def build_square(s: int, sign: int, prefix: str = "q") -> dict:
    """Four-generator fragment centered at grading s.

    Arrows: d+(a)=c, d-(a)=b, d+(b)=d, d-(c)=-d; the -1 makes the two
    differentials anticommute.  ``sign`` records the fragment's contribution
    sign in the Alexander polynomial decomposition and fixes the Z/2 grading
    placement.
    """
    if sign not in (-1, 1):
        raise ModelError("square sign must be +1 or -1")
    z = 0 if sign == -1 else 1
    gens = [
        (f"{prefix}a", 2 * s, z),
        (f"{prefix}b", 2 * (s - 1), 1 - z),
        (f"{prefix}c", 2 * (s + 1), 1 - z),
        (f"{prefix}d", 2 * s, z),
    ]
    dplus = [(f"{prefix}c", f"{prefix}a", 1), (f"{prefix}d", f"{prefix}b", 1)]
    dminus = [(f"{prefix}b", f"{prefix}a", 1), (f"{prefix}d", f"{prefix}c", -1)]
    return {"generators": gens, "d_plus": dplus, "d_minus": dminus}


def assemble(staircase: StaircaseSpec, squares: Iterable[SquareSpec],
             name: Optional[str] = None) -> KnotComplex:
    """Direct sum of one staircase and any number of squares, with their polynomial attached."""
    squares = list(squares)
    frag = staircase_fragment(staircase.l)
    gens = list(frag["generators"])
    dplus = list(frag["d_plus"])
    dminus = list(frag["d_minus"])
    for i, sq in enumerate(squares):
        f = build_square(sq.s, sq.sign, prefix=f"q{i}")
        gens.extend(f["generators"])
        dplus.extend(f["d_plus"])
        dminus.extend(f["d_minus"])
    sp = space(gens)
    g = max([abs(staircase.l)] + [abs(sq.s) + 1 for sq in squares])
    delta = staircase_polynomial(staircase.l)
    for sq in squares:
        for p, c in {sq.s + 1: sq.sign, sq.s: -2 * sq.sign, sq.s - 1: sq.sign}.items():
            delta[p] = delta.get(p, 0) + c
    delta = {p: c for p, c in delta.items() if c}
    return KnotComplex(sp, sparse_map(sp, sp, dplus), sparse_map(sp, sp, dminus),
                       genus=g, tau=staircase.l, meta=_meta(name, delta))


def thin_decomposition(delta: Poly, tau: int) -> tuple:
    """Split a symmetric Alexander polynomial into a staircase and squares.

    Normalizes the polynomial so it evaluates to +1 at t=1, removes the
    staircase part for the given tau, then greedily peels square
    contributions sign * (t^(s+1) - 2 t^s + t^(s-1)) from the top degree
    down.  Rejects input that cannot decompose without coefficient
    cancellation (total dimension must equal the coefficient norm).
    """
    delta = {p: c for p, c in delta.items() if c}
    for p, c in delta.items():
        if delta.get(-p, 0) != c:
            raise ModelError(f"Alexander polynomial is not symmetric: coefficient {c} at t^{p} "
                             f"but {delta.get(-p, 0)} at t^{-p}")
    at_one = sum(delta.values())
    if at_one == -1:
        delta = {p: -c for p, c in delta.items()}
    elif at_one != 1:
        raise ModelError(f"Alexander polynomial evaluates to {at_one} at t=1, expected +1 or -1")
    degree = max((abs(p) for p in delta), default=0)
    if abs(tau) > degree:
        raise ModelError(f"tau = {tau} exceeds the polynomial degree span {degree}")
    norm = poly_norm(delta)
    quads, rem = divmod(norm - 2 * abs(tau) - 1, 4)
    if rem != 0 or quads < 0:
        raise ModelError(
            f"not a thin complex: coefficient norm {norm} is incompatible with tau = {tau}")
    residual = dict(delta)
    for p, c in staircase_polynomial(tau).items():
        residual[p] = residual.get(p, 0) - c
    residual = {p: c for p, c in residual.items() if c}
    squares = []
    while residual:
        top = max(residual)
        if len(squares) >= quads or top - 1 < 1 - degree:
            raise ModelError("not a thin complex: residual cannot be decomposed into squares")
        sign = 1 if residual[top] > 0 else -1
        center = top - 1
        for p, c in {top: sign, center: -2 * sign, center - 1: sign}.items():
            acc = residual.get(p, 0) - c
            if acc:
                residual[p] = acc
            else:
                residual.pop(p, None)
        squares.append(SquareSpec(center, sign))
    if len(squares) != quads:
        raise ModelError("not a thin complex: residual cannot be decomposed into squares")
    return StaircaseSpec(tau), tuple(sorted(squares, key=lambda q: (q.s, q.sign)))


def thin_from_alexander(delta, tau: int, name: Optional[str] = None) -> KnotComplex:
    """Model of a symmetric Alexander polynomial and tau (``assemble`` attaches it, normalised)."""
    if not isinstance(delta, dict):
        delta = poly_from_pairs(delta)
    return assemble(*thin_decomposition(delta, tau), name=name)


def mirror(K: KnotComplex) -> KnotComplex:
    """Mirror model: gradings negated, both differentials transposed.

    The transpose of the lowering differential raises the negated grading
    and vice versa, so the two surviving classes trade places and tau
    changes sign.  The mirror is built once and kept on K, so its
    validation and level table are shared by every caller.
    """
    return K.mirrored


def _build_mirror(K: KnotComplex) -> KnotComplex:
    sp = GradedSpace(tuple(Generator(g.gid, -g.alex, g.z2) for g in K.space.generators))
    def flip(m: SparseExactMap) -> SparseExactMap:
        return sparse_map(sp, sp, [(src, tgt, v) for tgt, src, v in m.entries])
    delta = K.delta()
    if delta is not None:
        delta = {-e: c for e, c in delta.items()}
    meta = _meta(None, delta)
    nm = K.meta_dict().get("name")
    if nm is not None:
        meta = _meta(f"mirror({nm})" if not nm.startswith("mirror(") else nm[7:-1], delta)
    return KnotComplex(sp, flip(K.d_plus), flip(K.d_minus),
                       genus=K.genus, tau=-K.tau, meta=meta)


class Decomposition(NamedTuple):
    """A valid model up to isomorphism: tau of its staircase and its squares {(s, sign): count}."""
    tau: int
    squares: dict


class ValidationReport(NamedTuple):
    """The violations ``validate`` found, in order, and a clean model's decomposition.

    A clean report also keeps (H(d-), H(d+)) as {(doubled grading, z2):
    dim}, one block of dimension 1 each, and the block ranks of (d-, d+)
    as {(doubled grading, z2): rank out of that block}, blocks of rank 0
    left out: the level table reads its class counts off them.
    """
    violations: list
    decomposition: Optional[Decomposition] = None
    homology_blocks: Optional[tuple] = None
    ranks: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(K: KnotComplex) -> ValidationReport:
    """Check every invariant; collects violations, never raises, and writes gradings exactly.

    Maps over any space but the model's are refused first: ``K.integer_maps``
    keeps their positions.  One pass over the generators (see ``_one_pass``)
    forms d+ d+, d- d-, d+ d- and d- d+ once per generator on them.  The
    structural checks report in a fixed order: d+^2, d-^2, the grading
    shifts, anticommutation, symmetric graded dimensions, the genus bounds
    and the Euler characteristic (``chi_graded``), the last three read off
    the block sizes of ``K.blocks``; any fault there ends the report before
    a block is ranked, since a dense model may take long to rank.  Otherwise
    ``linalg.block_ranks`` ranks the d-, d+ and d+ d- images of each block
    of ``K.blocks``, and ``linalg.homology`` reads dim H(d-) and dim H(d+)
    off those ranks.  Both must be 1, and tau is the grading of the one
    block where H(d-) lives.  No class representative is formed.  The
    squares are counted from the d+ d- ranks (see ``decompose``), and the
    dimension must be 2 |tau| + 1 + 4k for their number k, which the
    structure theorem there guarantees.  A clean report keeps the
    decomposition, the blocks of H(d-) and H(d+) and the block ranks of d-
    and d+.
    """
    sp = K.space
    if any(d.source != sp or d.target != sp for d in (K.d_plus, K.d_minus)):
        return ValidationReport(["d+ and d- must map the model's space to itself"])
    violations = []
    shifts = []
    gens, at = sp.generators, sp._index
    for d, label, sgn in ((K.d_plus, "d+", 1), (K.d_minus, "d-", -1)):
        for tgt, src, _ in d.entries:
            gs, gt = gens[at[src]], gens[at[tgt]]
            if gt.alex - gs.alex != 2 * sgn:
                shifts.append(
                    f"{label} shifts grading of {src} by {_half(gt.alex - gs.alex)}, expected {sgn}")
                break
            if gt.z2 == gs.z2:
                shifts.append(f"{label} does not flip the Z/2 grading on {src}")
                break

    dims: dict = {}
    for (alex, _), positions in K.blocks.items():
        dims[alex] = dims.get(alex, 0) + len(positions)
    rest = []  # the checks reported after anticommutation
    for a, n in dims.items():
        if dims.get(-a, 0) != n:
            rest.append(f"grading dims asymmetric: {n} at {_half(a)} vs {dims.get(-a, 0)} at {_half(-a)}")
            break
    top = max((abs(a) for a in dims), default=0)
    if top > 2 * K.genus:
        rest.append(f"generator beyond genus: |grading| {_half(top)} > genus {K.genus}")
    if K.genus > 0 and dims.get(2 * K.genus, 0) < 1:
        rest.append(f"no generator at the top grading {K.genus}")

    try:
        chi = chi_graded(K)
    except ModelError as half:
        rest.append(str(half))
    else:
        delta = K.delta()
        if delta is not None and delta != chi and delta != {p: -c for p, c in chi.items()}:
            rest.append("graded Euler characteristic does not match the attached polynomial")

    bad, squares = _one_pass(K)
    first = [sp.ids[min(positions)] if positions else None for positions in bad]
    for label, gid in zip(("d+", "d-"), first):
        if gid is not None:
            violations.append(f"{label}^2 != 0 (witness {gid})")
    violations += shifts
    if first[2] is not None:
        violations.append(f"d+d- + d-d+ != 0 (witness {first[2]})")
    violations += rest

    if violations:
        return ValidationReport(violations)
    P, M = K.integer_maps
    ranks = [block_ranks(cols, K.blocks) for cols in (M, P, squares)]
    sizes = {block: len(positions) for block, positions in K.blocks.items()}
    homology_blocks = homology(sizes, ranks[0], -2), homology(sizes, ranks[1], 2)  # d-, d+
    hm_dim, hp_dim = (sum(h.values()) for h in homology_blocks)
    if hp_dim != 1 or hm_dim != 1:
        return ValidationReport([f"one-differential homology dims ({hp_dim}, {hm_dim}) "
                                 "differ from the ambient value 1"])
    (alex_m, _), (alex_p, _) = (next(iter(h)) for h in homology_blocks)
    if alex_m != -alex_p:
        return ValidationReport(["survivor classes are not at opposite integer gradings"])
    if alex_m // 2 != K.tau:
        return ValidationReport([f"recorded tau {K.tau} differs from survivor grading {alex_m // 2}"])
    squares = {(alex // 2, 1 if z2 else -1): n for (alex, z2), n in ranks[2].items()}
    expected = 2 * abs(K.tau) + 1 + 4 * sum(squares.values())
    if K.dim != expected:
        return ValidationReport([f"model dimension {K.dim} differs from 2|tau| + 1 + 4k = "
                                 f"{expected} for tau {K.tau} and its squares"])
    return ValidationReport([], Decomposition(K.tau, squares), homology_blocks, tuple(ranks[:2]))


def _half(a: int) -> str:
    """The doubled grading a in true units, exactly, written as a float prints: 0.5, -1.5, 2.0."""
    whole, odd = divmod(abs(a), 2)
    return f"{'-' if a < 0 else ''}{whole}.{5 if odd else 0}"


def _one_pass(K: KnotComplex) -> tuple:
    """The positions where d+ d+, d- d- and d+ d- + d- d+ are nonzero, and the d+ d- columns.

    The four compositions are formed once per generator on ``K.integer_maps``.
    Returns (three sets of positions, {position: d+ d- of that generator}).
    """
    P, M = K.integer_maps
    bad = plus_square, minus_square, anticommute = set(), set(), set()
    squares = {}
    for i in range(K.dim):
        p, m = P[i], M[i]
        if apply(P, p):
            plus_square.add(i)
        if apply(M, m):
            minus_square.add(i)
        pm, mp = apply(P, m), apply(M, p)
        if (pm or mp) and (len(pm) != len(mp) or any(mp.get(r) != -c for r, c in pm.items())):
            anticommute.add(i)
        squares[i] = pm
    return bad, squares


def decompose(K: KnotComplex) -> Decomposition:
    """The staircase and squares that a valid model is isomorphic to, computed once and kept on K.

    A model is a graded module over the exterior algebra on d+ and d-, which
    is self-injective, so a square (the free module, ``build_square``)
    splits off wherever d+ d- is nonzero; what is left has d+ d- = 0 and is
    a sum of zigzag strings (Auslander, Reiten and Smalo, *Representation
    Theory of Artin Algebras*, 1995, X.2).  A valid model has one class in
    each of H(d-) and H(d+), so it holds exactly one string, of odd length:
    the staircase of tau.  So ``assemble(StaircaseSpec(tau), squares)`` is
    isomorphic to K by a change of basis that keeps both gradings.

    The squares whose top generator sits in the (grading, z2) block of
    doubled grading 2s are counted by the rank of d+ d- on that block, with
    sign +1 for z2 = 1 as in ``build_square``.  ``validate`` ranks these
    after its pass over the generators and checks the dimension, and its clean
    report keeps the decomposition, so this is one read of it.  ModelError
    listing the violations if K is invalid.
    """
    report = K.report
    if report.decomposition is None:
        raise ModelError("invalid knot model: " + "; ".join(report.violations))
    return report.decomposition


# --- knot-spec text format -------------------------------------------------

def spec_field(obj, key: str, where: str, kind=int):
    """obj[key] checked to be a ``kind``; ModelError naming the field otherwise."""
    if not isinstance(obj, dict):
        raise ModelError(f"{where} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ModelError(f"{where} is missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelError(f"{where} field {key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_poly_pairs(data, where: str) -> Poly:
    """Polynomial from JSON [[coef, power], ...]; ModelError naming ``where`` otherwise."""
    if not isinstance(data, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in data):
        raise ModelError(f"{where} must be a list of integer [coef, power] pairs, got {data!r}")
    return poly_from_pairs(data)


def _check_genus(genus: int, what: str):
    if genus > MAX_MODEL_GENUS:
        raise ModelError(
            f"knot spec {what} {genus} exceeds the limit MAX_MODEL_GENUS = {MAX_MODEL_GENUS}")


def _check_scaled_bits(key: str, values: list):
    """ModelError unless a map's scale and its integers in ``KnotComplex.integer_maps`` fit."""
    scale = 1
    for v in values:
        if type(v) is not int and (scale := lcm(scale, v.denominator)).bit_length() > MAX_SPEC_BITS:
            raise ModelError(f"knot spec {key}: the LCM of its denominators exceeds "
                             f"the limit MAX_SPEC_BITS = {MAX_SPEC_BITS} bits")
    bits = max(((v * scale).numerator.bit_length() for v in values), default=0)
    if bits > MAX_SPEC_BITS:
        raise ModelError(f"knot spec {key}: an entry scaled by the LCM of its denominators "
                         f"has {bits} bits, over the limit MAX_SPEC_BITS = {MAX_SPEC_BITS}")


def parse_knot_spec(data: dict) -> KnotComplex:
    """Build a model from the JSON-compatible knot-spec format.

    Thin form: {"name", "alexander": [[coef, power], ...], "tau"}.
    Explicit form: {"generators": [{"id", "alex", "z2"}, ...],
                    "d_plus": [[src, tgt, num, den], ...], "d_minus": [...],
                    "genus", "tau"}; "alex" is the true integer grading.
    Data that does not fit the schema raises a ModelError naming the field,
    and a spec over MAX_MODEL_GENUS, MAX_MODEL_DIM, MAX_SPEC_ENTRIES or
    MAX_SPEC_BITS one naming the limit, before any model or map is built.
    """
    if not isinstance(data, dict) or ("alexander" not in data and "generators" not in data):
        raise ModelError("knot spec needs either 'alexander' or 'generators'")
    name = None if data.get("name") is None else spec_field(data, "name", "knot spec", str)
    tau = spec_field(data, "tau", "knot spec")
    if "alexander" in data:
        delta = parse_poly_pairs(data["alexander"], "knot spec field 'alexander'")
        if not delta:
            raise ModelError("empty Alexander polynomial")
        _check_genus(max(abs(p) for p in delta), "Alexander polynomial degree")
        if (norm := poly_norm(delta)) > MAX_MODEL_DIM:
            raise ModelError(f"knot spec coefficient norm {norm} (the model dimension) "
                             f"exceeds the limit MAX_MODEL_DIM = {MAX_MODEL_DIM}")
        return thin_from_alexander(delta, tau, name=name)
    genus = spec_field(data, "genus", "knot spec")
    _check_genus(genus, "genus")
    generators = spec_field(data, "generators", "knot spec", list)
    if len(generators) > MAX_MODEL_DIM:
        raise ModelError(f"knot spec has {len(generators)} generators, "
                         f"over the limit MAX_MODEL_DIM = {MAX_MODEL_DIM}")
    arrows = {key: spec_field(data, key, "knot spec", list) if key in data else []
              for key in ("d_plus", "d_minus")}
    if (count := sum(map(len, arrows.values()))) > MAX_SPEC_ENTRIES:
        raise ModelError(f"knot spec has {count} d_plus and d_minus entries, "
                         f"over the limit MAX_SPEC_ENTRIES = {MAX_SPEC_ENTRIES}")
    gens = []
    for i, g in enumerate(generators):
        where = f"knot spec generators[{i}]"
        gid, alex = spec_field(g, "id", where, str), spec_field(g, "alex", where)
        _check_genus(abs(alex), f"generators[{i}] field 'alex': |alex| =")
        gens.append((gid, 2 * alex, spec_field(g, "z2", where)))
    sp = space(gens)

    entries = {}
    for key, items in arrows.items():
        out = entries[key] = []
        for i, e in enumerate(items):
            if not (isinstance(e, list) and len(e) in (3, 4)
                    and isinstance(e[0], str) and isinstance(e[1], str)
                    and all(map(_is_int, e[2:])) and (len(e) == 3 or e[3] != 0)):
                raise ModelError(f"knot spec {key}[{i}] must be [source, target, numerator, "
                                 f"denominator?] with integer coefficients, got {e!r}")
            out.append((e[1], e[0], quotient(*e[2:]) if len(e) == 4 else e[2]))
        _check_scaled_bits(key, [v for _, _, v in out])

    K = KnotComplex(sp, sparse_map(sp, sp, entries["d_plus"]),
                    sparse_map(sp, sp, entries["d_minus"]), genus=genus, tau=tau,
                    meta=_meta(name, None))
    if not K.report.ok:
        raise ModelError("invalid explicit knot model: " + "; ".join(K.report.violations))
    return K


def knot_spec_dict(K: KnotComplex) -> dict:
    """Serialize a model into the explicit knot-spec format."""
    return {
        "name": K.name,
        "generators": [{"id": g.gid, "alex": g.alex // 2, "z2": g.z2}
                       for g in K.space.generators],
        "d_plus": [[src, tgt, v.numerator, v.denominator] for tgt, src, v in K.d_plus.entries],
        "d_minus": [[src, tgt, v.numerator, v.denominator] for tgt, src, v in K.d_minus.entries],
        "genus": K.genus,
        "tau": K.tau,
    }
