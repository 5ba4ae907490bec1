"""Closed-form dimension formulas and classifiers.

Thin-knot surgeries, twisted Whitehead doubles, splicings with twist-knot
complements, the genus-one nearly-fibered lookup, and per-grading sanity
bounds for almost-minimal knots.  Companion data enters as a suture
dimension profile (tau, base dimension): the dimension at integer suture
slope n is base + |n + 2 tau|.
"""
from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional

from .knotcx import PreconditionError, poly_from_pairs, spec_field


class SutureDimProfile(NamedTuple("SutureDimProfile", [("tau", int), ("base_dim", int)])):
    """Suture dimensions of a knot complement, pinned by tau and one value.

    base_dim is the dimension at suture slope -2*tau, the minimum of the profile.
    """

    def __new__(cls, tau: int, base_dim: int):
        if base_dim < 0:
            raise PreconditionError("base dimension must be nonnegative")
        return super().__new__(cls, tau, base_dim)

    @classmethod
    def _make(cls, iterable):  # so that _replace runs the checks too
        return cls(*iterable)

    def dim_gamma(self, n: int) -> int:
        return self.base_dim + abs(n + 2 * self.tau)

    @property
    def gamma0(self) -> int:
        return self.dim_gamma(0)

    def check_gamma0(self, gamma0: Optional[int]) -> None:
        """PreconditionError unless gamma0 is None or equals this profile's gamma0."""
        if gamma0 is not None and gamma0 != self.gamma0:
            raise PreconditionError(
                f"inconsistent profile: gamma0 = {gamma0} but tau/base give {self.gamma0}")

    def mirror(self) -> "SutureDimProfile":
        return SutureDimProfile(-self.tau, self.base_dim)


UNKNOT_PROFILE = SutureDimProfile(tau=0, base_dim=0)


def parse_profile(data: Mapping) -> SutureDimProfile:
    """Companion-profile format: {"tau": int, "base_dim": int, "gamma0": optional int}.

    Data that does not fit the schema raises a ModelError naming the field.
    """
    where = "companion profile"
    prof = SutureDimProfile(spec_field(data, "tau", where), spec_field(data, "base_dim", where))
    if data.get("gamma0") is not None:
        prof.check_gamma0(spec_field(data, "gamma0", where))
    return prof


def _check_slope(p: int, q: int):
    """PreconditionError unless p/q is a nonzero reduced slope with q >= 1."""
    if q < 1:
        raise PreconditionError("slope denominator must be a positive integer")
    if p == 0:
        raise PreconditionError("slope must be nonzero")
    if math.gcd(abs(p), q) != 1:
        raise PreconditionError(f"slope {p}/{q} is not reduced")


def thin_surgery_formula(norm_delta: int, tau: int, p: int, q: int) -> int:
    """Surgery dimension of a thin model from its coefficient norm and tau."""
    _check_slope(p, q)
    if (norm_delta - 2 * abs(tau) - 1) % 4 != 0 or norm_delta < 2 * abs(tau) + 1:
        raise PreconditionError(
            f"coefficient norm {norm_delta} is inconsistent with tau = {tau}")
    if tau > 0:
        return (norm_delta + 2 * tau - 3) * q // 2 + abs(p - q * (2 * tau - 1))
    if tau < 0:
        return (norm_delta - 2 * tau - 3) * q // 2 + abs(-p - q * (-2 * tau - 1))
    return (norm_delta - 1) * q // 2 + abs(p)


class WhDoubleSpec(NamedTuple):
    t: int  # twist parameter
    companion: SutureDimProfile


class WhDoubleResult(NamedTuple):
    dim_plus_one: int
    dim_minus_one: int
    tau: int               # tau of the double
    top_grading_dim: int   # knot-homology dimension in the top grading


def whitehead_double_pm1(spec: WhDoubleSpec) -> WhDoubleResult:
    """Dimensions at slopes +1 and -1 for a positively clasped twisted double.

    The top-grading dimension equals the companion suture dimension at slope
    -t; tau of the double steps from 1 to 0 at t = 2 tau(companion).
    """
    d = spec.companion.dim_gamma(-spec.t)
    if spec.t < 2 * spec.companion.tau:
        return WhDoubleResult(2 * d - 1, 2 * d + 1, tau=1, top_grading_dim=d)
    return WhDoubleResult(2 * d + 1, 2 * d + 1, tau=0, top_grading_dim=d)


def whitehead_double_negative_clasp(spec: WhDoubleSpec) -> WhDoubleResult:
    """Negatively clasped doubles via the mirror relation only.

    The mirror of the negatively clasped t-twist double is the positively
    clasped (-t)-twist double of the mirrored companion, so the two slope
    dimensions swap.
    """
    pos = whitehead_double_pm1(WhDoubleSpec(-spec.t, spec.companion.mirror()))
    return WhDoubleResult(pos.dim_minus_one, pos.dim_plus_one,
                          tau=-pos.tau, top_grading_dim=pos.top_grading_dim)


def splice_dim(n: int, companion: SutureDimProfile) -> int:
    """Splice of a twist-knot complement with a nontrivial companion complement."""
    if n == 0:
        raise PreconditionError("twist parameter n must be nonzero")
    g0 = companion.gamma0
    if g0 == 0:
        raise PreconditionError("companion must be a nontrivial knot (gamma0 >= 1)")
    if companion.tau <= 0:
        return 2 * abs(n) * g0 + 1
    return abs(n) * (2 * g0 - 1) + abs(1 + n)


_NEARLY_FIBERED_DELTAS = {
    "positive-pair": {1: 2, 0: -3, -1: 2},
    "negative-pair": {1: -2, 0: 5, -1: -2},
}


def nearly_fibered_classify(dim_khi_total: int, delta) -> tuple:
    """Genus-one candidates with two-dimensional top grading.

    Callers assert genus one and top-grading dimension 2; the trichotomy is
    total dimension 7, or total dimension 9 with one of two specific
    polynomials.
    """
    if not isinstance(delta, dict):
        delta = poly_from_pairs(delta)
    if dim_khi_total == 7:
        return ("5_2", "5_2-bar")
    if dim_khi_total == 9 and delta == _NEARLY_FIBERED_DELTAS["positive-pair"]:
        return ("15n43522", "whitehead-double-neg2(trefoil-right)",
                "mirror(15n43522)", "mirror(whitehead-double-neg2(trefoil-right))")
    if dim_khi_total == 9 and delta == _NEARLY_FIBERED_DELTAS["negative-pair"]:
        return ("pretzel(-3,3,2n+1)", "whitehead-double-pos2(trefoil-right)",
                "mirror(pretzel(-3,3,2n+1))", "mirror(whitehead-double-pos2(trefoil-right))")
    raise PreconditionError(
        "not nearly-fibered genus-one per classification: "
        f"(dim, polynomial) = ({dim_khi_total}, {sorted(delta.items())})")


class ConditionReport(NamedTuple):
    ok: bool
    violations: tuple


def almost_lspace_necessary_conditions(genus: int, khi_dims: Mapping[int, int]) -> ConditionReport:
    """Per-grading dimension constraints a next-to-minimal knot must satisfy."""
    dims = {int(i): int(d) for i, d in khi_dims.items() if d}
    violations = []
    for i, d in dims.items():
        if dims.get(-i, 0) != d:
            violations.append(f"dimensions not symmetric at grading {i}")
            break
    if any(abs(i) > genus for i in dims):
        violations.append("nonzero dimension beyond the genus")

    def val(i):
        return dims.get(i, 0)

    if genus == 1:
        table = (val(1), val(0))
        if table not in ((1, 3), (2, 1), (2, 3)):
            violations.append(f"genus-1 table (top, middle) = {table} not allowed")
    elif genus == 2:
        if val(2) != 1:
            violations.append(f"genus-2 top dimension {val(2)} != 1")
        if val(1) not in (1, 2):
            violations.append(f"genus-2 dimension {val(1)} at grading 1 not in {{1, 2}}")
        if val(0) not in (1, 3):
            violations.append(f"genus-2 middle dimension {val(0)} not in {{1, 3}}")
    elif genus >= 3:
        for i in range(2, genus + 1):
            if val(i) > 1:
                violations.append(f"dimension {val(i)} > 1 at grading {i}")
                break
    else:
        violations.append("genus must be at least 1")
    return ConditionReport(not violations, tuple(violations))
