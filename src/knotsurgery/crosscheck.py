"""Agreement suites: every computation pathway checked against the others.

``pathway_values`` is the one table of the knot pathways that apply at a
slope; ``surgery --compare`` prints it and ``thin-vs-cone`` checks it.
Each suite returns a list of mismatch descriptions (empty means pass) plus
a case count, so the command-line front end can render them and fail the
run when anything disagrees.
"""
from __future__ import annotations

from typing import NamedTuple

from . import borromean, catalog, cone, formulas
from .knotcx import mirror

SLOPE_GRID = [(1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1), (5, 1), (-5, 1),
              (1, 2), (-1, 2), (1, 3), (-1, 3), (2, 3), (-2, 3), (5, 2), (-5, 2),
              (7, 3), (-7, 3)]
PATHWAYS = ("decomposition", "cone", "large-surgery", "ladder")


class SuiteResult(NamedTuple):
    name: str
    cases: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def pathway_values(K, p: int, q: int) -> dict:
    """Every knot pathway that applies at slope p/q, by name, in ``PATHWAYS`` order.

    The decomposition (``surgery_dim``) goes first, so its slope checks
    guard every oracle.  The ranked cone always applies, the large-surgery
    direct sum at integral slopes from ``large_surgery_start(K)``, and the
    genus-one ladder at positive integral slopes.
    """
    values = {"decomposition": cone.surgery_dim(K, p, q).dimension,
              "cone": cone.build_cone_problem(K, p, q).dimension()}
    if q == 1 and p >= cone.large_surgery_start(K):
        values["large-surgery"] = cone.large_surgery_dim(K, p)
    if K.genus == 1 and q == 1 and p >= 1:
        values["ladder"] = cone.genus_one_positive_ladder(K, p)
    return values


def suite_thin_vs_cone() -> SuiteResult:
    """Every row of the pathway table agrees, over the catalog and the slope grid.

    ``surgery_dim`` reads the model's decomposition.  The independent legs
    read the model's level table: the ranked cone, the large-surgery direct
    sum in its regime, and the genus-one ladder, anchored on level 0.
    """
    cases = 0
    bad = []
    for K in catalog.thin_catalog():
        for p, q in SLOPE_GRID:
            cases += 1
            values = pathway_values(K, p, q)
            if len(set(values.values())) != 1:
                bad.append(f"{K.name} at {p}/{q}: "
                           + ", ".join(f"{name} {v}" for name, v in values.items()))
    return SuiteResult("thin-vs-cone", cases, bad)


def suite_circle_bundles() -> SuiteResult:
    """Module pathway == closed form on the full grid, plus spot anchors."""
    cases = 0
    bad = []
    for g in range(2, 5):
        for m in list(range(-(2 * g + 2), 0)) + list(range(1, 2 * g + 3)):
            cases += 1
            a = borromean.circle_bundle_dim_module(g, m)
            b = borromean.circle_bundle_dim_formula(g, m)
            if a != b:
                bad.append(f"circle bundle (g={g}, m={m}): module {a} != formula {b}")
            if abs(m) >= 2 * g - 1 and a != (4 ** g) * abs(m):
                bad.append(f"circle bundle (g={g}, m={m}): large value {a} != {(4 ** g) * abs(m)}")
    for g, m, want in ((2, 3, 48), (2, 2, 34), (2, 1, 20)):
        cases += 1
        got = borromean.circle_bundle_dim_module(g, m)
        if got != want:
            bad.append(f"circle bundle (g={g}, m={m}): {got} != expected {want}")
    return SuiteResult("circle-bundles", cases, bad)


def suite_large_surgery() -> SuiteResult:
    """Direct-sum shortcut == full cone for n >= 2g-1, increments of one after."""
    cases = 0
    bad = []
    for K in catalog.thin_catalog():
        start = cone.large_surgery_start(K)
        prev = None
        for n in range(start, start + 5):
            cases += 1
            large = cone.large_surgery_dim(K, n)
            full = cone.build_cone_problem(K, n, 1).dimension()
            if large != full:
                bad.append(f"{K.name} at {n}: shortcut {large} != cone {full}")
            if prev is not None and large - prev != 1:
                bad.append(f"{K.name}: dim({n}) - dim({n - 1}) = {large - prev} != 1")
            prev = large
    return SuiteResult("large-surgery", cases, bad)


def suite_zero_surgery() -> SuiteResult:
    """The closed form equals the level table and vanishes beyond the genus; frozen mirror-(2,5) table."""
    cases = 0
    bad = []
    for K in catalog.thin_catalog():
        cases += 1
        table = cone.zero_surgery_dims(K, span=K.genus + 1)
        oracle = cone.zero_surgery_levels(K, span=K.genus + 1)
        if table != oracle:
            bad.append(f"{K.name}: zero-surgery table {table} != level table {oracle}")
        for s, d in table.items():
            if abs(s) >= K.genus and d not in (0, None):
                bad.append(f"{K.name}: zero-surgery slot {s} has dim {d}, expected 0")
    cases += 1
    got = cone.zero_surgery_dims(mirror(catalog.get_knot("t2_5")))
    if got != {-1: 2, 0: 2, 1: 2}:
        bad.append(f"mirror t2_5 zero-surgery table {got} != {{-1: 2, 0: 2, 1: 2}}")
    return SuiteResult("zero-surgery", cases, bad)


def suite_whitehead_loop() -> SuiteResult:
    """Unknot doubles at t = -1, 0, 1 and twist knots reproduce ranked cone values; tau steps at 0.

    The ranked cone, at slopes +1 and -1, reads each model's level table,
    not the decomposition that ``surgery_dim`` reads.
    """
    bad = []
    cases = 0
    targets = {-1: "trefoil-right", 0: "unknot", 1: "figure-eight"}
    for t, name in targets.items():
        cases += 1
        res = formulas.whitehead_double_pm1(formulas.WhDoubleSpec(t, formulas.UNKNOT_PROFILE))
        K = catalog.get_knot(name)
        plus, minus = (cone.build_cone_problem(K, p, 1).dimension() for p in (1, -1))
        if (res.dim_plus_one, res.dim_minus_one) != (plus, minus):
            bad.append(f"double t={t}: ({res.dim_plus_one}, {res.dim_minus_one}) != cone ({plus}, {minus})")
    for t in range(-3, 4):
        cases += 1
        tau = formulas.whitehead_double_pm1(formulas.WhDoubleSpec(t, formulas.UNKNOT_PROFILE)).tau
        if tau != (1 if t < 0 else 0):
            bad.append(f"double t={t}: tau {tau} != step value {(1 if t < 0 else 0)}")
    for t in range(-3, 4):
        cases += 1
        K = catalog.get_knot(f"twist({t})")
        res = formulas.whitehead_double_pm1(formulas.WhDoubleSpec(t, formulas.UNKNOT_PROFILE))
        plus, minus = (cone.build_cone_problem(K, p, 1).dimension() for p in (1, -1))
        if (res.dim_plus_one, res.dim_minus_one) != (plus, minus):
            bad.append(f"twist({t}): formula ({res.dim_plus_one}, {res.dim_minus_one}) "
                       f"!= cone ({plus}, {minus})")
    return SuiteResult("whitehead-loop", cases, bad)


def suite_seifert_gate() -> SuiteResult:
    """Integral multiplicities reduce to circle bundles; large-surgery answers equal the cone."""
    bad = []
    cases = 0
    for g in (2, 3):
        for euler in range(-(2 * g + 1), 2 * g + 2):
            if euler == 0:
                continue
            cases += 1
            sign = 1 if euler > 0 else -1
            pairs = [(sign, 1)] * (abs(euler) - 1)
            a = borromean.seifert_dim(g, sign, pairs)
            b = borromean.circle_bundle_dim_module(g, euler)
            if a != b:
                bad.append(f"seifert (g={g}, euler={euler}): {a} != circle bundle {b}")
    for g, m, pairs in ((2, 3, [(1, 2)]), (2, 2, [(1, 3)]), (3, 4, [(2, 5)])):
        cases += 1
        full = borromean.seifert_dim_windowed(g, m, pairs)
        res = borromean.seifert(g, m, pairs)
        if res.pathway == "large-surgery" and res.dim != full:
            bad.append(f"seifert (g={g}, m={m}, {pairs}): shortcut {res.dim} != cone {full}")
    return SuiteResult("seifert-gate", cases, bad)


def suite_symmetries() -> SuiteResult:
    """Mirror symmetry, parity and lower bound, window stability."""
    bad = []
    cases = 0
    sample = ["trefoil-right", "figure-eight", "5_2-bar", "t2_5", "twist(2)"]
    slopes = [(1, 1), (-2, 1), (3, 1), (1, 2), (-2, 3)]
    for name in sample:
        K = catalog.get_knot(name)
        M = mirror(K)
        for p, q in slopes:
            cases += 1
            a = cone.surgery_dim(K, p, q).dimension
            b = cone.surgery_dim(M, -p, q).dimension
            if a != b:
                bad.append(f"{name}: dim({p}/{q}) = {a} != mirror dim({-p}/{q}) = {b}")
            if a < abs(p) or (a - p) % 2 != 0:
                bad.append(f"{name} at {p}/{q}: dim {a} violates parity/bound vs p = {p}")
            wide = cone.build_cone_problem(K, p, q, window_margin=4).dimension()
            if wide != cone.build_cone_problem(K, p, q).dimension():
                bad.append(f"{name} at {p}/{q}: window enlargement changed the answer")
    return SuiteResult("symmetries", cases, bad)


ALL_SUITES = {
    "thin-vs-cone": suite_thin_vs_cone,
    "circle-bundles": suite_circle_bundles,
    "large-surgery": suite_large_surgery,
    "zero-surgery": suite_zero_surgery,
    "whitehead-loop": suite_whitehead_loop,
    "seifert-gate": suite_seifert_gate,
    "symmetries": suite_symmetries,
}


def run_suites(names=None) -> list:
    picked = list(ALL_SUITES) if not names else list(names)
    out = []
    for name in picked:
        if name not in ALL_SUITES:
            raise cone.PreconditionError(
                f"unknown crosscheck suite {name!r}; available: {', '.join(ALL_SUITES)}")
        out.append(ALL_SUITES[name]())
    return out
