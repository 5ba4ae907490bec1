"""Acceptance gate: one test per criterion, exact integer equalities only.

Each test prints a single PASS line on success; a failure raises with the
offending cases, so the suite output shows one line per criterion.
"""
import random
from fractions import Fraction

from knotsurgery import borromean, catalog, cone, crosscheck, formulas
from knotsurgery.knotcx import chi_graded, mirror, validate
from cone_elimination import elimination_dimension, h_sources
from level_oracle import compute_tau
from test_properties import random_thin_models


def _report(num: int, text: str, mismatches):
    assert not mismatches, f"ACCEPTANCE {num}: FAIL - {text}: {mismatches[:8]}"
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_acceptance_1_almost_lspace_anchors():
    bad = []
    anchors = {"trefoil-left": 3, "figure-eight": 3, "5_2-bar": 3, "trefoil-right": 1}
    for name, want in anchors.items():
        got = cone.surgery_dim(catalog.get_knot(name), 1, 1).dimension
        if got != want:
            bad.append(f"{name} at +1: {got} != {want}")
    verdicts = {"trefoil-left": "almost", "figure-eight": "almost", "5_2-bar": "almost",
                "trefoil-right": "lspace", "t2_5": "lspace", "t2_7": "lspace"}
    for name, want in verdicts.items():
        got = cone.almost_lspace_scan(catalog.get_knot(name)).verdict
        if got != want:
            bad.append(f"scan {name}: {got} != {want}")
    _report(1, "slope +1 anchors and scan verdicts", bad)


def test_acceptance_2_circle_bundles():
    _report(2, "circle-bundle module pathway equals closed form",
            crosscheck.suite_circle_bundles().mismatches)


def test_acceptance_3_thin_oracle_equivalence():
    _report(3, "decomposition, cone, large-surgery sum and ladder agree on the slope grid",
            crosscheck.suite_thin_vs_cone().mismatches)


def test_acceptance_4_large_surgery_consistency():
    bad = list(crosscheck.suite_large_surgery().mismatches)
    for K in catalog.thin_catalog():  # one slope past the suite's five
        n = cone.large_surgery_start(K) + 5
        shortcut = cone.large_surgery_dim(K, n)
        full = cone.build_cone_problem(K, n, 1).dimension()
        if shortcut != full:
            bad.append(f"{K.name} at {n}: shortcut {shortcut} != cone {full}")
        step = shortcut - cone.large_surgery_dim(K, n - 1)
        if step != 1:
            bad.append(f"{K.name}: dim({n}) - dim({n - 1}) = {step} != 1")
    _report(4, "direct-sum shortcut equals the cone, increments of one", bad)


def test_acceptance_5_zero_surgery():
    bad = list(crosscheck.suite_zero_surgery().mismatches)
    for K in catalog.thin_catalog():  # one grading past the suite's span
        table = cone.zero_surgery_dims(K, span=K.genus + 2)
        for s in (-K.genus - 2, K.genus + 2):
            if table[s] != 0:
                bad.append(f"{K.name} grading {s}: dim {table[s]} != 0")
    _report(5, "zero-surgery support bound and the frozen mirror-(2,5) table", bad)


def test_acceptance_6_whitehead_loop():
    bad = list(crosscheck.suite_whitehead_loop().mismatches)
    for t in (-4, 4):  # the suite steps t = -3..3
        tau = formulas.whitehead_double_pm1(formulas.WhDoubleSpec(t, formulas.UNKNOT_PROFILE)).tau
        if tau != (1 if t < 0 else 0):
            bad.append(f"tau step broken at t={t}: {tau}")
    _report(6, "unknot doubles reproduce cone values; tau steps at t=0", bad)


def test_whitehead_loop_reads_the_ranked_cone(monkeypatch):
    def refuse(*args):
        raise AssertionError("the suite read surgery_dim")

    ranked = []
    build = cone.build_cone_problem

    def counted(K, p, q, *args, **kwargs):
        ranked.append((K.name, p, q))
        return build(K, p, q, *args, **kwargs)

    monkeypatch.setattr(cone, "surgery_dim", refuse)
    monkeypatch.setattr(cone, "build_cone_problem", counted)
    res = crosscheck.suite_whitehead_loop()
    assert res.ok and res.cases == 17
    assert len(ranked) == 20 and {(p, q) for _, p, q in ranked} == {(1, 1), (-1, 1)}


def test_acceptance_7_property_suites():
    bad = []
    models = catalog.thin_catalog() + random_thin_models(50)
    rng = random.Random(5)
    for K in models:
        report = validate(K)
        if not report.ok:
            bad.append(f"{K.name}: {report.violations}")
            continue
        dims = K.space.dims_by_grading()
        if any(dims.get(-a, 0) != n for a, n in dims.items()):
            bad.append(f"{K.name}: asymmetric gradings")
        chi = chi_graded(K)
        if chi != K.delta() and {p: -c for p, c in chi.items()} != K.delta():
            bad.append(f"{K.name}: Euler characteristic mismatch")
        if compute_tau(K) != K.tau:
            bad.append(f"{K.name}: tau mismatch")
    for K in models:
        for p, q in ((1, 1), (-2, 1), (1, 2)):
            dim = cone.surgery_dim(K, p, q).dimension
            if dim < abs(p) or (dim - p) % 2:
                bad.append(f"{K.name} {p}/{q}: parity/bound broken ({dim})")
            if cone.surgery_dim(mirror(K), -p, q).dimension != dim:
                bad.append(f"{K.name} {p}/{q}: mirror symmetry broken")
            prob = cone.build_cone_problem(K, p, q)
            base_cone = prob.dimension()
            if base_cone != cone.build_cone_problem(K, p, q, window_margin=4).dimension():
                bad.append(f"{K.name} {p}/{q}: window instability")
            for src in h_sources(prob)[:2]:
                c = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
                if elimination_dimension(K, prob, {src: c}) != base_cone:
                    bad.append(f"{K.name} {p}/{q}: scalar dependence")
    _report(7, "differential/grading/parity/stability/scalar property suites", bad)


def test_acceptance_8_seifert_gate():
    bad = list(crosscheck.suite_seifert_gate().mismatches)
    g, m, pairs = 2, 5, [(1, 3)]  # a fibre pair the suite does not try
    res = borromean.seifert(g, m, pairs)
    full = borromean.seifert_dim_windowed(g, m, pairs)
    if res.pathway == "large-surgery" and res.dim != full:
        bad.append(f"(g={g}, m={m}, {pairs}): shortcut {res.dim} != cone {full}")
    _report(8, "integral-multiplicity reduction and large-slope agreement", bad)
