"""Seeded inputs for the four benchmark workloads.

Pure standard library: the parent process builds every input here and never
imports knotsurgery, so the library only ever sees the generated models and
slopes.  Each workload keeps its sizes fixed and lets the seed choose signs,
slopes, residues and order, so that one seed reproduces its inputs exactly,
another seed changes them, and the amount of work stays nearly the same
across seeds (runs with different seeds are compared with each other).

A spec is a JSON-ready dict:

- ``models``: ``{id: recipe}``; the child builds them before it reports ready.
- ``queries``: each has an ``op``, its arguments, a ``group`` label for the
  per-size diagnostics and ``n``, the number of answers it checks (what it
  adds to ``attempted``).
"""
from __future__ import annotations

import math
import random


# Case counts of each crosscheck suite at the seed commit; a suite that
# reports another count fails all of its cases.
SUITE_CASES = {
    "thin-vs-cone": 378,
    "circle-bundles": 51,
    "large-surgery": 105,
    "zero-surgery": 22,
    "whitehead-loop": 17,
    "seifert-gate": 27,
    "symmetries": 25,
}

STAIRCASE_GENERA = (12, 18, 24)
SQUARES_GENERA = (7, 9, 11)

# (catalog knot, lower end of its denominator band): the seed draws q from
# [band, 1.05 band], so the cone size of each slot barely moves with the seed.
# Each band keeps the slot's cone (about (2 genus - 1) q sources and targets)
# between two resize points of Python's dicts and sets, so peak RSS does not
# step with the seed.
LATTICE_KNOTS = (
    ("figure-eight", 8000),
    ("5_2-bar", 6000),
    ("t2_9", 2400),
    ("twist(-3)", 5000),
    ("t2_7-mirror", 2000),
    ("trefoil-left", 9000),
)

# Multi-fiber Seifert spaces have no independent pathway, so these values
# are regression references frozen at the seed commit, not cross-checks.
# One slot per multiplicity set (fixed prod v_i, so fixed cost); the seed
# picks one variant per slot.  Entries: (genus, m, ((r, v), ...), dimension).
SEIFERT_REGRESSION = (
    ((2, 1, ((2, 7), (-1, 11), (2, 13)), 30658),
     (2, 1, ((-2, 7), (8, 11), (-11, 13)), 23542),
     (2, -1, ((6, 7), (3, 11), (9, 13)), 25560),
     (2, 0, ((-1, 7), (-10, 11), (12, 13)), 20180)),
    ((3, -3, ((1, 3), (2, 7), (6, 11), (6, 13)), 439062),
     (3, 0, ((-2, 3), (6, 7), (1, 11), (-3, 13)), 311732),
     (3, 0, ((-2, 3), (-2, 7), (4, 11), (-7, 13)), 409992),
     (3, 0, ((-2, 3), (-3, 7), (5, 11), (1, 13)), 352112)),
    ((2, 1, ((-3, 5), (4, 7), (-9, 13), (8, 17)), 208356),
     (2, 0, ((3, 5), (-2, 7), (-11, 13), (4, 17)), 177726),
     (2, 3, ((-4, 5), (-4, 7), (-12, 13), (-15, 17)), 168086),
     (2, -2, ((1, 5), (2, 7), (1, 13), (2, 17)), 248042)),
    ((2, -1, ((6, 7), (-7, 11), (6, 13), (-5, 17)), 433676),
     (2, -1, ((6, 7), (4, 11), (12, 13), (-8, 17)), 438176),
     (2, -1, ((-2, 7), (9, 11), (1, 13), (-6, 17)), 449096),
     (2, 0, ((-3, 7), (-6, 11), (-10, 13), (13, 17)), 492386)),
)

CIRCLE_BUNDLE_GENERA = 4  # consecutive genera in the grid, starting at a seeded genus


def _slope(rng: random.Random, max_p: int, q: int) -> tuple:
    """A reduced nonzero slope p/q with |p| <= max_p and seeded sign."""
    while True:
        p = rng.randint(1, max_p)
        if math.gcd(p, q) == 1:
            return rng.choice((-1, 1)) * p, q


def _crosscheck(rng: random.Random) -> dict:
    order = list(SUITE_CASES)
    rng.shuffle(order)
    suites = [[name, SUITE_CASES[name]] for name in order]
    return {"models": {},
            "queries": [{"op": "battery", "suites": suites, "group": "battery",
                         "n": sum(SUITE_CASES.values())}],
            "params": {"suite_order": order}}


def _staircase(rng: random.Random) -> dict:
    models, queries = {}, []
    for g in STAIRCASE_GENERA:
        for sign in (1, -1):
            mid = f"staircase({sign * g})"
            models[mid] = {"kind": "staircase", "l": sign * g}
            slopes = [_slope(rng, 2 * g - 2, 1) for _ in range(2)]
            slopes += [_slope(rng, 3 * q, q) for q in rng.sample(range(2, 6), 2)]
            ops = [{"op": "scan", "model": mid}]
            ops += [{"op": "surgery", "model": mid, "p": p, "q": q} for p, q in slopes]
            rng.shuffle(ops)
            queries += [dict(o, group=f"g{g}", n=1) for o in ops]
    return {"models": models, "queries": queries,
            "params": {"genera": list(STAIRCASE_GENERA), "signs": [1, -1],
                       "queries_per_model": 5}}


def _squares(rng: random.Random) -> dict:
    models, queries = {}, []
    for g in SQUARES_GENERA:
        l = rng.choice((-3, -2, -1, 1, 2, 3))
        squares = [[s, rng.choice((-1, 1))] for s in range(1 - g, g) for _ in range(2)]
        mid = f"squares(g={g})"
        models[mid] = {"kind": "assemble", "l": l, "squares": squares}
        q = rng.randint(1, 3)
        p, q = _slope(rng, 4, q)
        queries.append({"op": "surgery", "model": mid, "p": p, "q": q, "group": f"g{g}", "n": 1})
    return {"models": models, "queries": queries,
            "params": {"genera": list(SQUARES_GENERA), "squares_per_level": 2}}


def _lattice(rng: random.Random) -> dict:
    models, queries = {}, []
    for name, band in LATTICE_KNOTS:
        models[name] = {"kind": "catalog", "name": name}
        p, q = _slope(rng, 9, rng.randint(band, band + band // 20))
        queries.append({"op": "surgery", "model": name, "p": p, "q": q, "group": "knots", "n": 1})
    for slot in SEIFERT_REGRESSION:
        g, m, pairs, want = rng.choice(slot)
        queries.append({"op": "seifert", "g": g, "m": m, "pairs": [list(x) for x in pairs],
                        "want": want, "group": "seifert", "n": 1})
    g0 = rng.randint(8, 12)
    for g in range(g0, g0 + CIRCLE_BUNDLE_GENERA):
        for m in range(-(2 * g + 2), 2 * g + 3):
            if m:
                queries.append({"op": "circle_bundle", "g": g, "m": m,
                                "group": "circle-bundles", "n": 1})
    return {"models": models, "queries": queries,
            "params": {"knots": [list(k) for k in LATTICE_KNOTS],
                       "seifert_slots": len(SEIFERT_REGRESSION),
                       "circle_bundle_genera": [g0, g0 + CIRCLE_BUNDLE_GENERA - 1]}}


_BUILDERS = {"crosscheck": _crosscheck, "staircase": _staircase,
             "squares": _squares, "lattice": _lattice}
WORKLOADS = tuple(_BUILDERS)


def make(workload: str, seed: int) -> dict:
    """The inputs of one workload for one seed; equal seeds give equal specs."""
    rng = random.Random(f"{workload}:{seed}")
    spec = _BUILDERS[workload](rng)
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
