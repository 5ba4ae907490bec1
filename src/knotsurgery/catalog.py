"""Built-in knot models: small knots addressed by name.

All entries are thin (one staircase plus squares), so each is pinned by its
Alexander polynomial and tau invariant.  Twist knots twist(t) carry
polynomial -t*T + (2t+1) - t*T^-1 and tau = 1 for t < 0, else 0.
"""
from __future__ import annotations

from .knotcx import KnotComplex, ModelError, staircase_polynomial, thin_from_alexander


# name -> (Alexander polynomial as a dict or [coef, power] pairs, tau).
_ENTRIES = {
    "unknot": ([(1, 0)], 0),
    "trefoil-right": ([(1, 1), (-1, 0), (1, -1)], 1),
    "trefoil-left": ([(1, 1), (-1, 0), (1, -1)], -1),
    "figure-eight": ([(-1, 1), (3, 0), (-1, -1)], 0),
    "5_2-bar": ([(2, 1), (-3, 0), (2, -1)], 1),
    "5_2": ([(2, 1), (-3, 0), (2, -1)], -1),
}
for _n in range(2, 6):
    _ENTRIES[f"t2_{2 * _n + 1}"] = (staircase_polynomial(_n), _n)
    _ENTRIES[f"t2_{2 * _n + 1}-mirror"] = (staircase_polynomial(_n), -_n)
for _t in range(-3, 4):
    _ENTRIES[f"twist({_t})"] = ([(-_t, 1), (2 * _t + 1, 0), (-_t, -1)], 1 if _t < 0 else 0)

_ALIASES = {
    "trefoil": "trefoil-right",
    "t2_3": "trefoil-right",
    "t2_3-mirror": "trefoil-left",
    "fig8": "figure-eight",
    "figure8": "figure-eight",
    "4_1": "figure-eight",
    "52": "5_2",
    "52bar": "5_2-bar",
    "mirror-5_2": "5_2-bar",
    "mirror-t2_5": "t2_5-mirror",
    "mirror-t2_7": "t2_7-mirror",
    "mirror-t2_9": "t2_9-mirror",
    "mirror-t2_11": "t2_11-mirror",
}


def knot_names() -> list:
    return sorted(_ENTRIES)


def resolve_name(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _ENTRIES:
        raise ModelError(f"unknown catalog knot {name!r}; known names: {', '.join(knot_names())}")
    return key


_BUILT: dict = {}  # canonical name -> model, each built on first request


def get_knot(name: str) -> KnotComplex:
    """The catalog model, built once per process (models are immutable)."""
    key = resolve_name(name)
    if key not in _BUILT:
        delta, tau = _ENTRIES[key]
        _BUILT[key] = thin_from_alexander(delta, tau, name=key)
    return _BUILT[key]


def thin_catalog() -> list:
    """All catalog models (every entry is thin)."""
    return [get_knot(n) for n in knot_names()]
