"""Spans and counters around knotsurgery's public functions, installed from outside.

Nothing under ``src/`` knows about tracing: ``install`` replaces each traced
function in every knotsurgery module that binds it (``homology`` is bound in
``linalg``, ``knotcx`` and ``cone``; ``validate`` in ``knotcx`` and ``cone``;
and so on), because patching only the defining module would silently miss
the calls made through the other bindings.  Spans stay in memory and are
returned by ``report`` when the sample ends.
"""
from __future__ import annotations

import itertools
import sys
import time

# metric key -> (module, attribute) of each function traced under that key.
SPANNED = {
    "linalg.homology": [("linalg", "homology")],
    "linalg.induced_map": [("linalg", "induced_map_on_homology")],
    "knotcx.validate": [("knotcx", "validate")],
    "knotcx.build": [("knotcx", "build_staircase"), ("knotcx", "assemble"),
                     ("knotcx", "thin_from_alexander"), ("knotcx", "mirror")],
    "catalog.get_knot": [("catalog", "get_knot")],
    "cone.surgery_dim": [("cone", "surgery_dim")],
    "cone.almost_lspace_scan": [("cone", "almost_lspace_scan")],
    "cone.zero_surgery_dims": [("cone", "zero_surgery_dims")],
    "cone.bent_homology": [("cone", "bent_homology")],
    "cone.pi_maps": [("cone", "pi_maps")],
    "cone.build_cone_problem": [("cone", "build_cone_problem")],
    "cone.dimension": [("cone", "ConeProblem.dimension")],
    "borromean.seifert_dim": [("borromean", "seifert_dim")],
    "borromean.circle_bundle_dim_module": [("borromean", "circle_bundle_dim_module")],
}
# Called too often for a span each: counted only.
COUNTED = {"linalg.echelon.reduce": ("linalg", "Echelon.reduce")}


class Tracer:
    def __init__(self):
        self.spans = []   # (span id, parent span id, query index, key, start, end)
        self.query = None  # index of the query being answered; set by the caller
        self.stats = {}   # key -> [calls, total seconds, self seconds]
        self.counts = {}  # counter name -> count
        self.bindings = {}  # key -> sorted "module.attr" names that were patched
        self._stack = []  # open frames: [span id, seconds covered by child spans]
        self._ids = itertools.count()

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _record(self, key, sid, parent, start, end, child_s):
        dur = end - start
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        self.spans.append((sid, parent, self.query, key, start, end))
        if self._stack:
            self._stack[-1][1] += dur

    def spanned(self, key: str, fn, on_result=None):
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._record(key, sid, parent, start, end, frame[1])
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def counted(self, key: str, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _cone_sizes(self, problem):
        self.count("cone.sources", len(problem.sources))
        self.count("cone.targets", len(problem.targets))

    def _patch(self, key: str, module: str, attr: str, wrap):
        """Replace module.attr (or module.Class.method) everywhere it is bound."""
        owner = sys.modules[f"knotsurgery.{module}"]
        names = attr.split(".")
        for name in names[:-1]:
            owner = getattr(owner, name, None)
        original = getattr(owner, names[-1], None)
        if original is None:  # renamed or removed: its metrics read zero
            self.bindings.setdefault(key, [])
            return
        wrapped = wrap(original)
        patched = []
        if len(names) > 1:
            setattr(owner, names[-1], wrapped)
            patched.append(f"{module}.{attr}")
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "knotsurgery" and not mod_name.startswith("knotsurgery."):
                    continue
                for var, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, var, wrapped)
                        patched.append(f"{mod_name}.{var}")
        self.bindings.setdefault(key, []).extend(sorted(patched))

    def install(self):
        """Wrap every traced function; call after importing all knotsurgery modules."""
        for key, targets in SPANNED.items():
            hook = self._cone_sizes if key == "cone.build_cone_problem" else None
            for module, attr in targets:
                self._patch(key, module, attr, lambda fn, k=key, h=hook: self.spanned(k, fn, h))
        for key, (module, attr) in COUNTED.items():
            self._patch(key, module, attr, lambda fn, k=key: self.counted(k, fn))
        formulas = sys.modules["knotsurgery.formulas"]
        for attr, value in list(vars(formulas).items()):
            if callable(value) and getattr(value, "__module__", None) == formulas.__name__ \
                    and not isinstance(value, type) and not attr.startswith("_"):
                self._patch("formulas", "formulas", attr, lambda fn: self.spanned("formulas", fn))
        suites = sys.modules["knotsurgery.crosscheck"].ALL_SUITES
        for name, fn in list(suites.items()):
            suites[name] = self.spanned(f"crosscheck.{name}", fn)
            self.bindings[f"crosscheck.{name}"] = [f"knotsurgery.crosscheck.ALL_SUITES[{name!r}]"]

    def report(self) -> dict:
        return {"stats": {k: {"calls": c, "total_s": t, "self_s": s}
                          for k, (c, t, s) in sorted(self.stats.items())},
                "counts": dict(sorted(self.counts.items())),
                "bindings": self.bindings,
                "spans": self.spans}
