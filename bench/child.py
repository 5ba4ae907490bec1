"""One benchmark sample, run by run.py in a fresh single-threaded process.

Reads ``{"spec", "trace", "corrupt"}`` as JSON on stdin, imports knotsurgery
from the checkout's ``src/``, builds the spec's models, then answers every
query and checks each answer against its reference.  Writes JSON lines to
stdout: ``{"ready": t, "scale"}`` once the models are built, one ``{"i",
"n", "bad", "t"}`` line per finished query, and a final ``{"end": t, ...}``
summary.  Times ``t`` are ``time.monotonic()``, which the parent shares.

On a shared virtual machine the CPU speed drifts with the load of other
tenants, by up to 1.7x for stretches of seconds to minutes, and it moves
every query alike.  So the child times a fixed piece of exact arithmetic
(``calibrate``, independent of ``src/``) right after it is ready and again
whenever about ``CAL_EVERY_S`` of queries have run, and scales each stretch
of query time by ``REF_CAL_S`` over the mean of the two calibrations around
it: the reported seconds are seconds at a fixed reference speed.  Raw
seconds are reported too.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAL_EVERY_S = 0.5
# Reference speed: calibrate() takes 15 ms, about its time on a quiet
# 2-vCPU Intel Xeon virtual machine with Python 3.11.
REF_CAL_S = 0.015


def _cal_rows(n: int = 48, seed: int = 1) -> list:
    rng = random.Random(seed)
    return [{rng.randrange(n): Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
             for _ in range(4)} for _ in range(n)]


CAL_ROWS = _cal_rows()


def _eliminate() -> int:
    pivots = {}
    for row in CAL_ROWS:
        r = dict(row)
        while r:
            p = min(r)
            hit = pivots.get(p)
            if hit is None:
                lead = r[p]
                pivots[p] = {k: v / lead for k, v in r.items()}
                break
            c = r[p]
            for k, v in hit.items():
                a = r.get(k, 0) - c * v
                if a:
                    r[k] = a
                else:
                    r.pop(k, None)
    return len(pivots)


def _allocate() -> int:
    # many small tables rather than one large one, so the peak RSS barely moves
    size = 0
    for _ in range(50):
        table = {}
        for i in range(100):
            table[(i, str(i))] = (Fraction(i, 7), [i])
        size += len(table)
    return size


def calibrate() -> float:
    """Median seconds of three runs of a fixed sparse rational elimination plus
    a burst of small allocations.

    The mix matters: under contention from other tenants a pure arithmetic
    loop slows down more than the library does, and the allocation burst
    brings the two into line.  The collector is off, so the library's heap
    size cannot change the result.
    """
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _eliminate()
            _allocate()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` would do, except that exec carries the spawning process's
    peak over into it, so a large parent would set a floor.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _scan_reference(K, thin) -> list:
    """almost_lspace_scan's verdict rule applied to closed-form dimensions."""
    dims = [[n, thin(K.dim, K.tau, n, 1)] for n in range(1, 2 * K.genus + 4)]
    lspace = next((n for n, d in dims if d == n), None)
    almost = next((n for n, d in dims if d == n + 2), None)
    if lspace is not None:
        return ["lspace", lspace, dims]
    if almost is not None:
        return ["almost", almost, dims]
    return ["neither", None, dims]


def main() -> int:
    job = json.load(sys.stdin)
    spec = job["spec"]
    sys.path.insert(0, str(SRC))
    import knotsurgery
    from knotsurgery import borromean, catalog, cone, crosscheck, formulas, knotcx

    if not Path(knotsurgery.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"knotsurgery imported from {knotsurgery.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    # References are bound before tracing wraps anything, so reference checks
    # never count towards the traced layers.
    thin = formulas.thin_surgery_formula
    bundle_formula = borromean.circle_bundle_dim_formula
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    models = {}
    for mid, r in spec["models"].items():
        if r["kind"] == "staircase":
            models[mid] = knotcx.build_staircase(r["l"])
        elif r["kind"] == "assemble":
            squares = [knotcx.SquareSpec(s, sign) for s, sign in r["squares"]]
            models[mid] = knotcx.assemble(knotcx.StaircaseSpec(r["l"]), squares)
        else:
            models[mid] = catalog.get_knot(r["name"])

    def solve(q):
        """(answer, reference) for one query; both JSON-ready."""
        op = q["op"]
        if op == "surgery":
            K = models[q["model"]]
            return cone.surgery_dim(K, q["p"], q["q"]).dimension, thin(K.dim, K.tau, q["p"], q["q"])
        if op == "scan":
            K = models[q["model"]]
            res = cone.almost_lspace_scan(K)
            return [res.verdict, res.witness, [list(x) for x in res.dims]], _scan_reference(K, thin)
        if op == "seifert":
            return borromean.seifert_dim(q["g"], q["m"], [tuple(x) for x in q["pairs"]]), q["want"]
        if op == "circle_bundle":
            return borromean.circle_bundle_dim_module(q["g"], q["m"]), bundle_formula(q["g"], q["m"])
        if op == "battery":
            results = crosscheck.run_suites([name for name, _ in q["suites"]])
            return ([[r.name, r.cases, len(r.mismatches)] for r in results],
                    [[name, cases, 0] for name, cases in q["suites"]])
        raise ValueError(f"unknown query op {op!r}")

    def failures(q, got, want) -> int:
        if q["op"] != "battery":
            return 0 if got == want else q["n"]
        if len(got) != len(want):
            return q["n"]
        # a suite fails its mismatches, or all of its cases if it ran another battery
        return sum(g[2] if g[:2] == w[:2] else w[1] for g, w in zip(got, want))

    def perturb(q, want):
        if q["op"] == "battery":  # the first suite expects one case more
            return [[want[0][0], want[0][1] + 1, 0]] + want[1:]
        if q["op"] == "scan":  # every dimension one higher
            return [want[0], want[1], [[n, d + 1] for n, d in want[2]]]
        return want + 1

    t_ready = time.monotonic()
    cal_prev = calibrate()
    _emit({"ready": t_ready, "scale": REF_CAL_S / cal_prev})
    answers = []
    raw_run = raw_cpu = run = cpu = 0.0
    seg_run = seg_cpu = 0.0  # query time since the last calibration
    queries = spec["queries"]
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0, c0 = time.monotonic(), _cpu_s()
        try:
            got, want = solve(q)
            if i == job.get("corrupt"):
                want = perturb(q, want)
            bad, err = failures(q, got, want), None
        except Exception as exc:  # a query that raises is a failed query; keep going
            got, bad, err = None, q["n"], f"{type(exc).__name__}: {exc}"
        dt, dc = time.monotonic() - t0, _cpu_s() - c0
        answers.append(got)
        line = {"i": i, "n": q["n"], "bad": bad, "t": dt}
        if bad:
            line["err"] = err or f"answer {json.dumps(got)[:200]} != reference {json.dumps(want)[:200]}"
        _emit(line)
        seg_run += dt
        seg_cpu += dc
        if seg_run >= CAL_EVERY_S or i == len(queries) - 1:
            cal = calibrate()
            scale = REF_CAL_S / ((cal_prev + cal) / 2)
            raw_run, raw_cpu = raw_run + seg_run, raw_cpu + seg_cpu
            run, cpu = run + seg_run * scale, cpu + seg_cpu * scale
            seg_run = seg_cpu = 0.0
            cal_prev = cal
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    _emit({"end": time.monotonic(), "run_s": run, "cpu_s": cpu, "raw_run_s": raw_run,
           "raw_cpu_s": raw_cpu, "digest": digest,
           "rss_kb": _peak_rss_kb(),
           "trace": tracer.report() if tracer is not None else None})
    return 0


if __name__ == "__main__":
    sys.exit(main())
