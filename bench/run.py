"""Cold-process benchmark for knotsurgery.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Each sample is one fresh single-threaded child process (``child.py``) that
imports the library from ``src/``, builds the workload's models, answers its
queries and checks every answer.  Samples run one after another while a
typical one still ends within ``--seconds``; each has a deadline after which
it is killed and its unfinished queries count as failed.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A full record with provenance, per-sample figures and the
per-size diagnostics goes to ``bench/results/``.  See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
RESULTS = BENCH / "results"
SAMPLE_DEADLINE_S = 60.0
RUN_LIMIT_S = 170.0  # no sample starts or runs past this point of a run
EMPTY_SPEC = {"models": {}, "queries": []}
# Fixed string hashing keeps the traced counts identical from run to run.
CHILD_ENV = {**{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
             "PYTHONHASHSEED": "0"}
T_START = time.monotonic()


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, no sample started)."""


@dataclass
class Sample:
    """One child's outcome; times are reference-speed seconds (see child.py), raw_* as measured."""
    attempted: int = 0
    failed: int = 0
    setup_s: float | None = None
    run_s: float | None = None
    cpu_s: float | None = None
    raw_setup_s: float | None = None
    raw_run_s: float | None = None
    raw_cpu_s: float | None = None
    rss_mb: float | None = None
    digest: str | None = None
    trace: dict | None = None
    timed_out: bool = False
    wall_s: float = 0.0  # spawn to reaped
    query_s: dict = field(default_factory=dict)  # query index -> raw seconds
    errors: list = field(default_factory=list)


def _parse_lines(text: str) -> list:
    out = []
    for line in text.splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:  # a line cut off by a kill
            pass
    return out


def run_sample(spec: dict, trace: bool = False, corrupt: int | None = None,
               deadline: float = SAMPLE_DEADLINE_S) -> Sample:
    """Run one child to completion or until its deadline, then reap it."""
    payload = json.dumps({"spec": spec, "trace": trace, "corrupt": corrupt})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-s", str(CHILD)], cwd=ROOT, env=CHILD_ENV,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    sample = Sample()
    try:
        try:
            out, err = proc.communicate(payload, timeout=max(deadline, 0.01))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            sample.timed_out = True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_exit = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    sample.wall_s = t_exit - t_spawn

    lines = _parse_lines(out)
    ready = next((x for x in lines if "ready" in x), None)
    final = next((x for x in lines if "end" in x), None)
    done = {x["i"]: x for x in lines if "i" in x}
    for i, q in enumerate(spec["queries"]):
        sample.attempted += q["n"]
        if i in done:
            sample.failed += done[i]["bad"]
            sample.query_s[i] = done[i]["t"]
            if done[i]["bad"]:
                sample.errors.append(f"query {i} ({q['op']}): {done[i].get('err')}")
        else:
            sample.failed += q["n"]
    if sample.timed_out:
        sample.errors.append(f"killed at the {deadline:.1f} s deadline, "
                             f"{len(spec['queries']) - len(done)} queries unfinished")
    elif proc.returncode != 0:
        sample.errors.append(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    if ready is None:
        return sample
    sample.raw_setup_s = ready["ready"] - t_spawn
    sample.setup_s = sample.raw_setup_s * ready["scale"]
    if final is not None:
        sample.run_s, sample.cpu_s = final["run_s"], final["cpu_s"]
        sample.raw_run_s, sample.raw_cpu_s = final["raw_run_s"], final["raw_cpu_s"]
        sample.rss_mb = final["rss_kb"] / 1024
        sample.digest = final["digest"]
        sample.trace = final["trace"]
    else:  # killed or crashed: whole-child figures from the parent's view
        sample.raw_run_s = t_exit - ready["ready"]
        sample.raw_cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        sample.run_s = sample.raw_run_s * ready["scale"]
        sample.cpu_s = sample.raw_cpu_s * ready["scale"]
        sample.rss_mb = after.ru_maxrss / 1024
    return sample


def _remaining() -> float:
    return RUN_LIMIT_S - (time.monotonic() - T_START)


def _next_deadline() -> float:
    return min(SAMPLE_DEADLINE_S, _remaining())


def _room_for_another(t0: float, seconds: float, samples: list) -> bool:
    """Whether a sample as long as the typical one so far still ends within ``seconds``."""
    typical = statistics.median(s.wall_s for s in samples)
    return time.monotonic() - t0 + typical <= seconds and _remaining() > typical + 1


def _warm_up():
    """One import-only child, so no timed sample pays for writing bytecode caches."""
    s = run_sample(EMPTY_SPEC)
    if s.setup_s is None or s.errors:
        raise BenchError("the library does not import: " + "; ".join(s.errors))


def _median(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise BenchError("no sample reached the measured interval")
    return statistics.median(values)


def _size_diagnostics(spec: dict, samples: list) -> dict:
    """Median seconds per query group (the sweep sizes), over complete samples."""
    groups: dict = {}
    for s in samples:
        if len(s.query_s) != len(spec["queries"]):
            continue
        per: dict = {}
        for i, t in s.query_s.items():
            g = spec["queries"][i]["group"]
            per[g] = per.get(g, 0.0) + t
        for g, t in per.items():
            groups.setdefault(g, []).append(t)
    return {g: statistics.median(ts) for g, ts in groups.items()}


def end_to_end(samples: list) -> dict:
    out = {"peak_rss_mb": _median(s.rss_mb for s in samples)}
    for name in ("run_s", "cpu_s", "setup_s"):
        out[name] = _median(getattr(s, name) for s in samples)
        out[f"raw_{name}"] = _median(getattr(s, f"raw_{name}") for s in samples)
    return out


def timed_run(spec: dict, seconds: float) -> tuple:
    """Untraced samples while a typical one still fits in ``seconds``; (samples, metrics, problems)."""
    _warm_up()
    samples = []
    t0 = time.monotonic()
    while not samples or _room_for_another(t0, seconds, samples):
        samples.append(run_sample(spec, deadline=_next_deadline()))
    problems = [e for s in samples for e in s.errors]
    return samples, end_to_end(samples), problems


def layer_metrics(sample: Sample) -> dict:
    """Flat per-layer figures of one traced sample: calls, counts, and self and wall
    seconds scaled to reference speed like the sample's run_s."""
    trace, scale = sample.trace, sample.run_s / sample.raw_run_s
    out = {}
    for key, st in trace["stats"].items():
        out[f"{key}.calls"] = st["calls"]
        out[f"{key}.self_s"] = st["self_s"] * scale
        if key.startswith("crosscheck."):
            out[f"{key}.wall_s"] = st["total_s"] * scale
    for key, n in trace["counts"].items():
        out[key if key.startswith("cone.") else f"{key}.calls"] = n
    surgeries = out.get("cone.surgery_dim.calls", 0)
    out["cone.levels_per_query"] = out.get("cone.bent_homology.calls", 0) / surgeries if surgeries else 0.0
    return out


def traced_run(spec: dict, seconds: float) -> tuple:
    """Alternate untraced and traced samples; check answers and counts agree."""
    _warm_up()
    plain, traced = [], []
    t0 = time.monotonic()
    while len(traced) < 2 or _room_for_another(t0, seconds, plain + traced):
        plain.append(run_sample(spec, deadline=_next_deadline()))
        traced.append(run_sample(spec, trace=True, deadline=_next_deadline()))
    samples = plain + traced
    problems = [e for s in samples for e in s.errors]
    complete = [s for s in traced if s.trace is not None]
    if len(complete) < 2:
        raise BenchError("fewer than two traced samples completed")
    digests = {s.digest for s in samples}
    if len(digests) != 1:
        problems.append(f"traced and untraced answers differ: {len(digests)} distinct digests")
    per_sample = [layer_metrics(s) for s in complete]
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_sample]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between samples of one seed")
    metrics = dict(counts[0])
    for key in per_sample[0]:
        if key.endswith("_s"):
            metrics[key] = statistics.median(m.get(key, 0.0) for m in per_sample)
    metrics["tracing.overhead_s"] = _median(s.run_s for s in traced) - _median(s.run_s for s in plain)
    return samples, metrics, problems, complete[-1].trace


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(spec: dict, config: dict) -> dict:
    why = {w["name"]: w["why"] for w in config["workloads"]}
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu_model": _cpu_model(),
            "commit": _git_commit(),
            "src_sha256": _src_digest(),
            "workload": spec["workload"],
            "why": why.get(spec["workload"]),
            "seed": spec["seed"],
            "params": spec["params"]}


def _select(metrics: dict, wanted: list) -> dict:
    return {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def benchmark(args) -> dict:
    if not (ROOT / "src" / "knotsurgery" / "__init__.py").is_file():
        raise BenchError(f"no knotsurgery sources under {ROOT / 'src'}")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = workloads.make(args.workload, args.seed)
    record = {"provenance": provenance(spec, config), "seconds": args.seconds,
              "trace": args.trace, "sample_deadline_s": SAMPLE_DEADLINE_S}
    if args.trace:
        samples, metrics, problems, last_trace = traced_run(spec, args.seconds)
        wanted = config["per_layer"]
        record["spans"] = last_trace["spans"]
        record["bindings"] = last_trace["bindings"]
    else:
        samples, metrics, problems = timed_run(spec, args.seconds)
        wanted = config["end_to_end"]
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if attempted:
        metrics["fail_share"] = failed / attempted
    record.update(
        metrics=metrics,
        size_run_s=_size_diagnostics(spec, [s for s in samples if s.trace is None]),
        samples=[{"setup_s": s.setup_s, "run_s": s.run_s, "cpu_s": s.cpu_s,
                  "raw_setup_s": s.raw_setup_s, "raw_run_s": s.raw_run_s, "raw_cpu_s": s.raw_cpu_s,
                  "rss_mb": s.rss_mb, "traced": s.trace is not None, "attempted": s.attempted,
                  "failed": s.failed, "timed_out": s.timed_out} for s in samples],
        problems=problems)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    prov = record["provenance"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(samples)} samples, "
          f"python {prov['python']}, nproc {prov['nproc']}, {prov['cpu_model']}, "
          f"commit {prov['commit']}", file=sys.stderr)
    for k, v in sorted(metrics.items()):
        print(f"  {k} = {v}", file=sys.stderr)
    for g, t in record["size_run_s"].items():
        print(f"  size {g}: {t:.4f} s", file=sys.stderr)
    for p in problems[:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)
    print(f"  record: {out.relative_to(ROOT)}", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": _select(metrics, wanted)}


def self_test() -> int:
    """Show that the checks can fail: wrong references, deadlines, seeding, tracer bindings."""
    failures = 0

    def check(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", file=sys.stderr)

    for w in workloads.WORKLOADS:
        a, b, c = workloads.make(w, 1), workloads.make(w, 1), workloads.make(w, 2)
        check(f"{w}: seed 1 reproduces its inputs, seed 2 changes them",
              a == b and a["queries"] != c["queries"])
    _warm_up()
    for w in workloads.WORKLOADS:
        spec = workloads.make(w, 1)
        q0 = spec["queries"][0]
        # the battery's first suite is told to expect one case more, so all of them fail
        want = q0["suites"][0][1] + 1 if q0["op"] == "battery" else q0["n"]
        s = run_sample(spec, corrupt=0)
        check(f"{w}: one wrong reference fails exactly its query", s.failed == want,
              f"{s.failed} of {s.attempted} failed, expected {want}")
    spec = workloads.make("crosscheck", 1)
    s = run_sample(spec, deadline=0.2)
    check("a sample past its deadline is killed and all its queries fail",
          s.timed_out and s.failed == s.attempted > 0, f"{s.failed} of {s.attempted} failed")
    plain, traced = run_sample(spec), run_sample(spec, trace=True)
    check("traced answers equal untraced answers", plain.digest == traced.digest is not None)
    bound = traced.trace["bindings"] if traced.trace else {}
    for key, modules in (("linalg.homology", ("linalg", "knotcx", "cone")),
                         ("linalg.induced_map", ("linalg", "cone")),
                         ("knotcx.validate", ("knotcx", "cone"))):
        seen = {name.split(".")[1] for name in bound.get(key, [])}
        check(f"{key} is traced in every module that binds it", set(modules) <= seen,
              ", ".join(bound.get(key, [])))
    print(json.dumps({"self_test_failures": failures}))
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the reference checks, the deadline, the tracer and the seeding")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        result = benchmark(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
