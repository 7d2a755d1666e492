"""crfactor benchmark: time to a verified factorization, end to end.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Workloads: undirected-mrf, directed-trace, cli-small (see workloads.py).
One closed-loop client in this process sends the workload's request list
in whole passes, one request at a time, for about --seconds seconds. Each
request's verdict (and rendering digest) is checked against
known_answers.json.

Timings are host-speed adjusted: the shared host runs the same code up to
2x slower in phases of seconds to minutes, so every request (and every
set-up probe) is bracketed by a fixed reference task, and its wall time is
scaled by the task's nominal time / its time around the request. The
reference is a pure-Python loop for in-process requests and the start of a
bare interpreter for child processes (CLI requests, set-up probes): each
slows with the host as the work it brackets does. The values read as
seconds on this host in its fast phases; the unscaled wall times are kept
in the BENCH record. The run pins itself (and its children) to one CPU so
that the reference and the request run on the same one.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones, plus
the tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
``BENCH`` record with the environment, the request sizes and the spread of
each metric across passes. --self-check runs one traced pass of every
workload, checks every known answer and the span nesting, and exits 0 only
if all hold.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CERTIFICATE_NEGATIVES,
    ROOT,
    WORKLOADS,
    SetupError,
    build,
    check_checkout,
    execute,
    load_known,
    matches,
)

perf = time.perf_counter

SETUP_PROBES = 11


def loop_reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop of dict and tuple work
    (the kind of work the package's scalar paths do): the host's speed now
    for in-process requests."""
    table: dict = {}
    start = perf()
    for i in range(30000):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 1.0) * 1.0000001 + 0.5 * (i & 3)
    return perf() - start


def start_reference_s() -> float:
    """Seconds to start and end a bare interpreter (``python3 -S -c pass``):
    the host's speed now for work in child processes, whose start, imports
    and page faults slow differently from a loop in a warm process."""
    start = perf()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf() - start


# Reference task -> its time on this 2-vCPU host in its fast phases.
NOMINAL_S = {loop_reference_s: 0.008, start_reference_s: 0.011}


def adjust(wall: float, reference, before: float, after: float) -> float:
    """Wall seconds scaled to the nominal host speed."""
    return wall * NOMINAL_S[reference] / ((before + after) / 2)


def reference_for(wl):
    return loop_reference_s if wl.in_process else start_reference_s


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that a request
    and the reference loops around it meet the same host load."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# Set-up


def setup(workload: str, seed: int):
    return build(workload, seed, load_known())


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter on this file until its
    set-up of the workload is done and the first request could be sent:
    (wall, adjusted). A probe is short, so the host speed around it is the
    median of three interpreter starts on each side."""
    before = statistics.median(start_reference_s() for _ in range(3))
    start = perf()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    ready = perf()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise SetupError(f"set-up probe of {workload} failed (exit {proc.returncode})")
    after = statistics.median(start_reference_s() for _ in range(3))
    return ready - start, adjust(ready - start, start_reference_s, before, after)


# ---------------------------------------------------------------------------
# Passes


class Pass:
    """One run of the whole request list."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        # (request, outcome, wall latency, ok, adjusted latency)
        self.results: list[tuple] = []
        self.duration = 0.0  # wall time of the pass, reference tasks included


def run_pass(wl, index: int, tracer: tracing.Tracer | None = None) -> Pass:
    p = Pass(index, tracer is not None)
    if tracer is not None:
        tracer.install()
    reference = reference_for(wl)
    start = perf()
    try:
        before = reference()
        for req in wl.requests:
            span = None
            if tracer is not None:
                tracer.begin_request((index, req.id))
                span = tracer.open_span("request")
            t0 = perf()
            outcome = execute(req, tracer)
            t1 = perf()
            if span is not None:
                tracer.close_span(span)
            latency = outcome.latency if outcome.latency is not None else t1 - t0
            after = reference()
            p.results.append((req, outcome, latency, matches(req, outcome),
                              adjust(latency, reference, before, after)))
            before = after
    finally:
        p.duration = perf() - start
        if tracer is not None:
            tracer.uninstall()
    return p


def measure(wl, seconds: float, tracer: tracing.Tracer | None = None) -> list[Pass]:
    """Whole passes until the end lies closest to `seconds`. With a tracer,
    passes alternate untraced / traced, with at least one of each."""
    passes: list[Pass] = []
    start = perf()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, len(passes), tracer if traced else None))
        if tracer is not None and len(passes) < 2:
            continue
        next_traced = tracer is not None and len(passes) % 2 == 1
        same = [p.duration for p in passes if p.traced == next_traced]
        if perf() - start + statistics.median(same) / 2 > seconds:
            return passes


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def quartile_spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / q2 if q2 else None,
            "min": min(values), "max": max(values)}


def pass_rate(p: Pass) -> float:
    """Requests per second of a pass, from its adjusted latencies."""
    return len(p.results) / sum(r[4] for r in p.results)


def end_to_end(wl, passes: list[Pass], setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics and, for the record, the unadjusted wall-time
    latencies and rate over all samples.

    Each request of the list is represented by the median of its adjusted
    latencies in the run; the percentiles and the rate are taken over the
    request list, as one pass sends it."""
    results = [r for p in passes for r in p.results]
    adjusted: dict[str, list[float]] = {}
    for req, _outcome, _latency, _ok, adj in results:
        adjusted.setdefault(req.id, []).append(adj)
    per_request = [statistics.median(v) for v in adjusted.values()]
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r[1].rss_kb for r in results)
    values = {
        "latency_p50_s": statistics.median(per_request),
        "latency_p90_s": statistics.quantiles(per_request, n=10, method="inclusive")[8],
        "requests_per_s": len(per_request) / sum(per_request),
        "verdict_match_ratio": sum(r[3] for r in results) / len(results),
        "peak_rss_mb": rss_kb / 1024.0,
        "setup_s": statistics.median(a for _, a in setup_times),
    }
    latencies = [r[2] for r in results]
    p90, beyond = percentile(latencies, 0.9)
    spread = {
        "samples": len(latencies),
        "samples_per_request": min(len(v) for v in adjusted.values()),
        "passes": len(passes),
        "measured_latency_p50_s": statistics.median(latencies),
        "measured_latency_p90_s": p90,
        "measured_p90_samples_beyond": beyond,
        "measured_requests_per_s": len(results) / sum(latencies),
        "latency_p50_s_per_pass": quartile_spread(
            [statistics.median([r[4] for r in p.results]) for p in passes]),
        "requests_per_s_per_pass": quartile_spread([pass_rate(p) for p in passes]),
        "setup_s_probes": quartile_spread([a for _, a in setup_times]),
        "measured_setup_s_probes": quartile_spread([w for w, _ in setup_times]),
        "reference_s": quartile_spread(
            [r[2] * NOMINAL_S[reference_for(wl)] / r[4] for r in results]),
    }
    return values, spread


def per_layer(tracer: tracing.Tracer, passes: list[Pass]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    by_pass: dict[int, list] = {p.index: [] for p in traced}
    for index, span in enumerate(tracer.spans):
        req = span[tracing.REQUEST]
        if isinstance(req, tuple) and req[0] in by_pass:
            by_pass[req[0]].append((index, span))
    rows = []
    for p in traced:
        counts = Counter()
        for key, c in tracer.counts.items():
            if isinstance(key, tuple) and key[0] == p.index:
                counts.update(c)
        rows.append(tracing.pass_layers(by_pass[p.index], counts))
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    setup_spans = [(i, s) for i, s in enumerate(tracer.spans) if s[tracing.REQUEST] == "setup"]
    values["randgen.gen_s"] += tracing.pass_layers(setup_spans, Counter())["randgen.gen_s"]
    untraced_rate = statistics.median(pass_rate(p) for p in untraced)
    traced_rate = statistics.median(pass_rate(p) for p in traced)
    values["trace.overhead_ratio"] = untraced_rate / traced_rate - 1.0
    count_names = [m for m, _ in tracing.COUNTS]
    repeats = all(all(r[m] == rows[0][m] for m in count_names) for r in rows)
    spread = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "counts_repeat_exactly": repeats,
        "untraced_requests_per_s": untraced_rate,
        "traced_requests_per_s": traced_rate,
        "busy_s_per_pass": {name: quartile_spread([r[name] for r in rows])
                            for name in rows[0] if name.endswith("_s")},
    }
    return values, spread


# ---------------------------------------------------------------------------
# Records


def environment(wl, seconds: float, trace: bool) -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown (not a git checkout)"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "trace": int(trace),
        "client": "closed loop, 1 client, whole passes of the request list",
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "reference": reference_for(wl).__name__,
        "reference_nominal_s": NOMINAL_S[reference_for(wl)],
    }


def request_table(passes: list[Pass]) -> list[dict]:
    rows = {}
    for p in passes:
        for req, outcome, latency, ok, adj in p.results:
            row = rows.setdefault(req.id, {"id": req.id, **req.sizes, "expect": req.verdict,
                                           "got": outcome.verdict, "ok": True, "latency_s": [],
                                           "adjusted_latency_s": []})
            row["ok"] = row["ok"] and ok
            if not ok:
                row["got"] = outcome.verdict
            row["latency_s"].append(latency)
            row["adjusted_latency_s"].append(adj)
    for row in rows.values():
        row["samples"] = len(row["latency_s"])
        row["latency_s"] = statistics.median(row["latency_s"])
        row["adjusted_latency_s"] = statistics.median(row["adjusted_latency_s"])
    return list(rows.values())


def print_report(values: dict, units: dict, spread: dict) -> None:
    for name, value in values.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    for key, val in spread.items():
        if isinstance(val, dict) and "median" in val:
            print(f"  spread {key}: {json.dumps(val)}")
        elif not isinstance(val, dict):
            print(f"  {key}: {val}")


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


# ---------------------------------------------------------------------------
# Modes


def bench(args) -> int:
    pin_to_one_cpu()
    setup_times = []
    if not args.trace:
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.begin_request("setup")
        span = tracer.open_span("setup")
    wl = setup(args.workload, args.seed)
    if tracer is not None:
        tracer.close_span(span)
        tracer.uninstall()
    passes = measure(wl, args.seconds, tracer)

    units = load_units()
    if tracer is None:
        values, spread = end_to_end(wl, passes, setup_times)
    else:
        values, spread = per_layer(tracer, passes)
    results = [r for p in passes for r in p.results]
    failed = sum(not r[3] for r in results)
    print_report(values, units, spread)
    for row in request_table(passes):
        if not row["ok"]:
            print(f"WRONG VERDICT {row['id']}: expected {row['expect']!r}, got {row['got']!r}")
    record = {
        "environment": environment(wl, args.seconds, args.trace),
        "requests": request_table(passes),
        "spread": spread,
    }
    print("BENCH " + json.dumps(record))
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_check(seed: int) -> int:
    """One traced pass per workload: every known answer, the span nesting
    and the certificate-reject counts must hold."""
    problems = []
    for name in WORKLOADS:
        start = perf()
        wl = setup(name, seed)
        tracer = tracing.Tracer()
        p = run_pass(wl, 0, tracer)
        for req, outcome, _latency, ok, _adj in p.results:
            if not ok:
                problems.append(f"{name} {req.id}: expected {req.verdict!r}, got {outcome.verdict!r}")
        problems += [f"{name}: {msg}" for msg in tracing.check_nesting(tracer.spans)]
        for req in wl.requests:
            rejects = sum(
                1 for s in tracer.spans
                if s[tracing.REQUEST] == (0, req.id)
                and s[tracing.NAME] == "rewrites.validate_certificate"
                and s[tracing.ERROR] == "CertificateError"
            )
            want = 1 if req.id in CERTIFICATE_NEGATIVES else 0
            if rejects != want:
                problems.append(f"{name} {req.id}: {rejects} certificate rejects, expected {want}")
        print(f"{name}: {len(p.results)} requests, {len(tracer.spans)} spans, "
              f"{perf() - start:.1f} s")
    for msg in problems:
        print("PROBLEM", msg)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.self_check:
            return self_check(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            setup(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        return bench(args)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
