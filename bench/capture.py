"""Write known_answers.json: every request's verdict, rendering digest and
sizes, as the current sources produce them.

Usage (from the root of a checkout): python3 bench/capture.py

Run it only on a commit whose answers are trusted; every benchmark run
checks against the file. Capture refuses to write when a verdict differs
from the intended one below, or when a rendering changes with the seed
(renderings are checked at every seed, so they must not depend on it).
Model-text and gen-random digests depend on the seed and are recorded for
GOLDEN_SEEDS only; runs at other seeds check verdicts and renderings.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CLI_REQUESTS,
    GRAPH_SEED,
    KNOWN_ANSWERS,
    ROOT,
    WORKLOADS,
    build,
    digest,
    execute,
    model_texts,
    request_plan,
)

GOLDEN_SEEDS = range(32)

# Expected verdicts that are not "pass" (in process) or "exit 0" (cli-small).
NEGATIVE = {
    "cycle:6/mrf-on-path": "PreconditionError",
    "cycle:6/tree-on-path": "FAIL",
    "student/trace-4b": "CertificateError",
    "student/wrong-expr": "FAIL",
    "verify-bad": "exit 2",
    "trace-4b": "exit 3",
    "bad-edge": "exit 4",
}


def model_vars(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("var "))


def capture(workload: str) -> dict:
    wl = build(workload, 0, None)
    plan = request_plan(workload)
    other = build(workload, 1, None)
    texts = model_texts(workload, 0) if wl.in_process else {}
    tracer = tracing.Tracer()
    tracer.install()
    entries = []
    try:
        for entry, req, req1 in zip(plan, wl.requests, other.requests):
            tracer.begin_request(req.id)
            span = tracer.open_span("request")
            outcome = execute(req, tracer)
            tracer.close_span(span)
            counts = tracer.counts[req.id]
            want = NEGATIVE.get(req.id, "pass" if wl.in_process else "exit 0")
            if outcome.verdict != want:
                raise SystemExit(f"{workload} {req.id}: verdict {outcome.verdict!r}, intended {want!r}")
            rows = counts["cli.verify_rows"]
            sizes = {"rows": rows, "terms": counts["expr.term_evals"] // rows if rows else 0}
            if wl.in_process:
                sizes["vars"] = model_vars(texts[entry["model"]])
            elif "--model" in CLI_REQUESTS[req.id]:
                argv = CLI_REQUESTS[req.id]
                sizes["vars"] = model_vars((ROOT / argv[argv.index("--model") + 1]).read_text("utf-8"))
            else:
                sizes["vars"] = model_vars(outcome.rendering)
            entry = dict(entry, verdict=outcome.verdict, sizes=sizes)
            if req.id.startswith("gen-random"):
                entry["stdout_by_seed"] = {}
            elif outcome.rendering is not None:
                again = execute(req1)
                if digest(again.rendering or "") != digest(outcome.rendering):
                    raise SystemExit(f"{workload} {req.id}: rendering depends on the seed")
                entry["stdout" if not wl.in_process else "rendering"] = digest(outcome.rendering)
            entries.append(entry)
    finally:
        tracer.uninstall()
    out = {"requests": entries}
    if wl.in_process:
        out["model_digests_by_seed"] = {
            str(seed): {k: digest(v) for k, v in model_texts(workload, seed).items()}
            for seed in GOLDEN_SEEDS
        }
    else:
        for seed in GOLDEN_SEEDS:
            seeded = build(workload, seed, None)
            for entry, req in zip(entries, seeded.requests):
                if "stdout_by_seed" in entry:
                    outcome = execute(req)
                    entry["stdout_by_seed"][str(seed)] = digest(outcome.rendering)
    return out


def main() -> int:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    known = {
        "about": "Expected verdicts, rendering digests (sha256 of the rendered output) and "
                 "sizes of every benchmark request; written by bench/capture.py.",
        "captured_at": rev,
        "graph_seed": GRAPH_SEED,
        "golden_seeds": [GOLDEN_SEEDS.start, GOLDEN_SEEDS.stop - 1],
        "workloads": {},
    }
    for workload in WORKLOADS:
        known["workloads"][workload] = capture(workload)
        print(f"captured {workload}: {len(known['workloads'][workload]['requests'])} requests")
    with open(KNOWN_ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
