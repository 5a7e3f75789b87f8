#!/usr/bin/env python3
"""Reproduction benchmark: build perfbench, run one workload, report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark driver and the repository's libraries from source
into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench), runs
workload W with inputs made from seed N for about S seconds of body
repetitions, checks every simulated output, and prints the metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json when --trace is 0, its per-layer metrics when it is 1.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ga_search", "miss_sweep", "full_system", "shared_select")
# Seconds a run may take in all, build excluded.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def refuse_gippr_environment():
    """GIPPR_* knobs silently change what runs; refuse them."""
    names = sorted(k for k in os.environ if k.startswith("GIPPR_"))
    if names:
        raise BenchError(
            "refusing to run with " + ", ".join(names) + " set: GIPPR_* "
            "variables change the configuration that is measured")


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    if not (HERE.parent / "src" / "CMakeLists.txt").exists():
        raise BenchError("no src/ beside perfbench/: run from a full checkout")
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "perfbench"


def run_driver(exe, args, timeout):
    """Run the driver; returns its JSON result."""
    result = build_dir() / "results" / (
        f"{args['workload']}-{args['seed']}-{args.get('trace', 0)}.json")
    result.parent.mkdir(parents=True, exist_ok=True)
    if result.exists():
        result.unlink()
    cmd = [str(exe), "--out", str(result)]
    for key, value in args.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"driver exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"driver failed with exit code {proc.returncode}")
    return json.loads(result.read_text())


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def measured_metrics(res, trace):
    if trace:
        values = dict(res["layers"])
        values["tracing_overhead_frac"] = res["tracing_overhead_frac"]
        values["span_coverage_frac"] = res["span_coverage_frac"]
        return values
    setup = statistics.median(res["setup_s"])
    body = statistics.median(res["run_s"])
    return {"setup_s": setup, "run_s": body, "wall_s": setup + body,
            "peak_rss_mb": res["peak_rss_mb"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if opts.seed < 0 or opts.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        refuse_gippr_environment()
        exe = build()
        start = time.monotonic()
        args = {"workload": opts.workload, "seed": opts.seed,
                "seconds": opts.seconds, "trace": opts.trace,
                "expected": HERE / "expected.json"}
        res = run_driver(exe, args, RUN_TIMEOUT_S)
        units = declared_metrics(opts.trace)
        values = measured_metrics(res, opts.trace)
        if set(units) != set(values):
            raise BenchError("metrics differ from BENCHMARK.json: " +
                             ", ".join(sorted(set(units) ^ set(values))))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    attempted = res["attempted"]
    failed = len(res["failures"])
    print("config: " + json.dumps(res["config"], sort_keys=True))
    print(f"check: {res['check']}, {attempted} checked, {failed} failed, "
          f"fail_frac {failed / attempted:.6g}")
    for failure in res["failures"][:20]:
        print("  FAILED " + failure)
    print(f"repetitions: {len(res['setup_s'])} set-up, "
          f"{len(res['run_s'])} body; "
          f"{time.monotonic() - start:.1f} s in the driver")
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
