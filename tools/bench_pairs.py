#!/usr/bin/env python3
"""Compare the reproduction benchmark between two checkouts.

    python3 tools/bench_pairs.py --base DIR --change DIR \\
        --workload W [--workload W ...] --seed N --seconds S --pairs P
    python3 tools/bench_pairs.py --self-test

Runs P interleaved pairs of `python3 perfbench/run.py --workload W
--seed N --seconds S` per workload, one run in each checkout, and
alternates which side runs first so drift on a shared host falls on
both sides alike.  Each checkout builds its own perfbench binary on
its first run (perfbench/run.py does that; the build is not timed).

For every end-to-end metric that BENCHMARK.json declares, it reports
both sides' medians and interquartile ranges, the change/base ratio of
the medians, how many pairs the change won (by the metric's "better"
direction), and a verdict:

  unresolved  either side's run-to-run spread (its interquartile
              range over its median) exceeds the metric's bound, and
              not every change run beats every base run: the runs
              cannot tell a change inside the bound from noise;
  worse   the change's median is worse than the base's by more than
          the metric's bound;
  gain    the change won at least 9 of every 10 pairs and its median
          is better by more than the base's interquartile range;
  flat    none of these.

It also reports each side's `correct` and failed counts.  The script
reads only perfbench/ and BENCHMARK.json of the two checkouts.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def parse_result(stdout):
    """The JSON object on the last non-empty line of run.py's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) of @values; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def first_side(pair):
    """Which side runs first in pair @pair: base on even pairs."""
    return "base" if pair % 2 == 0 else "change"


def relative_spread(q1, median, q3):
    """Interquartile range over the median (0 when both are 0)."""
    if median:
        return (q3 - q1) / abs(median)
    return 0.0 if q3 == q1 else float("inf")


def compare(metric, base, change):
    """Summary of one metric over paired runs.

    @metric is a BENCHMARK.json end_to_end entry; @base and @change
    are equally long lists of values, one per pair.
    """
    lower = metric["better"] == "lower"
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change)
               if (c < b if lower else c > b))
    ratio = c_med / b_med if b_med else float("inf")
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    better_by = (b_med - c_med) if lower else (c_med - b_med)
    spread = max(relative_spread(b_q1, b_med, b_q3),
                 relative_spread(c_q1, c_med, c_q3))
    separated = (max(change) < min(base) if lower
                 else min(change) > max(base))
    if spread > metric["bound"] and not separated:
        verdict = "unresolved"
    elif worse_by > metric["bound"]:
        verdict = "worse"
    elif wins * 10 >= 9 * len(base) and better_by > b_q3 - b_q1:
        verdict = "gain"
    else:
        verdict = "flat"
    return {
        "name": metric["name"], "unit": metric["unit"],
        "base_median": b_med, "base_iqr": b_q3 - b_q1,
        "change_median": c_med, "change_iqr": c_q3 - c_q1,
        "ratio": ratio, "spread": spread, "wins": wins,
        "pairs": len(base),
        "bound": metric["bound"], "verdict": verdict,
    }


def summarize(spec, runs):
    """Per-metric comparisons plus correctness of paired results.

    @runs maps "base"/"change" to lists of parsed run.py results, in
    pair order.
    """
    rows = [compare(m,
                    [r["metrics"][m["name"]]["value"] for r in runs["base"]],
                    [r["metrics"][m["name"]]["value"]
                     for r in runs["change"]])
            for m in spec["end_to_end"]]
    checks = {side: {"correct": sum(1 for r in rs if r["correct"]),
                     "runs": len(rs),
                     "failed": sum(r["failed"] for r in rs)}
              for side, rs in runs.items()}
    return {"metrics": rows, "checks": checks}


def render(workload, summary):
    out = [f"== {workload}"]
    for side in ("base", "change"):
        c = summary["checks"][side]
        out.append(f"  {side:6s} correct {c['correct']}/{c['runs']}, "
                   f"{c['failed']} failed")
    out.append(f"  {'metric':12s} {'base med':>10s} {'iqr':>8s} "
               f"{'change med':>10s} {'iqr':>8s} {'ratio':>6s} "
               f"{'spread':>6s} {'wins':>6s} verdict")
    for r in summary["metrics"]:
        out.append(f"  {r['name']:12s} {r['base_median']:10.4g} "
                   f"{r['base_iqr']:8.3g} {r['change_median']:10.4g} "
                   f"{r['change_iqr']:8.3g} {r['ratio']:6.3f} "
                   f"{r['spread']:6.3f} "
                   f"{r['wins']:>2d}/{r['pairs']:<3d} {r['verdict']}")
    return "\n".join(out)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {checkout} with "
                           f"exit code {proc.returncode}")
    return parse_result(proc.stdout)


def run_pairs(opts):
    spec = json.loads((opts.change / "BENCHMARK.json").read_text())
    report = {}
    for workload in opts.workload:
        runs = {"base": [], "change": []}
        for pair in range(opts.pairs):
            order = ["base", "change"]
            if first_side(pair) == "change":
                order.reverse()
            for side in order:
                checkout = opts.base if side == "base" else opts.change
                runs[side].append(run_once(checkout, workload, opts.seed,
                                           opts.seconds))
            print(f"[{workload}] pair {pair + 1}/{opts.pairs} done",
                  file=sys.stderr)
        report[workload] = summarize(spec, runs)
        report[workload]["runs"] = runs
        print(render(workload, report[workload]))
    if opts.json:
        opts.json.write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0


# Canned run.py output for --self-test: three pairs of one workload.
CANNED_SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]}


def canned_line(setup, rss, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def self_test():
    stdout = "config: {}\nsetup_s = 1 s\n" + canned_line(1.0, 200) + "\n\n"
    assert parse_result(stdout)["metrics"]["setup_s"]["value"] == 1.0
    assert [first_side(p) for p in range(4)] == [
        "base", "change", "base", "change"]
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    base = [parse_result(canned_line(s, r)) for s, r in
            ((1.20, 200.0), (1.10, 201.0), (1.30, 199.0))]
    change = [parse_result(canned_line(s, r, f)) for s, r, f in
              ((0.85, 260.0, 0), (0.80, 255.0, 1), (0.90, 250.0, 0))]
    summary = summarize(CANNED_SPEC, {"base": base, "change": change})
    setup, rss = summary["metrics"]
    assert setup["name"] == "setup_s"
    assert abs(setup["base_median"] - 1.20) < 1e-12
    assert abs(setup["base_iqr"] - 0.10) < 1e-12
    assert abs(setup["ratio"] - 0.85 / 1.20) < 1e-12
    assert setup["wins"] == 3 and setup["verdict"] == "gain"
    # 255 against 200 is 27.5% worse, beyond the 20% bound.
    assert rss["wins"] == 0 and rss["verdict"] == "worse"
    assert summary["checks"]["base"] == {"correct": 3, "runs": 3,
                                         "failed": 0}
    assert summary["checks"]["change"] == {"correct": 2, "runs": 3,
                                           "failed": 1}

    # A better median inside the base's spread is not a gain.
    noisy = summarize(CANNED_SPEC, {
        "base": [parse_result(canned_line(s, 200)) for s in (1.0, 1.5)],
        "change": [parse_result(canned_line(s, 200)) for s in (0.9, 1.4)]})
    assert noisy["metrics"][0]["wins"] == 2
    assert noisy["metrics"][0]["verdict"] == "flat"
    assert "gain" in render("w", summary)

    def verdict(base_setups, change_setups):
        row = summarize(CANNED_SPEC, {
            "base": [parse_result(canned_line(s, 200))
                     for s in base_setups],
            "change": [parse_result(canned_line(s, 200))
                       for s in change_setups]})["metrics"][0]
        return row["verdict"], row["spread"]

    # A change run spread of 1.0/1.5 = 67% exceeds the 25% bound, so
    # a median 40% worse is unresolved, not worse ...
    v, spread = verdict((1.0, 1.0, 1.0, 1.0), (1.0, 1.2, 1.4, 2.0, 2.5))
    assert v == "unresolved" and spread > 0.25, (v, spread)
    # ... and a wide base spread hides an apparent gain.
    assert verdict((0.5, 1.0, 1.5, 2.0), (0.9, 1.0, 1.1, 1.2))[0] == \
        "unresolved"
    # Every change run beating every base run resolves it, however
    # wide either side's spread.
    assert verdict((2.0, 3.0, 4.0, 5.0), (0.5, 1.0, 1.5, 1.9))[0] == \
        "gain"
    # Spread exactly at the bound still resolves: 0.25 is not > 0.25.
    assert verdict((0.75, 1.0, 1.25), (0.75, 1.0, 1.25)) == ("flat", 0.25)
    # The spread column is printed.
    assert "spread" in render("w", summary)
    print("bench_pairs self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics on canned result lines")
    ap.add_argument("--base", type=pathlib.Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=pathlib.Path,
                    help="checkout of the change")
    ap.add_argument("--workload", action="append",
                    help="perfbench workload (repeatable)")
    ap.add_argument("--seed", type=int, default=24301)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--json", type=pathlib.Path,
                    help="also write every run and summary here")
    opts = ap.parse_args()
    if opts.self_test:
        return self_test()
    if not (opts.base and opts.change and opts.workload):
        ap.error("--base, --change and --workload are required")
    if opts.pairs < 1:
        ap.error("--pairs must be >= 1")
    return run_pairs(opts)


if __name__ == "__main__":
    sys.exit(main())
