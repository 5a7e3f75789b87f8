#!/usr/bin/env python3
"""Rerun bench/repro and check its numbers against BENCH_repro.json.

Usage: repro_rows.py <repro binary> <output json>

Runs `<repro binary> --json <output json>` (the scale comes from
GIPPR_BENCH_SCALE; the ctest sets quick, the scale BENCH_repro.json was
recorded at), then fails when

  * any result-table value, summary values included, differs from the
    committed BENCH_repro.json (timestamp, config, phases and metrics
    are host-dependent and not compared);
  * one of the paper's shapes that this reproduction does show no
    longer holds;
  * a `<!-- repro:figNN -->` block of EXPERIMENTS.md differs from its
    rendering from BENCH_repro.json (the expected block is printed).

A change to policy semantics, workloads, vectors or the CPU model
therefore lands as a reviewed diff of BENCH_repro.json and
EXPERIMENTS.md: rerun the driver with `--json BENCH_repro.json` and
paste the printed blocks.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = os.path.join(ROOT, "BENCH_repro.json")
EXPERIMENTS = os.path.join(ROOT, "EXPERIMENTS.md")


def tables(doc):
    return {t["title"]: t for t in doc["results"]}


def summary(doc):
    return {r["workload"]: r["values"][0]
            for r in tables(doc)["summary"]["rows"]}


def diff_results(fresh, committed):
    """One message per table, row or value that differs."""
    errors = []
    new, old = tables(fresh), tables(committed)
    for title in sorted(set(old) ^ set(new)):
        errors.append(f"{title}: table only in "
                      f"{'BENCH_repro.json' if title in old else 'the run'}")
    for title in [t for t in old if t in new]:
        a, b = new[title], old[title]
        if a["columns"] != b["columns"]:
            errors.append(f"{title}: columns {a['columns']} != "
                          f"committed {b['columns']}")
            continue
        rows_a = {r["workload"]: r["values"] for r in a["rows"]}
        rows_b = {r["workload"]: r["values"] for r in b["rows"]}
        for name in sorted(set(rows_a) ^ set(rows_b)):
            errors.append(f"{title}: workload {name} only in "
                          f"{'BENCH_repro.json' if name in rows_b else 'the run'}")
        for name in [n for n in rows_b if n in rows_a]:
            for col, x, y in zip(b["columns"], rows_a[name], rows_b[name]):
                if x != y:
                    errors.append(f"{title}: workload {name}, column "
                                  f"{col}: {x!r} != committed {y!r}")
    return errors


def check_shapes(doc):
    """The paper's shapes that hold here; one message per broken one."""
    s = summary(doc)
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append("shape: " + what)

    for fig, col in [("fig10", "GIPPR"), ("fig10", "2-DGIPPR"),
                     ("fig10", "4-DGIPPR"), ("fig11", "4-DGIPPR"),
                     ("extra", "WI-4-DGIPPR"),
                     ("extra", "PLRU+LIP-DGIPPR")]:
        g = s[f"{fig}/geomean/{col}"]
        expect(g < 1.0, f"{fig} {col} geomean MPKI {g:.4f} is not below LRU")
    for fig in ("fig10", "fig11"):
        g = s[f"{fig}/geomean/MIN"]
        expect(abs(g - 0.675) <= 0.03,
               f"{fig} MIN geomean MPKI {g:.4f} is not within 0.03 of "
               f"the paper's 0.675")
    g = s["fig04/geomean/GIPLR"]
    expect(g > 1.0, f"fig04 GIPLR speedup {g:.4f} is not above LRU")
    for col in ("PLRU", "Random"):
        g = s[f"fig04/geomean/{col}"]
        expect(abs(g - 1.0) <= 0.01,
               f"fig04 {col} speedup {g:.4f} is not within 1% of LRU")
    for col in ("DRRIP", "PDP", "4-DGIPPR"):
        g = s[f"fig13/subset_geomean/{col}"]
        expect(g > 1.10, f"fig13 {col} subset speedup {g:.4f} is not "
                         f"above 1.10")
    below, n = s["fig01/below_parity"], s["fig01/samples"]
    expect(below > n / 2, f"fig01 {below:.0f} of {n:.0f} samples below "
                          f"parity is not more than half")
    return errors


def markdown(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def render(doc):
    """EXPERIMENTS.md's measured block per figure."""
    s = summary(doc)

    def g(fig, col, digits=3):
        return f"{s[f'{fig}/geomean/{col}']:.{digits}f}"

    percentile = {r["workload"]: r["values"][0]
                  for r in tables(doc)["fig01"]["rows"]}
    n, below = int(s["fig01/samples"]), int(s["fig01/below_parity"])
    blocks = {}
    blocks["fig01"] = markdown(["", "paper", "measured"], [
        ["samples", "15,000", f"{n:,}"],
        ["below LRU parity", '"most"',
         f"{below:,} / {n:,} ({100.0 * below / n:.1f}%)"],
        ["10th-percentile sample", "—", f"{percentile['10']:.4f}"],
        ["best random sample", "~1.028", f"{s['fig01/best_sample']:.4f}"],
        ["GA-evolved vector", "above every sample",
         f"{s['fig01/ga_vector']:.4f}"],
    ])
    blocks["fig04"] = markdown(
        ["policy", "paper (geomean speedup vs LRU)", "measured"], [
            ["GIPLR", "1.031", g("fig04", "GIPLR")],
            ["PLRU", '~1.00 ("about as well as true LRU")',
             g("fig04", "PLRU")],
            ["Random", "0.999", g("fig04", "Random")],
        ])
    blocks["fig10"] = markdown(
        ["policy", "paper (geomean MPKI / LRU)", "measured"], [
            ["1-vector GIPPR", "0.952", g("fig10", "GIPPR")],
            ["2-DGIPPR", "0.965", g("fig10", "2-DGIPPR")],
            ["4-DGIPPR", "0.910", g("fig10", "4-DGIPPR")],
            ["paper's WI-4-DGIPPR vectors", "—",
             g("extra", "WI-4-DGIPPR")],
            ["2-DGIPPR of {PLRU, LIP}", "—", g("extra", "PLRU+LIP-DGIPPR")],
            ["Belady MIN", "0.675", g("fig10", "MIN")],
        ])
    blocks["fig11"] = markdown(["policy", "paper", "measured"], [
        ["DRRIP", "0.915", g("fig11", "DRRIP")],
        ["PDP", "0.902", g("fig11", "PDP")],
        ["4-DGIPPR", "0.910", g("fig11", "4-DGIPPR")],
        ["MIN", "0.675", g("fig11", "MIN")],
    ])
    paper13 = {"DRRIP": "1.0541 / 1.156", "PDP": "1.0569 / 1.164",
               "4-DGIPPR": "1.0561 / 1.156"}
    blocks["fig13"] = markdown(
        ["policy", "paper (all / memory-intensive subset)",
         "measured (all / subset)", "workloads below 99% of LRU"],
        [[col, paper13[col],
          f"{g('fig13', col)} / "
          f"{s[f'fig13/subset_geomean/{col}']:.3f}",
          f"{s[f'fig13/below_99pct/{col}']:.0f}"]
         for col in ("DRRIP", "PDP", "4-DGIPPR")]
    ) + (f"\nThe memory-intensive subset is the "
         f"{s['fig13/subset_size']:.0f} workloads where DRRIP speeds up "
         f"by more than 1%.\n")
    return blocks


def check_experiments(doc):
    with open(EXPERIMENTS, encoding="utf-8") as f:
        text = f.read()
    errors = []
    for fig, want in render(doc).items():
        m = re.search(rf"<!-- repro:{fig} -->\n(.*?)<!-- /repro:{fig} -->",
                      text, re.S)
        if m and m.group(1) == want:
            continue
        errors.append(f"EXPERIMENTS.md: the {fig} block differs from "
                      f"BENCH_repro.json; expected:\n"
                      f"<!-- repro:{fig} -->\n{want}<!-- /repro:{fig} -->")
    return errors


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, out = sys.argv[1], sys.argv[2]
    subprocess.run([binary, "--json", out], check=True,
                   stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as f:
        fresh = json.load(f)
    with open(COMMITTED, encoding="utf-8") as f:
        committed = json.load(f)
    errors = (diff_results(fresh, committed) + check_shapes(fresh) +
              check_experiments(committed))
    for e in errors:
        print("FAIL " + e)
    if errors:
        sys.exit(1)
    print("repro rows, shapes and EXPERIMENTS.md blocks match "
          "BENCH_repro.json")


if __name__ == "__main__":
    main()
