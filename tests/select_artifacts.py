#!/usr/bin/env python3
"""Byte-compare the selector's RunReport across its equivalent paths.

Usage: select_artifacts.py <multicore_sim> <work-dir>

Runs one deterministic 1-core selector run (ps_quad, 100k accesses)
three ways: shared-stream on the packed backend, shared-stream on the
scalar backend, and the single-trace engine (--reference-single) on
the packed backend.  The report leaves out the backend and the engine,
so the three artifacts must be byte-identical; it must also carry the
selector's result tables.
"""

import json
import os
import subprocess
import sys

COMMON = ["--cores", "1", "--mix", "ps_quad", "--select",
          "--accesses", "100000", "--deterministic"]
RUNS = {
    "fast": ["--backend", "fast"],
    "scalar": ["--backend", "scalar"],
    "single": ["--backend", "fast", "--reference-single"],
}
TABLES = {"summary", "arms", "static_oracle", "regret", "timeline"}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    blobs = {}
    for name, extra in RUNS.items():
        path = os.path.join(work, f"select_{name}.json")
        subprocess.run([binary, *COMMON, *extra, "--json", path],
                       check=True, stdout=subprocess.DEVNULL, timeout=300)
        with open(path, "rb") as f:
            blobs[name] = f.read()

    doc = json.loads(blobs["fast"])
    assert doc["schema"] == "gippr-run-report", doc["schema"]
    assert doc["kind"] == "select", doc["kind"]
    titles = {t["title"] for t in doc["results"]}
    assert TABLES <= titles, titles

    failed = False
    for a, b in (("fast", "scalar"), ("fast", "single")):
        if blobs[a] != blobs[b]:
            print(f"select_artifacts: {a} and {b} artifacts differ")
            failed = True
    if failed:
        return 1
    print("select_artifacts: fast, scalar and single-trace artifacts "
          "byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
