#!/usr/bin/env python3
"""Re-record perfbench/expected.json, the digests of every simulated output.

    python3 perfbench/record_expected.py

Runs each workload once per recorded seed and stores the digest of
every output item.  Benchmark runs at a recorded seed compare their
outputs with these digests exactly; at other seeds they check that
every repetition repeats the first.  Re-record only when a change is
meant to alter simulated results, or when the benchmark's fixed scale
changes; the diff of expected.json is then the reviewed record of it.
"""

import json
import sys

import run

# The default seed is the suite's historical base seed (0x5eed); the
# held-out seed was never used while the benchmark was tuned; 0-31
# cover the small seeds a harness is likely to pass.
DEFAULT_SEED = 24301
HELD_OUT_SEED = 20131207
SEEDS = [DEFAULT_SEED, HELD_OUT_SEED] + list(range(32))


def dump(doc):
    """JSON with one line per item list and per seed, so that a diff
    names the seeds and workloads whose outputs changed."""
    out = ["{"]
    out.append(f' "default_seed": {doc["default_seed"]},')
    out.append(f' "held_out_seed": {doc["held_out_seed"]},')
    out.append(' "workloads": {')
    workloads = list(doc["workloads"].items())
    for w, (name, entry) in enumerate(workloads):
        out.append(f'  {json.dumps(name)}: {{')
        out.append(f'   "items": {json.dumps(entry["items"])},')
        out.append('   "seeds": {')
        seeds = list(entry["seeds"].items())
        for s, (seed, digests) in enumerate(seeds):
            comma = "," if s + 1 < len(seeds) else ""
            out.append(f'    {json.dumps(seed)}: {json.dumps(digests)}{comma}')
        out.append('   }')
        out.append('  }' + ("," if w + 1 < len(workloads) else ""))
    out.append(' }')
    out.append('}')
    return "\n".join(out) + "\n"


def main():
    run.refuse_gippr_environment()
    exe = run.build()
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "workloads": {}}
    for workload in run.WORKLOADS:
        entry = {"items": None, "seeds": {}}
        for seed in SEEDS:
            res = run.run_driver(exe, {"workload": workload, "seed": seed,
                                       "seconds": 0, "setup_reps": 1,
                                       "min_reps": 1}, run.RUN_TIMEOUT_S)
            if res["failures"]:
                raise run.BenchError(f"{workload} seed {seed}: "
                                     + "; ".join(res["failures"]))
            names = list(res["items"])
            if entry["items"] is None:
                entry["items"] = names
            elif names != entry["items"]:
                raise run.BenchError(f"{workload} seed {seed}: items differ")
            entry["seeds"][str(seed)] = [res["items"][n] for n in names]
            print(f"{workload} seed {seed}: {len(names)} items",
                  file=sys.stderr)
        doc["workloads"][workload] = entry
    path = run.HERE / "expected.json"
    path.write_text(dump(doc))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
