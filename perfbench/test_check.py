#!/usr/bin/env python3
"""Tests of the benchmark's own checks.

    python3 perfbench/test_check.py

Shows that the output check fires on a perturbed input (the wrong
seed) and on a corrupted recorded digest, that traced repetitions (the
benchmark's span-timed rebuild of the library's entry points) and
untraced ones (the entry points themselves) both give the recorded
outputs, and that the benchmark refuses GIPPR_* knobs and a checkout
without src/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

import record_expected
import run

DEFAULT = str(record_expected.DEFAULT_SEED)
HELD_OUT = str(record_expected.HELD_OUT_SEED)


def quick(workload, seed, **extra):
    args = {"workload": workload, "seed": seed, "seconds": 0,
            "trace": 0, "setup_reps": 1, "min_reps": 1,
            "expected": run.HERE / "expected.json"}
    args.update(extra)
    return run.run_driver(run.build(), args, run.RUN_TIMEOUT_S)


def scratch_dir(name):
    path = run.build_dir() / "tests" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class OutputCheck(unittest.TestCase):
    def test_recorded_seeds_pass(self):
        for seed in (DEFAULT, HELD_OUT):
            res = quick("shared_select", seed)
            self.assertEqual(res["check"], "expected")
            self.assertEqual(res["failures"], [])

    def test_wrong_seed_fails(self):
        # Record the default seed's digests under the held-out seed.
        doc = json.loads((run.HERE / "expected.json").read_text())
        seeds = doc["workloads"]["shared_select"]["seeds"]
        seeds[HELD_OUT] = seeds[DEFAULT]
        path = scratch_dir("wrong_seed") / "expected.json"
        path.write_text(json.dumps(doc))
        res = quick("shared_select", HELD_OUT, expected=path)
        self.assertEqual(res["check"], "expected")
        # Every mix and selector output differs; the invariants hold.
        self.assertEqual(len(res["failures"]), len(res["items"]))
        self.assertTrue(all("differs from the digest recorded" in f
                            for f in res["failures"]))

    def test_corrupted_digest_fails(self):
        doc = json.loads((run.HERE / "expected.json").read_text())
        digests = doc["workloads"]["shared_select"]["seeds"][DEFAULT]
        digests[0] = "0" * 16
        path = scratch_dir("corrupt") / "expected.json"
        path.write_text(json.dumps(doc))
        res = quick("shared_select", DEFAULT, expected=path)
        name = doc["workloads"]["shared_select"]["items"][0]
        self.assertEqual(len(res["failures"]), 1)
        self.assertIn(name, res["failures"][0])

    def test_traced_run_matches_recorded_outputs(self):
        # A traced run alternates traced and untraced repetitions and
        # checks every one against the recorded digests.
        for workload in run.WORKLOADS:
            res = quick(workload, DEFAULT, trace=1)
            self.assertEqual(res["check"], "expected", workload)
            self.assertEqual(res["failures"], [], workload)


class Refusals(unittest.TestCase):
    def run_py(self, cwd, env):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ga_search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=180)

    def test_gippr_knob_refused(self):
        env = dict(os.environ, GIPPR_GA_MEMO="abc")
        proc = self.run_py(run.ROOT, env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        self.assertIn("GIPPR_GA_MEMO", proc.stderr)

    def test_checkout_without_sources_fails(self):
        root = scratch_dir("bare")
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        shutil.copytree(run.HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items()
               if k != "CARGO_TARGET_DIR"}
        proc = self.run_py(root, env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
