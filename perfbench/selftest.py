"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They use the cheap jobs of each workload, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# jobs cheap enough to run in a test, per workload
CHEAP = {
    "jones-tower": {"c-in-mat3"},
    "galois-cyclotomic": {"pauli-k4"},
    "measuring-ladder": {"centralizer-s4", "validate-cs4", "qgal-banica"},
    "cli-cold": {"pauli:check", "broken-hopf:check",
                 "s3-transposition:centralizer"},
}


def bench_for(workload: str, seed: int) -> run.Bench:
    bench = run.Bench(ROOT, workload, seed)
    bench.setup()
    bench.jobs = [j for j in bench.jobs if j.name in CHEAP[workload]]
    return bench


def read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def answers(jobs) -> dict:
    return {j.name: (j.op, j.exit_code, [(what, want)
                                         for what, _, want in j.answers])
            for j in jobs}


class SelfTest(unittest.TestCase):
    def test_traced_certificates_match_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                bench = bench_for(workload, 1)
                metrics, attempted, failed, reasons, _ = run.traced_run(bench)
                self.assertEqual(attempted, 2 * len(bench.jobs))
                self.assertEqual((failed, reasons), (0, []))
                self.assertGreater(metrics["scalars.zero_tests"][0], 0)

    def test_two_seeds_same_known_answers(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                per_seed = []
                for seed in (1, 2):
                    bench = bench_for(workload, seed)
                    per_seed.append(answers(workloads.generate(
                        workload, seed, ROOT, bench.workdir)))
                    _, results = bench.one_pass()
                    self.assertEqual(
                        [r[4] for r in results], [None] * len(results))
                self.assertEqual(per_seed[0], per_seed[1])

    def test_seed_changes_inputs(self):
        for workload in ("galois-cyclotomic", "measuring-ladder"):
            docs = []
            for seed in (1, 2):
                workdir = os.path.join(ROOT, ".perfbench-work", "seeds",
                                       str(seed))
                jobs = workloads.generate(workload, seed, ROOT, workdir)
                docs.append([read(os.path.join(workdir, j.workspace))
                             for j in jobs])
            self.assertNotEqual(docs[0], docs[1], workload)

    def test_cli_cold_covers_every_fixture_job_but_jones(self):
        expected = set()
        fixtures = os.path.join(ROOT, "fixtures")
        for fname in os.listdir(fixtures):
            with open(os.path.join(fixtures, fname)) as fh:
                for name, doc in json.load(fh)["documents"].items():
                    if doc["kind"] == "job" and doc["op"] != "jones":
                        expected.add((fname, name))
        jobs = workloads.generate("cli-cold", 1, ROOT,
                                  os.path.join(ROOT, ".perfbench-work", "cc"))
        self.assertEqual({(j.workspace, j.job) for j in jobs}, expected)
        self.assertTrue(set(workloads.FIXTURE_ANSWERS) <= expected)

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench-work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
