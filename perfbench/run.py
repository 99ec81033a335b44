"""hopfgal certificate benchmark: one closed-loop client, one job at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The benchmark writes the workload's
workspaces (generated from the seed) under `.perfbench-work/`, runs every
job through the public CLI entry (`hopfgal.cli.main` in this process, or a
fresh `python -m hopfgal.cli` child per job for `cli-cold`) and checks each
verdict against its known answer and each job's certificate bytes against
the first pass.  It prints a report and, as its last line, one JSON object
with the metrics of BENCHMARK.json: the end-to-end ones with `--trace 0`,
the per-layer ones with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
# batch_s is the median over passes; one pass of jones-tower or
# measuring-ladder alone takes most of a run
MIN_PASSES = 2
JOB_TIMEOUT_S = 150
# a tiny shipped job that warms the CLI path (and, cold, the .pyc cache)
WARMUP = ["validate", "--workspace",
          os.path.join(workloads.FIXTURES_DIR, "pauli.json"), "--job", "check"]


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    Every time the benchmark reports is measured on this clock.  The
    program is single-threaded and does no waiting, so on an idle machine
    this is its wall time; on the shared 2-core machine the benchmark was
    built on, wall time of identical cold CLI calls varied by a quarter
    between runs (host steal and scheduling of fresh processes), CPU time
    by a thirtieth.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.cold = workload in workloads.COLD
        self.workdir = os.path.join(root, ".perfbench-work", workload)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.env.pop("HOPFGAL_MAX_DIM", None)
        os.environ.pop("HOPFGAL_MAX_DIM", None)
        self.cli = None
        self.jobs: list = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> list[float]:
        """Set up SETUP_REPEATS times; returns the time of each set-up.

        One set-up imports `hopfgal.cli` in a fresh interpreter, generates
        and writes the workspaces, and runs the warm-up job.
        """
        if not self.cold:
            sys.path.insert(0, self.src)
            import hopfgal.cli
            self.cli = hopfgal.cli
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = cpu_clock()
            subprocess.run([sys.executable, "-c", "import hopfgal.cli"],
                           env=self.env, cwd=self.root, check=True,
                           timeout=JOB_TIMEOUT_S)
            self.jobs = workloads.generate(self.workload, self.seed,
                                           self.root, self.workdir)
            _, code, _ = self._call(WARMUP)
            if code != 0:
                raise RuntimeError(f"warm-up job exited with {code}")
            times.append(cpu_clock() - t0)
        return times

    # -- one job --------------------------------------------------------------

    def _call(self, argv: list[str], trace_file: str | None = None,
              tracer=None, job_id=None):
        """Run one CLI call: (CPU seconds, exit code or None, stdout)."""
        if self.cold:
            if trace_file is None:
                cmd = [sys.executable, "-m", "hopfgal.cli", *argv]
            else:
                cmd = [sys.executable,
                       os.path.join(os.path.dirname(__file__),
                                    "traced_cli.py"),
                       trace_file, job_id, *argv]
            t0 = cpu_clock()
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  capture_output=True, timeout=JOB_TIMEOUT_S)
            return cpu_clock() - t0, proc.returncode, proc.stdout
        out = io.StringIO()
        ctx = (tracer.job_span(job_id) if tracer is not None
               else contextlib.nullcontext())
        t0 = cpu_clock()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), ctx:
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            code = None
        return cpu_clock() - t0, code, out.getvalue().encode()

    # -- passes ---------------------------------------------------------------

    def one_pass(self, tracer=None) -> tuple[float, list]:
        """Run every job once; returns (pass CPU seconds, per-job results).

        Each result is (job, seconds, exit code, certificate sha256, error).
        Verdicts are checked after the pass, so the pass time holds only
        the jobs.
        """
        raw = []
        t0 = cpu_clock()
        for i, job in enumerate(self.jobs):
            trace_file = None
            if tracer is not None and self.cold:
                trace_file = os.path.join(self.workdir, f"trace-{i}.json")
            dt, code, out = self._call(job.argv(self.workdir), trace_file,
                                       tracer, job.name)
            raw.append((job, dt, code, out))
        spent = cpu_clock() - t0
        results = []
        for job, dt, code, out in raw:
            error = ("exception" if code is None
                     else job.check(code, out))
            results.append((job, dt, code, hashlib.sha256(out).hexdigest(),
                            error))
        return spent, results

    def passes(self, seconds: float) -> list:
        """Whole passes, at least MIN_PASSES, while the next one would end
        within `seconds`."""
        done = []
        start = time.perf_counter()
        while True:
            done.append(self.one_pass())
            elapsed = time.perf_counter() - start
            if len(done) >= MIN_PASSES and elapsed + done[-1][0] > seconds:
                return done

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.cold else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024


def count_failures(runs: list) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over passes of the same inputs.

    A job fails on a wrong exit code or known answer, an exception, or
    certificate bytes that differ from its first run.
    """
    first = {}
    attempted = failed = 0
    reasons = []
    for _, results in runs:
        for job, _, _, digest, error in results:
            attempted += 1
            ref = first.setdefault(job.name, digest)
            if error is None and digest != ref:
                error = "certificate bytes differ between passes"
            if error is not None:
                failed += 1
                reasons.append(f"{job.name}: {error}")
    return attempted, failed, reasons


def tail(samples: list[float], per_job: dict) -> tuple[float, object]:
    """The tail of the pooled job times, and the percentile it sits at.

    The percentile is the highest one with at least ten samples above it in
    a run of MIN_PASSES passes, so it does not move with the pass count.
    When that percentile would not be above the median (fewer than 20 jobs
    in MIN_PASSES passes), the tail is the median time of the slowest job.
    """
    least = MIN_PASSES * len(per_job)
    if least - 10 > least / 2:
        pct = (least - 10) / least
        return (sorted(samples)[math.ceil(pct * len(samples)) - 1],
                round(100 * pct, 1))
    return (max(statistics.median(v) for v in per_job.values()),
            "slowest job median")


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform()}


def import_times(bench: Bench) -> tuple[float, float]:
    """Cumulative import seconds of hopfgal.cli and numpy, -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hopfgal.cli"],
        env=bench.env, cwd=bench.root, capture_output=True, text=True,
        check=True, timeout=JOB_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            us = int(parts[1])
            cumulative[name] = max(cumulative.get(name, 0), us)
    return cumulative["hopfgal.cli"] / 1e6, cumulative["numpy"] / 1e6


def untraced_run(bench: Bench, seconds: float, setup: list[float]):
    runs = bench.passes(seconds)
    attempted, failed, reasons = count_failures(runs)
    samples = [dt for _, results in runs for _, dt, _, _, _ in results]
    per_job: dict = {}
    for _, results in runs:
        for job, dt, _, _, _ in results:
            per_job.setdefault(job.name, []).append(dt)
    tail_s, tail_pct = tail(samples, per_job)
    metrics = {
        "batch_s": (statistics.median(w for w, _ in runs), "s"),
        "job_s.p50": (statistics.median(samples), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (bench.peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    report = {
        "passes": len(runs), "pass_s": [w for w, _ in runs],
        "job_samples": len(samples), "tail_percentile": tail_pct,
        "fail_share": failed / attempted,
        "job_median_s": {k: statistics.median(v) for k, v in per_job.items()},
        "setup_runs_s": setup,
    }
    return metrics, attempted, failed, reasons, report


def traced_run(bench: Bench):
    """One untraced pass, then one traced pass of the same jobs."""
    base_s, base = bench.one_pass()
    tr = tracing.Tracer(bench.src)
    if bench.cold:
        traced_s, traced = bench.one_pass(tracer=tr)
        states = []
        for i in range(len(bench.jobs)):
            path = os.path.join(bench.workdir, f"trace-{i}.json")
            with open(path) as fh:
                doc = json.load(fh)
            tr.spans.extend(tuple(s) for s in doc.pop("spans"))
            states.append(doc)
        state = tracing.merge(states)
    else:
        tr.install()
        try:
            traced_s, traced = bench.one_pass(tracer=tr)
        finally:
            tr.uninstall()
        state = tr.state()
    tr.dump(os.path.join(bench.workdir, "trace.json"))
    attempted, failed, reasons = count_failures([(base_s, base),
                                                 (traced_s, traced)])
    values = tracing.layer_metrics(state)
    import_s, numpy_s = import_times(bench)
    values["cli.import_s"] = import_s
    values["cli.numpy_import_s"] = numpy_s
    values["trace.overhead_s"] = traced_s - base_s
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    report = {"untraced_pass_s": base_s, "traced_pass_s": traced_s,
              "spans": len(tr.spans),
              "samples": state["samples"]}
    return metrics, attempted, failed, reasons, report


def unit_of(name: str) -> str:
    if name.endswith(".yield"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join(root, "src", "hopfgal", "cli.py"),
              os.path.join(root, workloads.FIXTURES_DIR)]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"not a hopfgal checkout, missing: {missing}", file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    setup = bench.setup()
    if args.trace:
        metrics, attempted, failed, reasons, report = traced_run(bench)
    else:
        metrics, attempted, failed, reasons, report = untraced_run(
            bench, args.seconds, setup)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine(), failures=reasons[:20])
    print(json.dumps(report, sort_keys=True, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
