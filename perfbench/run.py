"""baxcat benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-classify, cli-verify, lib-session (see README.md).  Load is a
closed loop with one client: one program process at a time, each pinned to
one BLAS/OpenMP thread.  A run repeats whole passes over the workload's jobs
until S seconds have gone, so every run attempts the same jobs in the same
proportions.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an untraced
pass with a traced pass and prints the per-layer metrics, per pass, with
the tracing overhead.  The last line of stdout is the result JSON; failed
jobs are named on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

# fresh `import baxcat` processes timed before the first pass and after each
# pass; setup_s is their median, so it samples the whole run
SETUP_FIRST, SETUP_PER_PASS = 3, 2
JOB_TIMEOUT = 60
SPAWNED = "{spawned}"     # argv placeholder for the parent's clock at process start
# Program processes import cached bytecode, as from an installed package, whatever
# the caller's setting; a fixed hash seed keeps set and dict orders, and so the
# traced counts, equal across processes.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
       **workloads.PIN, "PYTHONHASHSEED": "0",
       "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


class Tally:
    """Jobs attempted and failed, job times, and program-process totals."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.job_s = []
        self.process_s = 0.0      # wall time while a program process ran
        self.cpu_s = 0.0
        self.layers = defaultdict(float)
        # per pass: jobs per second of program-process time, and the median job
        self.pass_rates, self.pass_p50 = [], []
        self._jobs_mark = self._process_mark = 0

    def close_pass(self):
        jobs = self.job_s[self._jobs_mark:]
        self.pass_rates.append(len(jobs) / (self.process_s - self._process_mark))
        self.pass_p50.append(statistics.median(jobs))
        self._jobs_mark, self._process_mark = len(self.job_s), self.process_s

    def record(self, name, seconds, errors, known=(), known_fault=False):
        self.attempted += 1
        self.job_s.append(seconds)
        if errors or known:
            self.failed += 1
            expected = known_fault and not errors
            self.correct &= expected
            tag = "FAILED (known fault)" if expected else "FAILED"
            for line in list(errors) + list(known):
                print(f"{tag} {name}: {line}", file=sys.stderr)

    def add_trace(self, trace):
        self.layers["process.start_s"] += trace["start_s"]
        for key, val in trace["self_s"].items():
            self.layers[key] += val
        for key, val in trace["counts"].items():
            if key == "treerep.basis_dim_max":
                self.layers[key] = max(self.layers[key], val)
            else:
                self.layers[key] += val


def spawn(argv, **kw):
    """Run one program process to its end; returns (process, wall s, cpu s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable] + [repr(t0) if a == SPAWNED else a for a in argv],
                          env=ENV, cwd=ROOT, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT, **kw)
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return proc, wall, cpu


def _parse(proc):
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, [f"exit code {proc.returncode}: {' | '.join(tail)}"]
    try:
        return json.loads(proc.stdout), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def cli_pass(jobs, tally, trace):
    trace_file = OUT / "trace-job.json"
    for job in jobs:
        if trace:
            trace_file.unlink(missing_ok=True)
            argv = [str(HERE / "tracer.py"), SPAWNED, str(trace_file)]
        else:
            argv = ["-m", "baxcat.cli"]
        proc, wall, cpu = spawn(argv + ["--format", "json", *job.argv])
        tally.process_s += wall
        tally.cpu_s += cpu
        doc, errors = _parse(proc)
        known = []
        if doc is not None:
            errors, known = job.check(doc)
        tally.record(job.name, wall, errors, known, job.known_fault)
        if trace and not proc.returncode:
            tally.add_trace(json.loads(trace_file.read_text()))


def session_pass(plan, tally, trace):
    proc, wall, cpu = spawn([str(HERE / "session.py"), SPAWNED, str(int(trace))],
                            input=json.dumps(plan.doc))
    tally.process_s += wall
    tally.cpu_s += cpu
    result, errors = _parse(proc)
    if result is None:
        tally.record("lib-session", wall, errors)
        return
    for job in result["jobs"]:
        tally.record(f"{job['kind']} {job['category']}", job["s"],
                     workloads.session_errors(plan, job))
    if trace:
        tally.add_trace(result["trace"])


def setup_times(n):
    """Times for n fresh interpreters to finish `import baxcat`."""
    times = []
    for _ in range(n):
        proc, wall, _ = spawn(["-c", "import baxcat"])
        if proc.returncode:
            raise SystemExit(f"import baxcat failed: {proc.stderr.strip()}")
        times.append(wall)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cli-classify", "cli-verify", "lib-session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "baxcat" / "__init__.py").is_file():
        print(f"error: no baxcat sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload == "lib-session":
        run_pass = functools.partial(session_pass, workloads.lib_session(args.seed, OUT / "inputs"))
    else:
        make_jobs = workloads.cli_classify if args.workload == "cli-classify" else workloads.cli_verify
        run_pass = functools.partial(cli_pass, make_jobs(args.seed))

    plain, traced = Tally(), Tally()
    setup = [] if args.trace else setup_times(SETUP_FIRST)
    rounds = 0
    t0 = time.monotonic()
    while rounds == 0 or time.monotonic() - t0 < args.seconds:
        run_pass(plain, False)
        plain.close_pass()
        if args.trace:
            run_pass(traced, True)
        else:
            setup += setup_times(SETUP_PER_PASS)
        rounds += 1

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if args.trace:
        per = {key: val / rounds for key, val in traced.layers.items()}
        per["treerep.basis_dim_max"] = traced.layers["treerep.basis_dim_max"]
        per["process.cpu_s"] = plain.cpu_s / rounds
        per["trace.overhead_s"] = (traced.process_s - plain.process_s) / rounds
        per["trace.unattributed_s"] = (traced.process_s - sum(
            traced.layers[k] for k in tuple(tracer.SPANS) + ("process.start_s",))) / rounds
        units = {"treerep.dense_mb": "MB"}
        metrics = {}
        for key in (("process.start_s", "process.cpu_s") + tuple(tracer.SPANS) + tracer.COUNTS
                    + ("trace.overhead_s", "trace.unattributed_s")):
            unit = units.get(key, "s" if key.endswith("_s") else "count")
            metrics[key] = {"value": per.get(key, 0), "unit": unit}
        (OUT / f"{args.workload}-trace.json").write_text(json.dumps(
            {"seed": args.seed, "rounds": rounds, "untraced_process_s": plain.process_s / rounds,
             "traced_process_s": traced.process_s / rounds, "metrics": metrics}, indent=1))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "jobs_per_s": {"value": statistics.median(plain.pass_rates), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(plain.pass_p50), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(f"{args.workload}: {rounds} rounds, {attempted} jobs, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": plain.correct and traced.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
