"""Runs one workload's jobs in a fresh process and times each of them.

Usage: python3 worker.py MANIFEST RESULTS --src DIR --seconds S --trace 0|1
                         --deadline UNIX_TIME

A job is one in-process call of `memtrace.cli.main(argv)` with stdout and
stderr captured.  The program is single-threaded and CPU-bound, so a job
is timed in the CPU time of the worker's only thread.  (Process CPU time
turns tick-granular while a profiling timer is armed.)  On a shared host that time still swings
with the neighbours: the same job runs up to 1.8x slower while they are
busy, in phases lasting from milliseconds to minutes.  So a fixed
pure-Python reference loop runs right before and after each job run and,
from a profiling-timer signal, every SAMPLE_EVERY_S of CPU time during
it, and the job's time is reported at reference speed:

    job seconds = job CPU seconds * REFERENCE_S / mean(reference CPU seconds)

i.e. the time the job would take on a CPU that runs the reference loop in
exactly REFERENCE_S.  The CPU time the samples take is left out of the
job's.  The loop allocates nothing and imports nothing from memtrace, so
the program cannot change its speed.  Raw CPU and wall time are summed
for the report.

Passes over the manifest's fixed job list repeat, at least twice and
then while another pass still fits in `--seconds` of wall time.  With
`--trace 1` every job runs twice per pass, untraced and traced, in
alternating order; the difference is the tracing overhead.

Outputs of the first pass are kept for the output checks; every later
run of a job must reproduce them byte for byte.  Peak RSS is read before
the untimed check jobs run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from reference import REFERENCE_S, reference_cpu_s

# Every job runs at least this often.
MIN_PASSES = 2
SAMPLE_EVERY_S = 0.04


class Speedometer:
    """Samples the reference loop around and during one job at a time."""

    def __init__(self):
        self.spent_ns = 0  # CPU time taken by the samples themselves
        self.samples: list[float] = []
        signal.signal(signal.SIGPROF, self._sample)

    def clock_ns(self) -> int:
        """Thread CPU time without the samples'."""
        return time.thread_time_ns() - self.spent_ns

    def _sample(self, *_signal) -> None:
        started = time.thread_time_ns()
        self.samples.append(reference_cpu_s())
        self.spent_ns += time.thread_time_ns() - started

    def __enter__(self):
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._sample()

    def scale(self) -> float:
        """Factor from this job's CPU time to time at reference speed."""
        return REFERENCE_S / statistics.fmean(self.samples)


def _digest(job: dict, code, stdout: str) -> str:
    h = hashlib.blake2b(f"{code}\0{stdout}\0".encode("utf-8"))
    if job.get("out"):
        try:
            with open(job["out"], "rb") as handle:
                h.update(handle.read())
        except OSError:
            h.update(b"\0missing")
    return h.hexdigest()


def run_job(cli, job: dict, speed: Speedometer) -> dict:
    """Run one job; its exit code (None if it raised), output and times."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = ""
    with speed, redirect_stdout(out), redirect_stderr(err):
        wall = time.perf_counter()
        cpu = speed.clock_ns()
        try:
            code = cli.main(list(job["argv"]))
        except Exception as exc:  # a crash is a failed job, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        cpu = (speed.clock_ns() - cpu) / 1e9
        wall = time.perf_counter() - wall
    return {"exit": code, "stdout": out.getvalue(),
            "error": error or err.getvalue().strip(),
            "seconds": cpu * speed.scale(), "cpu": cpu, "wall": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("results")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    from memtrace import cli, guest, recon, signature, trace
    import spans as spans_mod

    with open(args.manifest, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    jobs = manifest["jobs"]
    speed = Speedometer()
    recorder = spans_mod.Recorder({"cli": cli, "guest": guest, "recon": recon,
                                   "signature": signature, "trace": trace},
                                  clock=speed.clock_ns)

    times = {job["id"]: [] for job in jobs}
    traced = {job["id"]: [] for job in jobs}
    first = {}  # job id -> (output of pass 1, its digest)
    differing = {}  # job id -> later runs that differed from pass 1 or raised
    cpu_s = wall_s = traced_cpu_s = 0.0
    passes = 0
    begun = time.monotonic()
    finished = True
    while finished:
        pass_started = time.monotonic()
        for position, job in enumerate(jobs):
            if time.time() > args.deadline:
                finished = False
                break
            runs = [False, True] if args.trace else [False]
            if args.trace and (position + passes) % 2:
                runs.reverse()
            for with_spans in runs:
                if with_spans:
                    recorder.install(job["id"])
                try:
                    result = run_job(cli, job, speed)
                finally:
                    if with_spans:
                        recorder.uninstall()
                (traced if with_spans else times)[job["id"]].append(
                    result["seconds"])
                cpu_s += result["cpu"]
                traced_cpu_s += result["cpu"] if with_spans else 0.0
                wall_s += result["wall"]
                digest = _digest(job, result["exit"], result["stdout"])
                if job["id"] not in first:
                    first[job["id"]] = (result, digest)
                elif digest != first[job["id"]][1] or result["exit"] is None:
                    differing[job["id"]] = differing.get(job["id"], 0) + 1
        else:
            passes += 1
            now = time.monotonic()
            if (passes >= MIN_PASSES
                    and now - begun + (now - pass_started) > args.seconds):
                break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    checks = {}
    for job in manifest["checks"] if finished else ():
        checks[job["id"]] = run_job(cli, job, speed)

    def output(result):
        return {k: result[k] for k in ("exit", "stdout", "error")}

    results = {
        "finished": finished,
        "passes": passes,
        "cpu_s": cpu_s,
        "traced_cpu_s": traced_cpu_s,
        "wall_s": wall_s,
        "times": times,
        "traced_times": traced if args.trace else {},
        "outputs": {k: output(v[0]) for k, v in first.items()},
        "reruns_differing": differing,
        "check_outputs": {k: output(v) for k, v in checks.items()},
        "peak_rss_kb": peak_rss_kb,
        "spans": recorder.spans,
    }
    with open(args.results, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
