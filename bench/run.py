"""End-to-end benchmark of the memtrace command line.

    python3 bench/run.py --workload sign|layout|match|diff --seed N
                         --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  One run:

1. times `setup_s`: fresh interpreters that import memtrace and build the
   CLI parser (median of several spawns, at reference speed; untraced
   runs only);
2. generates the workload's inputs from the seed (`workloads.py`) into a
   scratch directory under `.bench_work/`;
3. runs the jobs in one fresh worker process (`worker.py`), one at a
   time, in at least two passes over the fixed job mix and more while
   another pass fits in `--seconds`, timing each job at reference speed;
4. checks every job's output against the planted truth (`checks.py`);
5. prints a readable report, a `context` line (Python version, nproc,
   seed, commit, input sizes) and, last, one JSON result line.

With `--trace 0` the result holds the end-to-end metrics; with
`--trace 1` the per-layer metrics of `spans.py`.  The exit code is 0 only
when every job passed its check.  See README.md in this directory for why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TIME_LIMIT = 170.0  # a run must end well within 180 s
SETUP_SPAWNS = 15
# Runs in a fresh interpreter: the CPU time of importing memtrace and
# building the parser, bracketed by the reference loop.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
from reference import reference_cpu_s
before = reference_cpu_s()
started = time.thread_time()
sys.path.insert(0, sys.argv[2])
import memtrace.cli
memtrace.cli.build_parser()
took = time.thread_time() - started
print(took, before, reference_cpu_s())
"""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MEMTRACE_TAU"}
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median, over fresh interpreters, of the time to import memtrace and
    build the CLI parser, at reference speed (see worker.py).  Interpreter
    start-up is left out: no change to memtrace can move it.  One untimed
    spawn first writes bytecode."""
    command = [sys.executable, "-c", SETUP_SNIPPET, str(HERE), str(SRC)]
    samples = []
    for index in range(spawns + 1):
        out = subprocess.run(command, env=_env(), check=True, timeout=30,
                             capture_output=True, text=True).stdout
        took, before, after = map(float, out.split())
        if index:
            samples.append(took * REFERENCE_S / ((before + after) / 2))
    return statistics.median(samples)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def harrell_davis(values: list, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of quantile `p`.

    A weighted mean of all order statistics, the weights being the mass a
    Beta(p(n+1), (1-p)(n+1)) distribution puts on each rank's interval
    [i/n, (i+1)/n].  It moves far less than a single order statistic when
    the jobs next to the quantile swap places from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        width = 1 / (n * steps)
        points = (i / n + (k + 0.5) * width for k in range(steps))
        weights.append(width * sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in points))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _verdicts(manifest: dict, results: dict) -> dict:
    """Job id -> None if its first output passed its check, else why not.

    A failed untimed check job (the `bases` listing of a sign model) is
    charged to that model's `sign` job.
    """
    verdicts = {}
    for job in manifest["jobs"]:
        out = results["outputs"].get(job["id"])
        verdicts[job["id"]] = (checks.check_job(job, out["exit"], out["stdout"])
                               if out else "never ran")
    for job in manifest["checks"]:
        out = results["check_outputs"].get(job["id"])
        owner = job["id"].split(".", 1)[0] + ".sign"
        problem = (checks.check_job(job, out["exit"], out["stdout"])
                   if out else "never ran")
        if problem and not verdicts[owner]:
            verdicts[owner] = f"{job['kind']}: {problem}"
    return verdicts


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, setup_spawns: int = SETUP_SPAWNS
        ) -> tuple[dict, dict, list]:
    """One benchmark run; returns (result line, context, report lines)."""
    started = time.monotonic()
    deadline = time.time() + TIME_LIMIT
    setup_s = None if trace else measure_setup(setup_spawns)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        manifest = workloads.generate(workload, seed, workdir, scale)
        manifest_path = os.path.join(workdir, "manifest.json")
        results_path = os.path.join(workdir, "results.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        remaining = TIME_LIMIT - (time.monotonic() - started)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), manifest_path,
             results_path, "--src", str(SRC), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--deadline", str(deadline - 5)],
            env=_env(), check=True, timeout=max(remaining, 1),
            cwd=workdir)
        with open(results_path, "r", encoding="utf-8") as handle:
            results = json.load(handle)
        verdicts = _verdicts(manifest, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = failed = 0
    for job_id, runs in results["times"].items():
        n_runs = len(runs) + len(results["traced_times"].get(job_id, ()))
        attempted += n_runs
        failed += (n_runs if verdicts[job_id]
                   else results["reruns_differing"].get(job_id, 0))
    if not results["finished"]:
        failed += 1
        attempted += 1
    report = [f"{workload} seed={seed} passes={results['passes']} "
              f"jobs={attempted} failed={failed} "
              f"job_cpu_s={results['cpu_s']:.3f} "
              f"job_wall_s={results['wall_s']:.3f}"]
    report += [f"  FAIL {job_id}: {why}" for job_id, why in verdicts.items()
               if why][:20]
    # One time per job: the median of its runs, at reference speed.
    per_job = [statistics.median(runs) for runs in results["times"].values()
               if runs]
    if trace:
        per_job_traced = [statistics.median(runs)
                          for runs in results["traced_times"].values() if runs]
        metrics = spans.aggregate(results["spans"], results["traced_cpu_s"],
                                  sum(per_job_traced) / sum(per_job) - 1,
                                  max(results["passes"], 1))
        accounted = sum(metrics[f"{layer}.share"]["value"]
                        for layer in spans.LAYERS)
        report.append(f"  layers' self time covers {accounted:.4f} of the "
                      f"traced job CPU time")
    else:
        metrics = {
            "jobs_per_s": {"value": len(per_job) / sum(per_job),
                           "unit": "1/s"},
            "job_ms_p50": {"value": 1e3 * harrell_davis(per_job, 0.5),
                           "unit": "ms"},
            "job_ms_p90": {"value": 1e3 * harrell_davis(per_job, 0.9),
                           "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": results["peak_rss_kb"] / 1024,
                            "unit": "MB"},
        }
        report.append(f"  {'error_rate':<16} {failed / attempted:.6g} "
                      f"({failed}/{attempted})")
    report += [f"  {name:<40} {m['value']:.6g} {m['unit']}"
               for name, m in metrics.items()]
    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": results["passes"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(), "input_sizes": manifest["sizes"],
        "jobs_per_pass": len(manifest["jobs"]),
        "error_rate": failed / attempted,
    }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, context, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memtrace" / "cli.py").is_file():
        print(f"error: no memtrace sources under {SRC}", file=sys.stderr)
        return 2
    try:
        line, context, report = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print("context " + json.dumps(context))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
