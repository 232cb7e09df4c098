"""Stability mode: two sets of runs of the same code, compared.

    python3 bench/stability.py [--workloads sign,diff] [--runs 10]
                               [--out report.json]

Runs `run.py` untraced `--runs` times per workload in each of two sets,
with a different seed each run (set A seeds 1..runs, set B 101..), one
run at a time.  For every end-to-end metric it reports both medians,
both quartile spreads (Q3 - Q1 over the median, from
`statistics.quantiles(values, n=4)`), and whether the two sets agree
within the bounds in BENCHMARK.json: each spread within the bound
(`setup_s` excepted) and set B's median no worse than set A's by more
than the bound.  `target` marks spreads below a third of the bound.
Exits 1 if any run fails or any metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_BASES = (1, 101)


def spread(values: list) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), wall


def compare(spec: dict, sets: list) -> dict:
    """Per-metric medians, spreads and agreement of two sets of results."""
    out = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in s] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        drift = worsening(medians[0], medians[1], metric["better"])
        spread_ok = name == "setup_s" or max(spreads) <= bound
        out[name] = {
            "values": values, "medians": medians, "spreads": spreads,
            "bound": bound,
            "drift": drift, "spread_ok": spread_ok,
            "target": name == "setup_s" or max(spreads) < bound / 3,
            "agree": spread_ok and drift <= bound,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {}
    ok = True
    for workload in args.workloads.split(","):
        sets, walls = [], []
        for base in SEED_BASES:
            results = []
            for seed in range(base, base + args.runs):
                result, wall = one_run(workload, seed, spec["run_seconds"])
                ok &= result["correct"]
                results.append(result)
                walls.append(wall)
            sets.append(results)
        table = compare(spec, sets)
        report[workload] = {"metrics": table, "max_wall_s": max(walls),
                            "mean_wall_s": statistics.fmean(walls)}
        print(f"{workload}: wall mean {statistics.fmean(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for name, row in table.items():
            ok &= row["agree"]
            print(f"  {name:<12} median {row['medians'][0]:.5g} / "
                  f"{row['medians'][1]:.5g}  spread "
                  f"{row['spreads'][0]:.3f} / {row['spreads'][1]:.3f}  "
                  f"bound {row['bound']}  drift {row['drift']:+.3f}  "
                  f"{'agree' if row['agree'] else 'DISAGREE'}"
                  f"{'' if row['target'] else ' (spread above bound/3)'}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
