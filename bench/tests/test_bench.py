"""The benchmark's own tests: tiny smoke runs and checks that reject.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_untraced(workload):
    line, context, _report = run.run(workload, seed=3, seconds=0.1,
                                     trace=False, scale=0.1, setup_spawns=1)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert context["seed"] == 3 and context["input_sizes"]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_smoke_traced(workload):
    line, _context, _report = run.run(workload, seed=4, seconds=0.1,
                                      trace=True, scale=0.1)
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert line["metrics"]["cli.main.calls"]["value"] > 0


def test_generators_are_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = workloads.generate("diff", 7, str(tmp_path / "a"), 0.1)
    second = workloads.generate("diff", 7, str(tmp_path / "b"), 0.1)
    assert [j["truth"] for j in first["jobs"]] == \
        [j["truth"] for j in second["jobs"]]
    for name in ("pair000.a.sig", "pair000.b.sig"):
        assert (tmp_path / "a" / name).read_text() == \
            (tmp_path / "b" / name).read_text()


def test_per_layer_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["per_layer"]] == list(spans.PER_LAYER)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    ms = 1_000_000
    recorded = [
        ["cli.main", 0, 100 * ms, -1, "j", False, None],
        ["recon.collect_bases", 10 * ms, 60 * ms, 0, "j", False, {"bases": 3}],
        ["recon.recover_calls", 20 * ms, 50 * ms, 1, "j", True, {"calls": 2}],
    ]
    metrics = spans.aggregate(recorded, traced_cpu_s=0.2, overhead=0.1,
                              passes=2)
    assert metrics["cli.self_s"]["value"] == pytest.approx(0.025)
    assert metrics["cli.share"]["value"] == pytest.approx(0.25)
    assert metrics["recon.self_s"]["value"] == pytest.approx(0.025)
    assert metrics["recon.collect_bases.s"]["value"] == pytest.approx(0.025)
    assert metrics["recon.collect_bases.bases"]["value"] == 1.5
    assert metrics["recon.errors"]["value"] == 0.5
    assert metrics["tracing_overhead"]["value"] == pytest.approx(0.1)


def test_recorder_restores_originals():
    sys.path.insert(0, str(ROOT / "src"))
    from memtrace import cli, guest, recon, signature, trace
    modules = {"cli": cli, "guest": guest, "recon": recon,
               "signature": signature, "trace": trace}
    before = {(m, a): getattr(modules[m], a) for m, a, _n, _c in spans.WRAPPED}
    recorder = spans.Recorder(modules)
    recorder.install("job")
    assert signature.lcmap is not before[("signature", "lcmap")]
    assert signature.similarity([1, 2, 3], [1, 2, 3], 0) == 1.0
    recorder.uninstall()
    assert {(m, a): getattr(modules[m], a) for m, a in before} == before
    names = [s[0] for s in recorder.spans]
    assert names == ["signature.similarity", "signature.lcmap"]
    assert recorder.spans[1][3] == 0  # lcmap's parent is similarity


# -- each check rejects a deliberately wrong output ----------------------


def test_bases_check_rejects_a_dropped_base():
    job = {"kind": "bases", "expect": 0,
           "truth": [[0x9000, 64], [0xA000, 0x1800]]}
    listing = ("0x9000 0x40 heap-hook rip=0x401000\n"
               "0xa000 0x1800 heap-hook rip=0x401004\n")
    assert checks.check_job(job, 0, listing) is None
    dropped = listing.splitlines()[0] + "\n"
    assert "0xa000" in checks.check_job(job, 0, dropped)
    wrong_size = listing.replace("0x1800", "0x1000")
    assert checks.check_job(job, 0, wrong_size) is not None


def test_reconstruct_check_rejects_a_mistyped_field(tmp_path):
    report = tmp_path / "report.json"
    job = {"kind": "reconstruct", "expect": 0, "out": str(report),
           "truth": [[0, 4, "int"], [8, 8, "pointer"]]}
    fields = [{"offset": 0, "size": 4, "category": "int"},
              {"offset": 4, "size": 4, "category": "char-array"},
              {"offset": 8, "size": 8, "category": "pointer"}]
    report.write_text(json.dumps({"fields": fields}))
    assert checks.check_job(job, 0, "") is None
    fields[0]["category"] = "unsigned int"
    report.write_text(json.dumps({"fields": fields}))
    assert "int 4@0" in checks.check_job(job, 0, "")


def test_match_check_rejects_a_flipped_verdict():
    job = {"kind": "match", "expect": 0,
           "truth": {"verdict": "match", "core": 270}}
    good = json.dumps({"L": 290, "I": 300, "ratio": 0.96, "verdict": "match"})
    flipped = json.dumps({"L": 290, "I": 300, "ratio": 0.96,
                          "verdict": "no-match"})
    assert checks.check_job(job, 0, good) is None
    assert "verdict" in checks.check_job(job, 0, flipped)
    assert "exit code" in checks.check_job(job, 1, good)


def test_diff_check_rejects_overlapping_ranges(tmp_path):
    a = [0, 10, 20, 30, 9000, 40, 50]
    b = [0, 10, 20, 30, 12000, 40, 50]
    paths = []
    for name, offsets in (("a", a), ("b", b)):
        path = tmp_path / f"{name}.sig"
        path.write_text(json.dumps({"base": "0x0", "offsets": offsets}))
        paths.append(str(path))
    job = {"kind": "diff", "expect": 0, "inputs": paths,
           "truth": {"edits": [[4, 5], [4, 5]], "region": 0}}
    good = {"matched": [[[0, 4], [0, 4]], [[5, 7], [5, 7]]],
            "unmatched": [[[4, 5], [4, 5]]]}
    assert checks.check_job(job, 0, json.dumps(good)) is None
    overlapping = {"matched": [[[0, 5], [0, 5]], [[5, 7], [5, 7]]],
                   "unmatched": [[[4, 5], [4, 5]]]}
    assert "tile" in checks.check_job(job, 0, json.dumps(overlapping))
    edit_matched = {"matched": [[[0, 7], [0, 7]]], "unmatched": []}
    assert checks.check_job(job, 0, json.dumps(edit_matched)) is not None
