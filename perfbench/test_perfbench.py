"""Tests of the benchmark itself: smoke runs, input determinism, the gate.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import inputs  # noqa: E402
from npstruct.corpus import IndexProvider  # noqa: E402

TINY = 400


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_of_every_workload(workload):
    result, lines = bench.run(workload, seed=3, seconds=0.05, trace=False, sentences=TINY)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= bench.DIGEST_ITEMS[workload]
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    result, lines = bench.run("attach", seed=3, seconds=0.05, trace=True, sentences=TINY)
    assert result["correct"], lines
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["corpus.count.calls"] > 0
    assert metrics["coordination.voter.ngram-i.count_calls"] == 2
    assert metrics["bracketer.bracket.ms_p50"] == 0
    assert 0 < metrics["trace.overhead_ratio"]
    assert (bench.WORK / "traces" / "attach-seed3.jsonl").is_file()


def test_catalogue_covers_the_listed_layers_and_workloads():
    spec = _spec()
    catalogue = json.loads((HERE / "catalogue.json").read_text(encoding="utf-8"))
    assert set(catalogue["layers"]) == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS) == list(catalogue["workloads"])


def _corpus_digest(workload: str, seed: int, tmp_path: Path) -> str:
    data = inputs.generate(workload, seed, TINY)
    path = tmp_path / f"{workload}-{seed}.txt"
    data.write_corpus(path)
    h = hashlib.sha256(path.read_bytes())
    for item in data.items:
        h.update(repr((item.kind, item.key, item.gold)).encode())
    for example, label in data.semeval_train:
        h.update(repr((example, label)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    first = _corpus_digest(workload, 5, tmp_path)
    assert _corpus_digest(workload, 5, tmp_path) == first
    assert _corpus_digest(workload, 6, tmp_path) != first


def test_same_seed_same_bytes_across_processes(tmp_path):
    """String hashing differs between processes; the inputs must not."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import test_perfbench as t; from pathlib import Path\n"
        "print(t._corpus_digest('attach', 5, Path(sys.argv[3])))\n"
    )
    digests = set()
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(ROOT / "src"), str(tmp_path)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


class _PlusOne(IndexProvider):
    def count(self, query):
        return super().count(query) + 1


def test_gate_fails_the_run_when_counts_are_off_by_one(monkeypatch):
    monkeypatch.setattr(bench, "IndexProvider", _PlusOne)
    result, lines = bench.run("relsim", seed=3, seconds=0.05, trace=False, sentences=TINY)
    assert not result["correct"]
    assert any(line.startswith("error:") and "oracle" in line for line in lines)


def test_a_raising_pipeline_fails_the_run(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken pipeline")

    monkeypatch.setattr(bench.coordination, "coord_pipeline", broken)
    result, lines = bench.run("attach", seed=3, seconds=0.05, trace=False, sentences=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any(line.startswith("error:") and "raised" in line for line in lines)


def test_entry_point_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_bytes(src.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bracket", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
