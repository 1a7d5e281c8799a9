"""Tiny-scale tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from repro.api import DataOwner, Message, RemoteOwnerSession  # noqa: E402
from repro.api import session as session_module  # noqa: E402

TINY = workloads.Scale(rows=240, zipcodes=32, setups=2, min_selects=6)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text())


def tiny_run(name: str, tmp_path: Path, trace: bool = False, seed: int = 3):
    return workloads.run(name, seed, 0.3, trace, tmp_path, scale=TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name, tmp_path):
    result, info = tiny_run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
    assert {key: metric["unit"] for key, metric in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert info["input_digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    originals = (DataOwner.plan_query, Message.__dict__["decode"], session_module.compute_view_delta)
    result, info = tiny_run(name, tmp_path, trace=True)
    # The wrappers are gone again once the traced run ends.
    assert (DataOwner.plan_query, Message.__dict__["decode"], session_module.compute_view_delta) == originals
    assert result["correct"]
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert 0 <= metrics["residual_fraction"] <= 1
    assert metrics["owner.resolve_ms"] > 0
    assert (metrics["integrity.verify_ms"] > 0) == (name != "point-select")
    assert set(info["largest_layer"]) == {"outsource", "insert", "discover", "select"}


def test_layer_map_matches_benchmark_json():
    assert LAYER_MAP["workloads"] == SPEC["workloads"]
    assert [
        {"name": entry["name"], "unit": entry["unit"], "better": entry["better"]}
        for entry in LAYER_MAP["per_layer"]
    ] == SPEC["per_layer"]
    metric_names = {entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {moved for entry in LAYER_MAP["per_layer"] for moved in entry["moves"]} <= metric_names
    assert sorted(workloads.WORKLOADS) == sorted(entry["name"] for entry in SPEC["workloads"])


def test_oracle_catches_a_dropped_row(tmp_path, monkeypatch):
    select = RemoteOwnerSession.select

    def drop_first_row(session, predicate):
        rows = select(session, predicate)
        return rows.select_rows(range(1, rows.num_rows)) if rows.num_rows else rows

    monkeypatch.setattr(RemoteOwnerSession, "select", drop_first_row)
    result, _ = tiny_run("point-select", tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


DIGEST_SCRIPT = """
import sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
scale = workloads.Scale(rows=int(sys.argv[4]), zipcodes=int(sys.argv[5]), setups=2)
for name, cls in sorted(workloads.WORKLOADS.items()):
    print(name, cls(int(sys.argv[3]), scale, Path(".")).input_digest())
"""


def digests(seed: int, hash_seed: str) -> str:
    """Each workload's input digest, computed in a fresh interpreter."""
    args = [str(BENCH), str(ROOT / "src"), str(seed), str(TINY.rows), str(TINY.zipcodes)]
    return subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, *args],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_same_seed_gives_same_input_digest_in_every_process():
    first = digests(5, "1")
    assert first.count("\n") == len(workloads.WORKLOADS)
    assert digests(5, "2") == first
    assert digests(6, "1") != first
