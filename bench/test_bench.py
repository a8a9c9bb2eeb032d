"""Self-test of the benchmark: every workload at a tiny size, and its failure accounting.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result, record, spans = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= record["ops_per_pass"] * (1 + trace)
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert record["why"] and record["seed"] == 3
    assert bool(spans) == bool(trace)


def _break_after_warm_up(monkeypatch, attr, replacement):
    """Install a fault in ``haig.cli`` once set-up has warmed every verb up."""
    warm_up = run.warm_up

    def warm_up_then_break(haig, workdir):
        warm_up(haig, workdir)
        monkeypatch.setattr(haig.cli, attr, replacement(getattr(haig.cli, attr)))

    monkeypatch.setattr(run, "warm_up", warm_up_then_break)


def test_bad_output_counts_as_failed(monkeypatch):
    def shifted(payload):
        def solution_payload(sol):
            out = payload(sol)
            out["V"] = [v + 0.5 for v in out["V"]]
            return out
        return solution_payload

    _break_after_warm_up(monkeypatch, "solution_payload", shifted)
    result, record, _ = run.run("dense", seed=3, seconds=0, trace=0, tiny=True)
    assert not result["correct"]
    assert result["failed"] == 1
    assert record["failures"][0]["argv"][0] == "solve"
    assert record["failures"][0]["reason"].startswith("check failed")


def test_raising_verb_counts_as_failed(monkeypatch, tmp_path):
    def raising(verify_safety):
        def broken(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")
        return broken

    _break_after_warm_up(monkeypatch, "verify_safety", raising)
    result, record, _ = run.run("small", seed=3, seconds=0, trace=0, tiny=True)
    haig = run.import_haig()
    plan = WORKLOADS["small"](haig, 3, str(tmp_path), tiny=True)
    verifies = sum(1 for op in plan.ops if op.verb == "verify")
    assert result["failed"] == verifies > 1
    assert all(f["reason"].startswith("RecursionError") for f in record["failures"])
    assert result["attempted"] == record["ops_per_pass"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
