"""Smoke test of the benchmark itself, at a tiny input scale.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
SCALE = 4


def bench(capsys, tmp_path, workload, trace):
    cwd = os.getcwd()
    try:
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", str(SCALE), "--out", str(tmp_path)])
    finally:
        os.chdir(cwd)
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, tmp_path, workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result = bench(capsys, tmp_path, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_inputs(tmp_path, workload):
    trees = []
    for k in range(2):
        out = tmp_path / str(k)
        workloads.generate(workload, 7, out, scale=SCALE)
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert trees[0] == trees[1]
    other = tmp_path / "other"
    workloads.generate(workload, 8, other, scale=SCALE)
    assert {p.relative_to(other): p.read_bytes() for p in other.rglob("*") if p.is_file()} != trees[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output(tmp_path, workload):
    ops = workloads.generate(workload, 3, tmp_path, scale=SCALE)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        runner = run.InProcess()
        plain = run.run_pass(ops, runner, tmp_path)
        with spans.Tracer() as tracer:
            traced = run.run_pass(ops, runner, tmp_path, tracer)
    finally:
        os.chdir(cwd)
    assert tracer.spans
    assert [r["digest"] for r in traced] == [r["digest"] for r in plain]
