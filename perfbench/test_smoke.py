"""Smoke test of the benchmark harness at tiny sizes, and self-tests of its checks.

    python3 -m pytest -q perfbench

Not part of the repository's tier-1 suite, which collects only ``tests``.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import thermosim as ts  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.fixture(scope="module")
def results() -> dict:
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = bench(workload, trace)
            assert done.returncode == 0, done.stderr
            out[workload, trace] = done.stdout.splitlines()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(results, workload, trace):
    lines = results[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"] and math.isfinite(printed["value"])
        assert any(line.split() == [m["name"], line.split()[1], m["unit"]] for line in lines[:-2])
    details = json.loads(lines[-2])
    assert details["seed"] == 5 and details["workload"] == workload
    assert {"git_commit", "src_sha256", "python", "numpy", "blas", "nproc", "caches"} <= set(details["provenance"])
    if trace:
        assert result["metrics"]["error_ratio"]["value"] == 0.0
    else:
        assert details["counts"]["ops_timed"] > run.TAIL_BEYOND


def test_end_to_end_metrics_are_never_zero(results):
    for workload in WORKLOADS:
        metrics = json.loads(results[workload, 0][-1])["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), workload


def test_layers_separate_the_workloads(results):
    layer = {w: json.loads(results[w, 1][-1])["metrics"] for w in WORKLOADS}
    assert layer["fringe"]["tempop.calls"]["value"] == 0
    assert layer["large_d"]["protocol.calls"]["value"] == 0
    assert layer["large_d"]["interference.calls"]["value"] == 0
    # every per-layer metric is measured somewhere, so no listed name is a typo
    for m in SPEC["per_layer"]:
        if m["name"] != "error_ratio":
            assert any(layer[w][m["name"]]["value"] > 0 for w in WORKLOADS), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("bell", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# --- each check fails on a perturbed value --------------------------------------

def assert_check_catches(wl, k: int, mutations) -> None:
    out = wl.op(k)
    assert wl.check_op(k, out) == []
    for mutate in mutations:
        assert wl.check_op(k, mutate(out)) != []


def nudge_row(rows, delta):
    phi, beta_b, prob = rows[3]
    return rows[:3] + [(phi, beta_b, prob + delta)] + rows[4:]


def test_fringe_check_catches_perturbations():
    assert_check_catches(workloads.Fringe(3, "tiny"), 5, [
        lambda rows: nudge_row(rows, 1e-9),
        lambda rows: nudge_row(rows, math.nan),
    ])


def test_large_d_check_catches_perturbations():
    def entries(matrix, delta):
        bumped = matrix.entries.copy()
        bumped[1, 2] += delta
        return SimpleNamespace(entries=bumped)

    assert_check_catches(workloads.LargeD(3, "tiny"), 1, [
        lambda o: (entries(o[0], 1e-11), *o[1:]),
        lambda o: (o[0], entries(o[1], 1e-11), *o[2:]),
        lambda o: (*o[:2], replace(o[2], rayleigh=o[2].rayleigh + 1e-9), o[3]),
        lambda o: (*o[:2], replace(o[2], residual=2e-10), o[3]),
        lambda o: (*o[:3], replace(o[3], rayleigh=o[3].rayleigh + 2e-6)),
        lambda o: (*o[:3], replace(o[3], residual=math.nan)),
    ])


def test_bell_check_catches_perturbations():
    def shift_counts(counts, n):
        out = dict(counts)
        busiest = max(out, key=out.get)
        other = next(o for o in out if o is not busiest)
        out[busiest] -= n
        out[other] += n
        return out

    wl = workloads.Bell(3, "tiny")
    k = next(k for k in range(wl.CONFIGS)
             if 0.1 < checks.gibbs(wl.configs[k]["beta_a"], wl.configs[k]["energies_a"])[0] < 0.9)
    assert_check_catches(wl, k, [
        lambda o: ([replace(o[0][0], probability=o[0][0].probability + 1e-11), *o[0][1:]], *o[1:]),
        lambda o: (o[0], (o[1][0], o[1][1] + 1e-11), *o[2:]),
        lambda o: (*o[:2], [replace(o[2][0], rayleigh=o[2][0].rayleigh * (1 + 1e-8) + 1e-9), *o[2][1:]], o[3]),
        lambda o: (*o[:2], [*o[2][:3], replace(o[2][3], residual=math.nan)], o[3]),
        lambda o: (*o[:3], shift_counts(o[3], 6 * int(math.sqrt(wl.samples)))),
    ])


def cli_stdout(wl, tmp: Path) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert ts.cli.main(wl.cli_argv(0, tmp)) == 0
    return out.getvalue()


def test_cli_checks_catch_perturbations(tmp_path):
    bell = workloads.Bell(3, "tiny")
    doc = json.loads(cli_stdout(bell, tmp_path))
    assert bell.check_cli(0, tmp_path, json.dumps(doc)) == []
    doc["outcome_probabilities"]["psi_plus"] *= 1 + 1e-6
    assert bell.check_cli(0, tmp_path, json.dumps(doc)) != []

    large = workloads.LargeD(3, "tiny")
    doc = json.loads(cli_stdout(large, tmp_path))
    assert large.check_cli(0, tmp_path, json.dumps(doc)) == []
    doc["finite_difference"]["rayleigh"] += 1e-5
    assert large.check_cli(0, tmp_path, json.dumps(doc)) != []

    fringe = workloads.Fringe(3, "tiny")
    assert fringe.check_cli(0, tmp_path, cli_stdout(fringe, tmp_path)) == []
    csv = tmp_path / "fringe.csv"
    lines = csv.read_text().splitlines()
    phi, prob = lines[7].split(",")
    lines[7] = f"{phi},{float(prob) + 1e-6:.9g}"
    csv.write_text("\n".join(lines) + "\n")
    assert fringe.check_cli(0, tmp_path, "") != []

    assert run.output_problems(1, "", "error: bad config", lambda s: []) != []
    assert run.output_problems(0, "", "Traceback (most recent call last):", lambda s: []) != []


def test_count_deviance_is_a_5_sigma_band():
    n, p = 100_000, 0.3
    sigma = math.sqrt(n * p * (1 - p))
    assert checks.count_deviance(round(n * p + 4.5 * sigma), n, p) < checks.MAX_DEVIANCE
    assert checks.count_deviance(round(n * p + 5.5 * sigma), n, p) > checks.MAX_DEVIANCE
    assert checks.count_deviance(1, n, 0.0) == math.inf
    assert checks.count_deviance(0, n, 1e-300) < 1e-200
