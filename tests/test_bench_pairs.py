"""The pair runner's summariser reproduces every recorded BENCH summary from its pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_recorded_summaries_are_regenerated_exactly(path):
    blocks = list(bench_pairs.recorded_summaries(json.loads(path.read_text())))
    assert blocks
    assert bench_pairs.check(path, END_TO_END) == []


def test_a_changed_summary_is_caught(tmp_path):
    bench = json.loads((ROOT / "BENCH_11.json").read_text())
    pair = bench["workloads"]["large_d"]["pairs"][3]
    pair["change"]["op_p50_s"] = 2 * pair["parent"]["op_p50_s"]  # one change win less
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(bench))
    assert bench_pairs.check(path, END_TO_END) == ["/workloads/large_d"]


def test_wins_and_verdicts_follow_the_direction_of_each_metric():
    metrics = [{"name": "t", "better": "lower", "bound": 0.1}, {"name": "r", "better": "higher", "bound": 0.1}]
    changes = ((1.2, 0.8), (1.2, 0.8), (0.9, 1.0))
    pairs = [{"parent": {"t": 1.0, "r": 1.0}, "change": {"t": t, "r": r}} for t, r in changes]
    got = bench_pairs.summarise(pairs, metrics)
    assert got["t"]["change_wins"] == "1/3" and got["r"]["change_wins"] == "0/3"
    assert got["t"]["verdict"] == got["r"]["verdict"] == "beyond bound"
    assert not got["t"]["gain_beyond_parent_iqr"]
