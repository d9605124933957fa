"""The pair runner reproduces every recorded BENCH summary from its pairs, and judges a claim by the pair rule."""

import importlib.util
import json
from pathlib import Path

import numpy as np
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


def _claimed(changes):
    """A BENCH file of one fringe op_p50_s workload, parent runs 1.00..1.09, claiming a fall."""
    metrics = [{"name": "op_p50_s", "better": "lower", "bound": 0.24}]
    pairs = [{"parent": {"op_p50_s": 1.0 + i / 100}, "change": {"op_p50_s": c}} for i, c in enumerate(changes)]
    workloads = {"fringe": {"pairs": pairs, "summary": bench_pairs.summarise(pairs, metrics)}}
    bench = {"claim": "fringe op_p50_s improves", "workloads": workloads}
    bench["claim_verdict"] = bench_pairs.judge(bench["claim"], workloads)
    return bench


def test_a_claim_won_in_nine_of_ten_pairs_beyond_the_parent_iqr_is_met(tmp_path):
    # one tie (pair 0), which counts for neither side; the parent's IQR is 0.045
    bench = _claimed([1.0] + [0.8] * 9)
    assert bench["claim_verdict"] == {
        "workload": "fringe", "metric": "op_p50_s", "change_wins": "9/10", "gain_beyond_parent_iqr": True, "met": True,
    }
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(bench))
    assert bench_pairs.check(path, END_TO_END) == []
    bench["claim_verdict"]["met"] = False
    path.write_text(json.dumps(bench))
    assert bench_pairs.check(path, END_TO_END) == ["/claim_verdict"]


@pytest.mark.parametrize("changes", [[1.0, 1.01] + [0.8] * 8, [1.0] * 10, [c - 0.03 for c in np.linspace(1.0, 1.09, 10)]],
                         ids=["eight_wins", "ten_ties", "gain_within_iqr"])
def test_a_claim_short_of_the_rule_is_not_met(changes):
    verdict = _claimed(changes)["claim_verdict"]
    assert verdict["met"] is False


def test_a_claim_must_name_a_workload_and_a_metric():
    with pytest.raises(ValueError, match="improves"):
        bench_pairs.parse_claim("fringe is faster")
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "a", "--change", "b", "--scratch", "s", "--out", "o",
                                "--workload", "bell:1", "--claim", "fringe op_p50_s improves"])
