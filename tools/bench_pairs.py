"""Parent/change pairs of perfbench runs, summarised into a BENCH_<n>.json file.

Run from the root of a git checkout, after the change is committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --scratch /tmp/pairs \\
        --workload large_d:1201 --workload fringe:1301 --workload bell:1401 \\
        --pairs 10 --claim "large_d op_p50_s improves" --out BENCH_12.json

Each side is extracted with ``git archive`` into its own directory under
``--scratch`` and benchmarked from there, so neither run sees the other's
files or the working tree.  Per workload, pair i runs
``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` on both
sides, one run at a time, parent first on even i and change first on odd i.
One traced run per side (``--trace 1``) follows on seed S+N.  The bounds, the
direction of each metric and the run length T (``run_seconds``) come from the
parent's ``BENCHMARK.json``.  Each run extracts both trees afresh, replacing
any earlier copy, so an interrupted extraction is never benchmarked.  The
runs inherit this process's environment; the file's ``method`` records the
two bytecode settings among it, ``PYTHONDONTWRITEBYTECODE`` and
``PYTHONPYCACHEPREFIX``, because with bytecode uncached every ``setup_s`` and
``cli_wall_p50_s`` includes compiling the sources.

A claim reads "<workload> <metric> improves".  The file records whether it
is met (``claim_verdict``): the change wins at least nine tenths of the pairs,
ties counting for neither, and its median gain exceeds the parent's IQR.

    python3 tools/bench_pairs.py --check BENCH_11.json

recomputes the summary blocks of an existing file from its recorded pairs,
and its claim verdict where it records one, and exits 1 if any differs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per metric: both medians, their ratio, change wins, the parent's IQR and the verdict on its bound.

    A pair is a win when the change reads strictly better; ties count for
    neither side.  The IQR is numpy's linearly interpolated quartile
    distance.  A metric is "beyond bound" when the change's median is worse
    than the parent's by more than the bound, as a fraction of the parent's.
    """
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        p_med, c_med = median(parent), median(change)
        wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
        q1, q3 = np.percentile(parent, [25, 75])
        iqr = float(q3 - q1)
        gain = p_med - c_med if lower else c_med - p_med
        worse = (c_med - p_med if lower else p_med - c_med) / p_med
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "change_over_parent": c_med / p_med,
            "change_wins": f"{wins}/{len(pairs)}",
            "parent_iqr": iqr,
            "gain_beyond_parent_iqr": bool(gain > iqr),
            "bound": metric["bound"],
            "verdict": "beyond bound" if worse > metric["bound"] else "within bound",
        }
    return out


def parse_claim(claim: str) -> tuple[str, str]:
    """The workload and the metric of a claim that reads "<workload> <metric> improves"."""
    words = claim.split()
    if len(words) != 3 or words[2] != "improves":
        raise ValueError(f'a claim reads "<workload> <metric> improves", got {claim!r}')
    return words[0], words[1]


def judge(claim: str, workloads: dict) -> dict:
    """Whether the summaries meet ``claim``: at least 9 wins in 10 pairs and a median gain beyond the parent's IQR."""
    workload, metric = parse_claim(claim)
    summary = workloads[workload]["summary"][metric]
    wins, pairs = map(int, summary["change_wins"].split("/"))
    beyond_iqr = summary["gain_beyond_parent_iqr"]
    return {
        "workload": workload,
        "metric": metric,
        "change_wins": summary["change_wins"],
        "gain_beyond_parent_iqr": beyond_iqr,
        "met": 10 * wins >= 9 * pairs and beyond_iqr,
    }


def recorded_summaries(bench: dict):
    """(label, pairs, summary) for every summarised block of a BENCH file."""
    stack = [("", bench)]
    while stack:
        label, node = stack.pop()
        if isinstance(node, dict):
            if "pairs" in node and "summary" in node:
                yield label, node["pairs"], node["summary"]
            stack.extend((f"{label}/{k}", v) for k, v in node.items())


def check(path: Path, end_to_end: list[dict]) -> list[str]:
    """Labels of the summaries in ``path`` that its pairs do not reproduce exactly."""
    bench = json.loads(path.read_text())
    bad = []
    for label, pairs, summary in recorded_summaries(bench):
        listed = [m for m in end_to_end if m["name"] in summary]
        if json.dumps(summarise(pairs, listed)) != json.dumps(summary):
            bad.append(label)
    if "claim_verdict" in bench and judge(bench["claim"], bench["workloads"]) != bench["claim_verdict"]:
        bad.append("/claim_verdict")  # files written before verdicts were recorded have none
    return bad


def extract(rev: str, scratch: Path, side: str) -> tuple[str, Path]:
    """The full commit id of ``rev`` and a fresh ``git archive`` copy of its tree."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tree = scratch / f"{side}-{commit[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The details line and the result line of one perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def correct(result: dict) -> str:
    return f"{result['correct']} ({result['failed']}/{result['attempted']} failed)"


def bench(args: argparse.Namespace) -> dict:
    scratch = Path(args.scratch).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    sides = {side: extract(rev, scratch, side) for side, rev in (("parent", args.parent), ("change", args.change))}
    spec = json.loads((sides["parent"][1] / "BENCHMARK.json").read_text())
    if args.claim and parse_claim(args.claim)[1] not in {m["name"] for m in spec["end_to_end"]}:
        raise SystemExit(f"the claim names no end-to-end metric of the parent's BENCHMARK.json: {args.claim!r}")
    seconds = spec["run_seconds"]
    command = f"python3 perfbench/run.py --workload <W> --seed <S> --seconds {seconds:g} --trace 0"
    bytecode = ", ".join(f"{k}={os.environ[k]!r}" if k in os.environ else f"{k} unset"
                         for k in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"))
    out = {
        "claim": args.claim,
        "command": command,
        "method": (
            "each pair runs the parent and the change one after the other on the same seed, alternating which side "
            "runs first (even pair index: parent first); each side runs from a git archive copy of its commit under a "
            f"scratch directory; one run at a time; {args.pairs} pairs per workload; each workload also has one traced "
            f"run per side (--trace 1) on the next seed; the runs see {bytecode}, so with bytecode uncached setup_s "
            "and cli_wall_p50_s include compiling the sources; written by tools/bench_pairs.py"
        ),
        "parent": {"commit": sides["parent"][0]},
        "change": {"commit": sides["change"][0]},
        "workloads": {},
    }
    for item in args.workload:
        name, first_seed = item.split(":")
        seeds = [int(first_seed) + i for i in range(args.pairs)]
        pairs, provenance = [], {}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                details, result = run(sides[side][1], name, seed, seconds, 0)
                provenance.setdefault(side, details["provenance"])
                pair[side], pair[f"{side}_correct"] = values(result), correct(result)
                print(f"{name} seed {seed} {side}: {pair[side]} {pair[f'{side}_correct']}", file=sys.stderr)
            pairs.append({k: pair[k] for k in ("seed", "first", "parent", "parent_correct", "change", "change_correct")})
        trace_seed = int(first_seed) + args.pairs
        trace = {"command": command.replace("<W>", name).replace("<S>", str(trace_seed)).replace("--trace 0", "--trace 1")}
        for side in ("parent", "change"):
            trace[side] = values(run(sides[side][1], name, trace_seed, seconds, 1)[1])
        out["workloads"][name] = {
            "seeds": seeds,
            "pairs": pairs,
            "summary": summarise(pairs, spec["end_to_end"]),
            "provenance": {side: provenance[side] for side in ("parent", "change")},
            "trace": trace,
        }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")  # each finished workload survives a later failure
    if args.claim:
        out["claim_verdict"] = judge(args.claim, out["workloads"])
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="BENCH_FILE", help="recompute the summaries of a BENCH file and compare")
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--change", help="git revision of the change")
    parser.add_argument("--scratch", help="directory for the two extracted trees")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME:FIRST_SEED")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="the claimed gain, or omit for none")
    parser.add_argument("--out", help="BENCH file to write")
    args = parser.parse_args(argv)
    if not args.check and not (args.parent and args.change and args.scratch and args.workload and args.out):
        parser.error("give --check, or all of --parent, --change, --scratch, --workload and --out")
    if args.claim:
        try:
            workload, _ = parse_claim(args.claim)
        except ValueError as exc:
            parser.error(str(exc))
        if workload not in {item.split(":")[0] for item in args.workload}:
            parser.error(f"the claimed workload {workload!r} is not among the --workload runs")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.check:
        end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        bad = check(Path(args.check), end_to_end)
        for label in bad:
            print(f"summary differs from its pairs: {label}", file=sys.stderr)
        return 1 if bad else 0
    bench(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
