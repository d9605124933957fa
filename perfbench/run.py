"""Layered benchmark of thermosim: CLI processes, in-process ops, per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fringe --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, each as "name value unit", then one JSON line of
provenance and counts, then the result object as the last line.  The
program is never edited: thermosim is imported from ``src`` and its CLI is
run as ``python -m thermosim`` child processes, one at a time.  BLAS and
OpenMP get one thread, and the harness pins itself and so its children to
one core, so the benchmark runs one thread at a time.  Every timing of
the end-to-end metrics is scaled to the speed of a reference computation run
between the samples; see ``speed.py``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# before numpy is first imported, here or in a child
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import provenance  # noqa: E402
from speed import ImportReference, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

TRACE_SETUP_RUNS = 3
TAIL_BEYOND = 10
RUN_LIMIT_S = 160.0    # at the run_seconds of BENCHMARK.json; longer runs get 4 x --seconds
SHOWN_PROBLEMS = 10


class Tally:
    """Attempted and failed operations; CLI runs and in-process ops both count."""

    def __init__(self) -> None:
        self.attempted: set[str] = set()
        self.failed: set[str] = set()
        self.problems: list[str] = []

    def record(self, key: str, problems: list[str]) -> None:
        self.attempted.add(key)
        if problems:
            self.failed.add(key)
            self.problems += [f"{key}: {p}" for p in problems]


def run_child(argv: list[str], tmp: Path, deadline: float) -> tuple[float, int, int, str, str]:
    """Wall seconds, peak RSS in KiB, exit code, stdout and stderr of one child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        # a hung child is killed in time for the whole run to end by the deadline
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return wall, usage.ru_maxrss, proc.returncode, out.read(), err.read()


def setup_probe(wl, args, tmp: Path) -> dict:
    """One fresh interpreter that imports thermosim and builds the inputs."""
    argv = [str(HERE / "setup_probe.py"), wl.name, str(args.seed), args.size]
    wall, _, code, out, err = run_child(argv, tmp, args.deadline)
    if code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}:\n{err}")
    probe = json.loads(out.splitlines()[-1])
    if Path(probe["thermosim"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"set-up probe imported thermosim from {probe['thermosim']}, not {SRC}")
    return {**probe, "wall_s": wall}


def output_problems(code: int, stdout: str, stderr: str, check) -> list[str]:
    """Generic CLI failures first; the workload's own check only on a clean run."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        return check(stdout)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"]


def cli_run(wl, args, tmp: Path, j: int, tally: Tally) -> tuple[float, int]:
    """Wall seconds and peak RSS (KiB) of CLI invocation ``j`` as a child process."""
    wall, maxrss, code, out, err = run_child(["-m", "thermosim", *wl.cli_argv(j, tmp)], tmp, args.deadline)
    tally.record(f"cli {j}", output_problems(code, out, err, lambda s: wl.check_cli(j, tmp, s)))
    return wall, maxrss


def cli_in_process(wl, tmp: Path, j: int, tally: Tally) -> None:
    import thermosim.cli

    out, err = io.StringIO(), io.StringIO()
    argv = wl.cli_argv(j, tmp)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = thermosim.cli.main(argv)
        except Exception:  # a crash is a failed invocation, reported like a child's
            traceback.print_exc()
            code = -1
    tally.record(f"cli.main {j}", output_problems(code, out.getvalue(), err.getvalue(),
                                                  lambda s: wl.check_cli(j, tmp, s)))


def run_op(wl, k: int, tally: Tally) -> float:
    """Seconds spent in thermosim for op ``k``; checking happens after the clock stops."""
    start = time.perf_counter()
    try:
        out = wl.op(k)
    except Exception as exc:  # a failed op counts against error_ratio, the run goes on
        tally.record(f"op {k}", [f"raised {exc!r}"])
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    tally.record(f"op {k}", problems_of(lambda: wl.check_op(k, out)))
    return elapsed


def problems_of(check) -> list[str]:
    try:
        return check()
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"check could not read the output: {exc!r}"]


def timed_ops(wl, tally: Tally, first: int, count: int) -> list[float]:
    """One untimed warm-up op, then ``count`` timed ops."""
    run_op(wl, first, tally)
    return [run_op(wl, k, tally) for k in range(first + 1, first + 1 + count)]


def oracle_cross_check(wl, ops: int, tally: Tally) -> None:
    """Brute-force oracle, outside the timed region; a mismatch fails every op on that input."""
    for index, problems in wl.oracle_problems(ops).items():
        if problems:
            for k in range(ops):
                if wl.pool_index(k) == index:
                    tally.record(f"op {k}", [f"oracle: {p}" for p in problems])


def per_round(wl, args) -> dict[str, int]:
    """Set-up probes, CLI runs and timed ops per round, fixed per workload.

    The counts are never taken from how fast the program runs, so op_tail_s
    is the same percentile on every commit.  ``--seconds`` scales them
    against the run_seconds of BENCHMARK.json, for which they are sized.
    """
    counts = {kind: max(1, round(n * args.scale)) for kind, n in wl.PER_ROUND.items()}
    counts["op"] = max(counts["op"], -(-(TAIL_BEYOND + 1) // wl.ROUNDS))  # op_tail_s needs n > TAIL_BEYOND
    return counts


def end_to_end(wl, args, tmp: Path, tally: Tally) -> tuple[dict, dict]:
    """Rounds of set-up probes, CLI runs and ops, in the numbers ``per_round`` gives.

    On a shared host, speed drifts over seconds and minutes, so every kind of
    sample is taken in every round instead of in one phase of the run, and
    every timing is scaled by a reference run right before and after it (see
    ``speed.py``): set-ups by ``ImportReference``, CLI runs and ops by the
    workload's own.  Each op block starts with an untimed warm-up
    op, because the first op after a CLI child is slowed by that child, not
    by the program.
    """
    n = per_round(wl, args)
    speed = {kind: Speed(reference) for kind, reference in [("setup", ImportReference()), *wl.REFERENCE.items()]}
    probes, walls, rss, raw_ops, ops, setups, clis = [], [], [], [], [], [], []
    next_op = 0
    for _ in range(wl.ROUNDS):
        speed["setup"].start()
        for _ in range(n["setup"]):
            probes.append(setup_probe(wl, args, tmp))
            setups += speed["setup"].scale([probes[-1]["wall_s"]])
        speed["cli"].start()
        for _ in range(n["cli"]):
            wall, maxrss = cli_run(wl, args, tmp, len(walls), tally)
            walls.append(wall)
            clis += speed["cli"].scale([wall])
            rss.append(maxrss)
        run_op(wl, next_op, tally)  # warm-up
        speed["op"].start()
        end = next_op + 1 + n["op"]
        for first in range(next_op + 1, end, wl.OPS_PER_REFERENCE):
            batch = [run_op(wl, k, tally) for k in range(first, min(first + wl.OPS_PER_REFERENCE, end))]
            raw_ops += batch
            ops += speed["op"].scale(batch)
        next_op = end
    oracle_cross_check(wl, next_op, tally)
    metrics = {
        "setup_s": statistics.median(setups),
        "cli_wall_p50_s": statistics.median(clis),
        "peak_rss_mb": statistics.median(rss) * 1024 / 1e6,
        "op_p50_s": statistics.median(ops),
        "op_tail_s": sorted(ops)[-TAIL_BEYOND - 1],
        "items_per_s": wl.items_per_op * len(ops) / sum(ops),
    }
    counts = {
        "setup_runs": len(probes),
        "import_s_p50": statistics.median(p["import_s"] for p in probes),
        "cli_invocations": len(walls),
        "ops_timed": len(ops),
        "warmup_ops": next_op - len(ops),
        "per_round": n,
        "rounds": wl.ROUNDS,
        "op_tail_percentile": round(100.0 * (len(ops) - TAIL_BEYOND) / len(ops), 3),
        "references": {kind: repr(s.reference) for kind, s in speed.items()},
        "speed_factor_p50": {kind: statistics.median(s.factors) for kind, s in speed.items()},
        "unscaled_p50_s": {"setup": statistics.median(p["wall_s"] for p in probes),
                           "cli": statistics.median(walls), "op": statistics.median(raw_ops)},
    }
    return metrics, counts


def per_layer(wl, args, tmp: Path, tally: Tally) -> tuple[dict, dict]:
    """Fixed work, so call counts and computed bytes repeat exactly from run to run."""
    probes = [setup_probe(wl, args, tmp) for _ in range(TRACE_SETUP_RUNS)]
    untraced = timed_ops(wl, tally, 0, wl.trace_ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_ops(wl, tally, len(untraced) + 1, wl.trace_ops)
        cli_in_process(wl, tmp, 0, tally)
    finally:
        tracer.uninstall()
    oracle_cross_check(wl, len(untraced) + len(traced) + 2, tally)
    tracer.write(ROOT / ".perfbench-out" / f"spans-{wl.name}-seed{args.seed}.json")
    metrics = tracer.summary()
    # the warm-up op of the traced phase is traced too
    items = wl.items_per_op * (len(traced) + 1) + wl.cli_items
    metrics["thermal.gibbs_weights.calls_per_item"] = metrics["thermal.gibbs_weights.calls"] / items
    metrics["import.s"] = statistics.median(p["import_s"] for p in probes)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["error_ratio"] = len(tally.failed) / len(tally.attempted)
    counts = {"setup_runs": len(probes), "ops_untraced": len(untraced), "ops_traced": len(traced) + 1,
              "cli_main_calls": 1, "items_traced": items, "spans": len(tracer.spans)}
    return metrics, counts


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fringe", "large_d", "bell"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.scale = args.seconds / spec["run_seconds"]
    args.deadline = STARTED + max(RUN_LIMIT_S, 4.0 * args.seconds)
    # the reference and the samples it scales run on one core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    try:
        import thermosim
    except ImportError as exc:
        print(f"error: cannot import thermosim from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(thermosim.__file__).resolve().parent.parent != SRC:
        print(f"error: thermosim imported from {thermosim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size)
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        measure = per_layer if args.trace else end_to_end
        values, counts = measure(wl, args, Path(tmp), tally)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:<14.6g} {m['unit']}")
    for problem in tally.problems[:SHOWN_PROBLEMS]:
        print(f"problem: {problem}", file=sys.stderr)
    details = {
        "workload": wl.name, "item": wl.item, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "trace": args.trace, "wall_s": time.perf_counter() - STARTED, "counts": counts, "array_bytes_computed": wl.array_bytes,
        "provenance": provenance.collect(ROOT),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": len(tally.attempted),
        "failed": len(tally.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
