"""Benchmark of the prologtheta interpreter; see README.md in this directory.

    python3 perfbench/run.py --workload nrev --seed 1 --seconds 16 --trace 0

Run from the repository root.  Every sample runs in a fresh interpreter
(``worker.py``), one process at a time, with a fixed PYTHONHASHSEED.  The
last line of output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ones.  Exits non-zero, printing
no result, when the program cannot be set up or a sample process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# A run is spread over this many measuring processes, one after another,
# each with its own set-up, so that setup_s is a median and no one process's
# speed decides a run.
PROCESSES = 10
DEADLINE_S = 170  # every process of a run ends within this


class BenchError(Exception):
    pass


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Processes:
    """Starts worker processes one after another under one deadline."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.deadline = monotonic() + DEADLINE_S

    def run(self, *args: str) -> dict:
        left = self.deadline - monotonic()
        if left <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise BenchError(f"worker {args[:2]} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args[:2]} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def end_to_end(runs: list[dict]) -> dict:
    """Times are scaled to the reference speed (``reference.py``).  A query's
    cost is the median of its scaled times in all processes.
    Throughput is the round's queries (or solutions) over the sum of those
    costs; the latency percentiles are taken over the round's queries."""
    costs = query_costs(runs, "scaled")
    round_s = sum(costs)
    per_round = sum(max(sols) for sols in zip(*(run["solutions"] for run in runs)))
    p90 = statistics.quantiles(costs, n=10)[8] if len(costs) > 1 else costs[0]
    return {
        "setup_s": (statistics.median(run["setup_scaled_s"] for run in runs), "s"),
        "queries_per_s": (len(costs) / round_s, "1/s"),
        "solutions_per_s": (per_round / round_s, "1/s"),
        "query_p50_ms": (statistics.median(costs) * 1000, "ms"),
        "query_p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (max(run["peak_rss_mb"] for run in runs), "MB"),
    }


def query_costs(runs: list[dict], key: str) -> list[float]:
    return [statistics.median(t for run in runs for t in run[key][i])
            for i in range(len(runs[0][key]))]


def report(args, metrics: dict, attempted: int, failed: int, notes: list[str]) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()})  "
          f"machine {platform.machine()} {platform.system()} {platform.release()}  "
          f"nproc {os.cpu_count()}  commit {commit()}")
    for name, m in metrics.items():
        print(f"{name:24} {m['value']:<14.6g} {m['unit']}")
    for note in notes:
        print(note)
    print(f"{'failed_ratio':24} {failed / attempted:<14.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                    help="tiny is for the smoke test")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "prologtheta" / "__init__.py").is_file():
        print(f"error: no prologtheta sources under {src}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up must leave bytecode
    program = None
    text = workloads.program_text(args.workload, args.seed, args.size)
    if text is not None:
        program = WORK / f"{args.workload}-{args.seed}-{os.getpid()}.plt"
        program.write_text(text)

    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--work", str(WORK), "--commit", commit()]
    if program is not None:
        common += ["--program", str(program)]
    procs = Processes(env)
    try:
        procs.run("--role", "warmup")
        if args.trace:
            run = procs.run("--role", "trace", *common)
            report(args, run["metrics"], run["attempted"], run["failed"], [])
            return 0
        each = str(args.seconds / PROCESSES)
        parts = PROCESSES if args.workload in workloads.SHARED_ROUNDS else 1
        runs = [procs.run("--role", "measure", "--seconds", each, "--part", str(k % parts),
                          "--parts", str(parts), *common)
                for k in range(PROCESSES)]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if program is not None:
            program.unlink()
    values = end_to_end(runs)
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
    queries = len(runs[0]["latencies"])
    slice_s = statistics.median(t for run in runs for t in run["slices"])
    wall = query_costs(runs, "latencies")
    notes = [f"# {PROCESSES} processes, {sum(r['queries'] for r in runs)} queries timed, "
             f"{'a share' if parts > 1 else 'all'} of a round of {queries} in each process; "
             f"percentiles over {queries} queries; setup_s over {PROCESSES} set-ups",
             f"# times scaled to the reference speed: a slice took {slice_s * 1000:.4g} ms "
             f"here, {reference.SLICE_S * 1000:.4g} ms at the reference speed",
             f"{'wall_queries_per_s':24} {len(wall) / sum(wall):<14.6g} "
             "1/s (not scaled; moves with the host's load)",
             f"{'wall_setup_s':24} {statistics.median(r['setup_s'] for r in runs):<14.6g} "
             "s (not scaled)"]
    if args.workload == "nrev":
        li = workloads.nrev_inferences(workloads.SIZES[args.size]["nrev"]["length"])
        notes.append(f"{'lips':24} {li * values['queries_per_s'][0]:<14.6g} "
                     f"LI/s ({li} LI per query)")
    if args.workload == "fuzz":
        notes.append(f"{'cases_per_s':24} {values['queries_per_s'][0]:<14.6g} "
                     "1/s (one case is one query)")
    attempted = sum(len(s) for run in runs for s in run["latencies"])
    report(args, metrics, attempted, sum(run["failed"] for run in runs), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
