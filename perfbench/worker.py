"""One benchmark process: set up, then measure or trace one workload.

``run.py`` starts this script in a fresh interpreter for every sample and
reads the JSON object on its last line of output.  Roles:

- ``warmup``: import everything once, so later imports read cached bytecode;
- ``measure``: time the set-up (importing ``prologtheta.cli`` plus loading
  the program), then run queries of its round, or of its share of the round,
  over and over until ``--seconds`` have passed, at least one pass;
  every time is also scaled to the reference speed (``reference.py``);
- ``trace``: set up, run a fixed number of rounds, then install the
  recorders from ``spans.py`` and run the same rounds again.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import reference
import workloads


def set_up(program_path: str | None):
    """Import the program and load the workload's module, timed."""
    start = perf_counter()
    import prologtheta.cli
    from prologtheta import engine, fuzz, loader, parser, syntax, terms
    imported = perf_counter()
    mods = SimpleNamespace(cli=prologtheta.cli, engine=engine, fuzz=fuzz, loader=loader,
                           parser=parser, syntax=syntax, terms=terms)
    program = load(mods, program_path)
    return mods, program, imported - start, perf_counter() - start


def load(mods, program_path: str | None):
    if program_path is None:
        return None
    mods.terms.reset_fresh_counters()  # ?kN numbering repeats across runs
    return mods.loader.load_path(program_path)


class Tally:
    """Latencies, solutions and failures of the queries of a round, or of
    its share ``part`` of ``parts`` (every ``parts``-th query from ``part``
    on).  With ``slices``, a reference slice runs between queries when one
    is due."""

    def __init__(self, runner: workloads.Runner, slices: reference.Slices = None,
                 part: int = 0, parts: int = 1) -> None:
        self.runner = runner
        self.slices = slices
        self.share = range(part, len(runner.round), parts)
        self.latencies: list[list[float]] = [[] for _ in runner.round]
        self.solutions = [0] * len(runner.round)
        self.failed = 0

    def run_round(self) -> None:
        for i in self.share:
            self.run_query(i)

    def run_query(self, i: int) -> None:
        self.latencies[i].append(self.run(i))
        if self.slices is not None:
            self.slices.tick()

    def run(self, i: int) -> float:
        query = self.runner.round[i]
        start = perf_counter()
        try:
            result = self.runner.run(query)
            latency = perf_counter() - start
            solutions, ok = self.runner.check(query, result)
        except Exception:  # a raise is a failed query; keep measuring
            latency = perf_counter() - start
            traceback.print_exc()
            solutions, ok = 0, False
        if not ok:
            print(f"wrong output for {getattr(query, 'text', f'fuzz case {query}')}",
                  file=sys.stderr)
        self.solutions[i] = solutions
        self.failed += not ok
        return latency

    def busy(self) -> float:
        return sum(map(sum, self.latencies))


def measure(args, mods, program, slices: reference.Slices) -> dict:
    runner = workloads.Runner(args.workload, args.seed, args.size, mods, program)
    tally = Tally(runner, slices, args.part, args.parts)
    share = tally.share
    deadline = perf_counter() + args.seconds
    done = 0
    while done < len(share) or perf_counter() < deadline:  # at least one pass
        tally.run_query(share[done % len(share)])
        done += 1
    slices.run()
    factor = slices.factor()
    return {
        "latencies": tally.latencies,
        "scaled": [[t * factor for t in times] for times in tally.latencies],
        "slices": slices.times,
        "factor": factor,
        "queries": done,
        "solutions": tally.solutions,
        "failed": tally.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def host_speed() -> float:
    """Median time of three reference slices: the host's speed just now."""
    slices = reference.Slices()
    slices.run()
    slices.run()
    return statistics.median(slices.times)


def trace(args, mods, program, import_s: float) -> dict:
    """Per-layer metrics over a fixed amount of work, so counts repeat."""
    import spans

    rounds = workloads.SIZES[args.size][args.workload]["trace_rounds"]
    speed = [host_speed()]
    untraced = Tally(workloads.Runner(args.workload, args.seed, args.size, mods, program))
    for _ in range(rounds):
        untraced.run_round()
    speed.append(host_speed())

    tracer = spans.Tracer()
    tracer.record("cli.import", 0.0, import_s)
    tracer.install()
    program = load(mods, args.program)
    traced = Tally(workloads.Runner(args.workload, args.seed, args.size, mods, program))
    for r in range(rounds):
        tracer.request = r + 1
        traced.run_round()

    metrics = tracer.metrics()
    speed.append(host_speed())  # after the metrics: its gc is not counted
    # the rounds only (the untraced load was the process's first, so it is
    # slower), each over the slice times around it, as the host's load may
    # change between the two
    ratio = (traced.busy() / (speed[1] + speed[2])) / (untraced.busy() / (speed[0] + speed[1]))
    metrics[spans.OVERHEAD[0]] = {"value": ratio, "unit": spans.OVERHEAD[1]}
    header = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "rounds": rounds, "python": platform.python_version(),
              "machine": platform.machine(), "commit": args.commit}
    tracer.dump(Path(args.work) / f"spans-{args.workload}.jsonl", header)
    attempted = 2 * rounds * len(traced.runner.round)
    return {"attempted": attempted, "failed": untraced.failed + traced.failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("warmup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--program")
    ap.add_argument("--work")
    ap.add_argument("--commit", default="unknown")
    args = ap.parse_args()
    if args.role == "warmup":
        import prologtheta.cli  # noqa: F401
        import spans  # noqa: F401
        reference.reference_work()
        return 0

    if args.role == "measure":
        slices = reference.Slices()
        mods, program, import_s, setup_s = set_up(args.program)
        slices.run()
        out = measure(args, mods, program, slices)
        out.update(setup_s=setup_s, setup_scaled_s=setup_s * out["factor"])
    else:
        mods, program, import_s, _ = set_up(args.program)
        out = trace(args, mods, program, import_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
