"""Rewrite closure_digests.json from the program's current JSON output.

    python3 perfbench/pin_closure.py

The closure workload checks the bytes ``run --all --format json`` would
print for each ``path(nK, Y)`` query against these digests.  Re-pin only
for a change that is meant to alter that output.
"""

import json
import sys
from types import SimpleNamespace

import workloads

sys.path.insert(0, str(workloads.HERE.parent / "src"))
from prologtheta import cli, engine, loader, parser, syntax, terms  # noqa: E402


def main() -> None:
    mods = SimpleNamespace(cli=cli, engine=engine, parser=parser, syntax=syntax)
    config = engine.SolveConfig(max_solutions=None)
    pinned = {}
    for size in workloads.SIZES.values():
        nodes = size["closure"]["nodes"]
        terms.reset_fresh_counters()
        program = loader.load(workloads.closure_program(nodes))
        pinned[str(nodes)] = [
            workloads.render_digest(workloads.answer(mods, program, config, f"path(n{k}, Y)"))
            for k in range(nodes)
        ]
    path = workloads.HERE / "closure_digests.json"
    path.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
