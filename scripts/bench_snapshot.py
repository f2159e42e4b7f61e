"""Run the benchmark on one or more checkouts and write the metrics of each run to a JSON file.

    python3 scripts/bench_snapshot.py --out BENCH_23.json [--tree DIR ...]
        [--workload W ...] [--seed S ...] [--trace 0|1 ...] [--seconds T] [--rounds N]

For each round, workload, seed and trace mode (default: 0), every tree
(default: this checkout) runs
`python3 bench/run.py --workload W --seed S --seconds T --trace M` in turn,
in the opposite tree order on odd rounds, so that a drift in the machine's
speed falls on both sides of a comparison.  Every `__pycache__` under the
tree's `src/` is deleted before each run: the benchmark measures start-up
without a bytecode cache, and a cache left by an earlier import would make
one side faster.  Each run appends one row, and the file is rewritten after
every row, so an interrupted snapshot keeps the rows it has.  A row holds the
workload, seed, seconds, trace mode, round, the tree's `git rev-parse HEAD`,
`correct`, `failed`, `attempted` and every metric of the run's last line: the
four end-to-end metrics at `--trace 0`, the per-layer rows at `--trace 1`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def head(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "head": head(tree),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", type=Path, help="a checkout to run (repeatable)")
    parser.add_argument("--workload", action="append", choices=("produce", "verify", "analyze"))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--trace", action="append", type=int, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [ROOT]]
    rows: list[dict] = []
    for r in range(args.rounds):
        for workload in args.workload or ["produce", "verify", "analyze"]:
            for seed, trace in itertools.product(args.seed or [1], args.trace or [0]):
                for tree in trees if r % 2 == 0 else trees[::-1]:
                    row = run_once(tree, workload, seed, args.seconds, trace)
                    rows.append({"round": r, **row})
                    args.out.write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")
                    print(json.dumps(rows[-1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
