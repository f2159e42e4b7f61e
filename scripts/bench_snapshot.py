"""Run the benchmark on one or more checkouts and write its end-to-end rows to a JSON file.

    python3 scripts/bench_snapshot.py --out BENCH_22.json [--tree DIR ...]
        [--workload W ...] [--seed S ...] [--seconds T] [--rounds N]

For each round, workload and seed, every tree (default: this checkout) runs
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` in turn,
in the opposite tree order on odd rounds, so that a drift in the machine's
speed falls on both sides of a comparison.  Every `__pycache__` under the
tree's `src/` is deleted before each run: the benchmark measures start-up
without a bytecode cache, and a cache left by an earlier import would make
one side faster.  Each run appends one row, and the file is rewritten after
every row, so an interrupted snapshot keeps the rows it has.  A row holds the
workload, seed, seconds, round, the tree's `git rev-parse HEAD`, `correct`,
`failed`, `attempted` and the four end-to-end metrics of the run's last line.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "cli_s", "api_s", "peak_rss_mb")


def head(tree: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    for cache in (tree / "src").rglob("__pycache__"):
        shutil.rmtree(cache)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "head": head(tree),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: result["metrics"][name]["value"] for name in METRICS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", type=Path, help="a checkout to run (repeatable)")
    parser.add_argument("--workload", action="append", choices=("produce", "verify", "analyze"))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.tree or [ROOT]]
    rows: list[dict] = []
    for r in range(args.rounds):
        for workload in args.workload or ["produce", "verify", "analyze"]:
            for seed in args.seed or [1]:
                for tree in trees if r % 2 == 0 else trees[::-1]:
                    row = run_once(tree, workload, seed, args.seconds)
                    rows.append({"round": r, **row})
                    args.out.write_text(json.dumps({"rows": rows}, indent=1) + "\n", encoding="utf-8")
                    print(json.dumps(rows[-1]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
