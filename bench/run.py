"""Time one sturmlex workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload produce|verify|analyze --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ../src relative to this file,
and every `sturmlex` command runs as `python -m sturmlex.cli` with PYTHONPATH
pointing there.  Everything runs in this one process, sequentially, with at
most one child process at a time and no threads.

--trace 0 measures the workload end to end, untraced:
  setup_s      time of a fresh interpreter that imports sturmlex.cli and
               builds its parser, sampled across the run
  cli_s        time of one pass over the workload's commands, each in a
               fresh process: the sum over commands of each one's median
  api_s        time of one pass over the workload's library tasks: the sum
               over tasks of each one's median
  peak_rss_mb  peak resident set of this process after the timed passes
Library and command passes alternate; library passes get API_SHARE of
--seconds and command passes the rest.

The three times are wall times scaled to a reference speed.  The speed of a
shared machine drifts by up to a third within a minute, in CPU time as much
as in wall time, so raw wall times of identical runs spread further than a
regression worth catching.  Each measurement is therefore divided by a
reference timed right beside it, and multiplied by that reference's nominal
time: an interpreter start (`python -c pass`, BARE_S) before each command and
after each setup sample, and a fixed pure-Python loop (LOOP_S) after each
library task.  The values read as seconds on a machine as fast as the one
these constants were taken on; the summary line gives the raw wall times.

--trace 1 times every per-layer row: each round runs the tasks of all three
workloads and the surd-floor probes with spans around each call into a
sturmlex module, an untraced pass of the chosen workload (for
trace.overhead_ratio), and the chosen workload's commands through
`main(argv)` in process (cli.main_s).  Spans are written to
.bench_out/trace-<workload>-<seed>.json.

Every output is checked after the timed passes against an expectation fixed
by a theorem or an independent construction (see workloads.py and
expect.py), and every command's exit code and stdout must equal those of the
same `main(argv)` called in process.  `failed` counts every wrong output and
`correct` is false if there is one.

The documented soundness defects are not timed and not in `attempted`: their
probes (library call and command, fixed inputs) run once per run after the
timed passes, and the summary line, and with --trace 1 the row
extremal.known_defects, give how many still show their documented symptom.
A probe that gives the true answer shows that its defect is fixed; one that
gives any other output is a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# Nominal reference times: round figures near the medians of bare_start()
# and reference_loop() on the machine described in baseline.json.
BARE_S = 0.055
LOOP_S = 0.005
# share of --seconds given to library passes; command passes get the rest
API_SHARE = 0.4
CHILD_TIMEOUT_S = 120
IMPORT_CODE = "import sturmlex.cli as c; c.build_parser()"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = child_env()


def spawn(args: list[str]) -> tuple[int | None, str, str]:
    """Run `python <args>` to completion; a timeout kills it and reads as exit None."""
    try:
        p = subprocess.run([sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timeout"
    return p.returncode, p.stdout, p.stderr


def timed_spawn(args: list[str]) -> float:
    t0 = time.perf_counter()
    rc, _, err = spawn(args)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"error: python {' '.join(args)} exited {rc}: {err.strip()[-500:]}")
    return dt


def bare_start() -> float:
    return timed_spawn(["-c", "pass"])


REFERENCE_DATA = bytes(range(256)) * 40


def reference_loop() -> float:
    """The time of a fixed pure-Python loop: bytes indexing, integer
    arithmetic and dict stores, as in the library's own code."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(25000):
        acc += REFERENCE_DATA[i % 10240] * i % 7
        seen[i & 255] = acc
    return time.perf_counter() - t0


def start_sample(imported: list[float], bare: list[float]) -> None:
    """One fresh-interpreter start with import + parser, then a bare `pass` as its reference."""
    imported.append(timed_spawn(["-c", IMPORT_CODE]))
    bare.append(bare_start())


def start_samples(bare: list[float]) -> list[float]:
    """SETUP_SAMPLES start samples; one unrecorded import first writes the bytecode cache.

    The timed loops add one more sample after each pass, so the samples span the run."""
    timed_spawn(["-c", IMPORT_CODE])
    imported: list[float] = []
    for _ in range(SETUP_SAMPLES):
        start_sample(imported, bare)
    return imported


def digest(x):
    """A comparable form of a task result; sets are sorted."""
    if isinstance(x, bytes):
        return x
    if isinstance(x, (set, frozenset)):
        return repr(sorted(repr(e) for e in x))
    return repr(x)


class Ledger:
    """Counts outcomes per operation; each distinct outcome is judged once, after timing."""

    def __init__(self):
        self.ops: dict[int, tuple[object, dict]] = {}

    def add(self, op, raw, key) -> None:
        seen = self.ops.setdefault(id(op), (op, {}))[1]
        if key in seen:
            seen[key][1] += 1
        else:
            seen[key] = [raw, 1]

    def judge(self, wl) -> dict:
        attempted = failed = 0
        problems: list[str] = []
        errors: dict[str, int] = {}
        for op, seen in self.ops.values():
            for raw, count in seen.values():
                reason = judge(wl, op, raw)
                attempted += count
                if reason is not None:
                    failed += count
                    errors[op.module] = errors.get(op.module, 0) + count
                    problems.append(f"{describe(op)}: {reason}")
        return {"attempted": attempted, "failed": failed, "problems": problems, "errors": errors}


def describe(op) -> str:
    return op.name if hasattr(op, "name") else "sturmlex " + " ".join(op.argv)[:120]


def judge(wl, op, raw) -> str | None:
    """The reason the output is wrong, or None."""
    if isinstance(op, wl.Task) and isinstance(raw, wl.Raised):
        return f"raised {type(raw.exc).__name__}: {str(raw.exc)[:200]}"
    try:
        return op.check(*check_args(wl, op, raw))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"unexpected output shape ({type(exc).__name__}: {exc})"


def check_args(wl, op, raw) -> tuple:
    return (raw,) if isinstance(op, wl.Task) else raw


def run_probes(wl, probes) -> dict:
    """Run each defect probe once: count those that still show their documented
    symptom; any other wrong output is a failed operation."""
    verdict = {"attempted": 0, "failed": 0, "problems": [], "errors": {}, "known": 0}
    for op in probes:
        if isinstance(op, wl.Task):
            _, raw = run_task(wl, op, tracing.NullTracer(), f"probe:{op.name}")
        else:
            raw = spawn(["-m", "sturmlex.cli", *op.argv])
        reason = judge(wl, op, raw)
        if reason is None:
            continue
        if op.defect(*check_args(wl, op, raw)):
            verdict["known"] += 1
        else:
            verdict["attempted"] += 1
            verdict["failed"] += 1
            verdict["errors"][op.module] = verdict["errors"].get(op.module, 0) + 1
            verdict["problems"].append(f"{describe(op)}: {reason}")
    return verdict


def merge(verdict: dict, other: dict) -> None:
    for key in ("attempted", "failed", "problems"):
        verdict[key] += other[key]
    verdict["known"] = verdict.get("known", 0) + other.get("known", 0)
    for module, count in other["errors"].items():
        verdict["errors"][module] = verdict["errors"].get(module, 0) + count


def run_task(wl, task, tr, task_id: str) -> tuple[float, object]:
    tr.task = task_id
    t0 = time.perf_counter()
    try:
        with tr.span(f"task.{task.name}"):
            out = task.run(tr)
    except Exception as exc:  # a crash is a failed operation, judged with the rest
        out = wl.Raised(exc.with_traceback(None))
    return time.perf_counter() - t0, out


def api_pass(wl, tasks, tr, ledger: Ledger, tag: str, refs: list[float] | None = None) -> list[float]:
    """Run each task once; returns the wall time of each.  Given `refs`, the
    reference loop runs after each task and its time is appended there."""
    times = []
    for task in tasks:
        dt, out = run_task(wl, task, tr, f"{tag}:{task.name}")
        if refs is not None:
            refs.append(reference_loop())
        times.append(dt)
        ledger.add(task, out, digest(out))
    return times


def cli_pass(commands, ledger: Ledger, first: list) -> tuple[list[float], list[float]]:
    """Run each command in a fresh process, each after a bare interpreter start;
    returns the wall time of each command and of each bare start."""
    times, bare = [], []
    for cmd in commands:
        bare.append(bare_start())
        t0 = time.perf_counter()
        rc, out, err = spawn(["-m", "sturmlex.cli", *cmd.argv])
        times.append(time.perf_counter() - t0)
        ledger.add(cmd, (rc, out, err), (rc, out))
        if len(first) < len(commands):
            first.append((rc, out))
    return times, bare


def call_main(argv: list[str]) -> tuple[int, str, str]:
    """`main(argv)` in process, as the interpreter would exit for it."""
    from sturmlex import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else int(e.code is not None)
        except Exception:  # an uncaught exception exits 1 with its traceback on stderr
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def per_op_median_sum(passes: list[list[float]]) -> float:
    """The time of one pass, as the sum over its operations of each one's median time."""
    return sum(statistics.median(list(ts)) for ts in zip(*passes))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------


def end_to_end(wl, workload, seconds: float) -> tuple[dict, dict, str]:
    bare: list[float] = []
    imported = start_samples(bare)
    ledger = Ledger()
    # per pass: the raw time of each operation, the reference timed beside
    # each, and the pass's wall time
    passes: dict[str, list[list[float]]] = {"api": [], "cli": []}
    refs: dict[str, list[list[float]]] = {"api": [], "cli": []}
    spent: dict[str, list[float]] = {"api": [], "cli": []}
    first_cli: list = []
    deadline = time.perf_counter() + seconds
    while True:
        api_used, cli_used = sum(spent["api"]), sum(spent["cli"])
        kind = "api" if api_used * (1 - API_SHARE) <= cli_used * API_SHARE else "cli"
        if all(spent.values()) and time.perf_counter() + spent[kind][-1] > deadline:
            break
        t0 = time.perf_counter()
        if kind == "api":
            ref: list[float] = []
            times = api_pass(wl, workload.tasks, tracing.NullTracer(), ledger, f"api{len(passes['api'])}", ref)
        else:
            times, ref = cli_pass(workload.commands, ledger, first_cli)
        passes[kind].append(times)
        refs[kind].append(ref)
        start_sample(imported, bare)
        spent[kind].append(time.perf_counter() - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = ledger.judge(wl)
    merge(verdict, run_probes(wl, workload.probes))
    for cmd, cli_out in zip(workload.commands, first_cli):
        rc, out, _ = call_main(cmd.argv)
        verdict["attempted"] += 1
        if (rc, out) != cli_out:
            verdict["failed"] += 1
            verdict["errors"]["cli"] = verdict["errors"].get("cli", 0) + 1
            verdict["problems"].append(f"{describe(cmd)}: main(argv) in process gives exit {rc} "
                                       f"and different stdout from the fresh process")
    def scaled(kind: str, nominal: float) -> float:
        return per_op_median_sum([[t * nominal / r for t, r in zip(times, ref)]
                                  for times, ref in zip(passes[kind], refs[kind])])

    def median_ref(kind: str) -> float:
        return statistics.median(r for ref in refs[kind] for r in ref)

    metrics = {
        "setup_s": metric(statistics.median(i * BARE_S / b for i, b in zip(imported, bare)), "s"),
        "cli_s": metric(scaled("cli", BARE_S), "s"),
        "api_s": metric(scaled("api", LOOP_S), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    note = (f"{len(passes['api'])} library passes, {len(passes['cli'])} command passes; raw wall times: "
            f"setup {statistics.median(imported):.4f} s, commands {per_op_median_sum(passes['cli']):.4f} s, "
            f"library {per_op_median_sum(passes['api']):.4f} s; references: bare start "
            f"{statistics.median(bare):.4f} s, loop {median_ref('api'):.5f} s")
    return metrics, verdict, note


def traced(wl, workload, seed: int, seconds: float) -> tuple[dict, dict, str]:
    bare: list[float] = []
    imported = start_samples(bare)
    suite = [(w.name, w.tasks) for w in (f(seed) for f in wl.WORKLOADS.values())]
    suite.append(("surds", wl.surd_probes(seed)))
    own = dict(suite)[workload.name]
    suite_ledger, main_ledger, untraced_ledger = Ledger(), Ledger(), Ledger()
    rounds: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not (rounds and time.perf_counter() + rounds[-1]["wall"] > deadline):
        i, t0 = len(rounds), time.perf_counter()
        r = {"tr": tracing.Tracer()}
        if i % 2:
            r["untraced"] = api_pass(wl, own, tracing.NullTracer(), untraced_ledger, f"untraced{i}")
        for name, tasks in suite:
            times = api_pass(wl, tasks, r["tr"], suite_ledger, f"round{i}:{name}")
            if name == workload.name:
                r["traced"] = times
        if "untraced" not in r:
            r["untraced"] = api_pass(wl, own, tracing.NullTracer(), untraced_ledger, f"untraced{i}")
        r["main"] = []
        for cmd in workload.commands:
            t1 = time.perf_counter()
            out = call_main(cmd.argv)
            r["main"].append(time.perf_counter() - t1)
            main_ledger.add(cmd, out, out[:2])
        r["wall"] = time.perf_counter() - t0
        rounds.append(r)
        start_sample(imported, bare)

    n = len(rounds)
    med = lambda f: statistics.median([f(r) for r in rounds])
    totals = [r["tr"].totals() for r in rounds]
    selfs = [r["tr"].self_time_by_module() for r in rounds]
    metrics = {}
    for row in wl.span_rows():
        metrics[f"{row}_s"] = metric(statistics.median([t.get(row, 0.0) for t in totals]), "s")
    for row, (a, na), (b, nb) in wl.GROWTH:
        t1, t2 = metrics[f"{row}.{a}_s"]["value"], metrics[f"{row}.{b}_s"]["value"]
        metrics[f"{row}.growth"] = metric(math.log(t2 / t1) / math.log(nb / na), "ratio")
    for module in wl.MODULES:
        metrics[f"{module}.self_s"] = metric(statistics.median([s.get(module, 0.0) for s in selfs]), "s")
    for name in ("generators.letters", "extremal.orders", "extremal.undecided"):
        metrics[name] = metric(med(lambda r: r["tr"].counts.get(name, 0)), "count")
    suite_verdict = suite_ledger.judge(wl)
    main_verdict = main_ledger.judge(wl)
    for module in wl.MODULES:
        metrics[f"{module}.errors"] = metric(suite_verdict["errors"].get(module, 0) / n, "count")
    metrics["cli.errors"] = metric(main_verdict["failed"] / n, "count")
    metrics["cli.import_s"] = metric(statistics.median(imported) - statistics.median(bare), "s")
    metrics["cli.main_s"] = metric(per_op_median_sum([r["main"] for r in rounds]), "s")
    metrics["trace.overhead_ratio"] = metric(per_op_median_sum([r["traced"] for r in rounds])
                                             / per_op_median_sum([r["untraced"] for r in rounds]), "ratio")

    probe_verdict = run_probes(wl, wl.verify(seed).probes)
    metrics["extremal.known_defects"] = metric(probe_verdict["known"], "count")
    verdict = suite_verdict
    for other in (main_verdict, untraced_ledger.judge(wl), probe_verdict):
        merge(verdict, other)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump([r["tr"].dump() for r in rounds], fh)
    return metrics, verdict, f"{n} traced rounds"


def declared_metrics(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("produce", "verify", "analyze"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sturmlex" / "cli.py").is_file():
        print(f"error: no sturmlex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, verdict, note = traced(wl, workload, args.seed, args.seconds)
    else:
        metrics, verdict, note = end_to_end(wl, workload, args.seconds)

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        missing = sorted(set(declared) ^ set(metrics))
        print(f"error: metrics differ from BENCHMARK.json: {missing}", file=sys.stderr)
        return 3
    for problem in verdict["problems"]:
        print(f"WRONG {problem}", file=sys.stderr)
    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"{args.workload} seed={args.seed}: {note}; failed {failed}/{attempted} operations "
          f"(error_rate {failed / attempted:.4f}); failures by module {verdict['errors']}; "
          f"{verdict.get('known', 0)} documented defect probes still show their defect")
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
