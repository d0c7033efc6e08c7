"""Benchmark of the ``indivisible`` command line, one workload per run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 35 --trace 0

Drives ``indivisible.cli.main`` in-process with ``--format machine`` in a
closed loop: one caller runs the workload's commands back to back, in
whole rounds, until ``--seconds`` have passed.  The oracle child of the
``oracle`` workload is the only other process.  Every output is checked
(see ``workloads.py``); later rounds must repeat the first round's output
byte for byte.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans, see ``spans.py``) with
``--trace 1``.  Lines before it give each command's mean and median time.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 9  # set-ups per run; setup_s is their median


def import_indivisible():
    """Import the package from this checkout's ``src``, from scratch."""
    for name in [k for k in sys.modules if k == "indivisible" or k.startswith("indivisible.")]:
        del sys.modules[name]
    cli = importlib.import_module("indivisible.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"indivisible was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workload: str, seed: int, outdir: Path):
    """Generate the inputs, write them, import the package; returns its time."""
    t0 = time.perf_counter()
    inputs = workloads.generate(workload, seed)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in inputs.files.items():
        path = outdir / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    cli = import_indivisible()
    return time.perf_counter() - t0, inputs, paths, cli


def oracle_cmd(game_path: str) -> str:
    return shlex.join([sys.executable, "-u", str(HERE / "oracle_child.py"), game_path])


class Tally:
    """Times, failures and the first output of one command across rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: dict[str, int] = {}
        self.first_output: str | None = None

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


def judge(cmd: workloads.Command, tally: Tally, text: str, problems: list[str]) -> bool:
    """Check one successful output; returns False if it is wrong."""
    if tally.first_output is not None:
        if text == tally.first_output:
            return True
        problems.append(f"{cmd.name}: output differs from the first round's")
        return False
    try:
        doc = json.loads(text)
        found = cmd.check(doc)
        if not found and not cmd.check(cmd.mutate(doc)):
            found = ["the check accepted a deliberately wrong result"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        found = [f"unreadable output: {exc!r}"]
    if found:
        problems.extend(f"{cmd.name}: {p}" for p in found[:5])
        return False
    tally.first_output = text
    return True


def run(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    outdir = OUT / workload
    setup_times = []
    for _ in range(SETUPS):
        dt, inputs, paths, cli = set_up(workload, seed, outdir)
        setup_times.append(dt)
    cmds = workloads.commands(workload, inputs, paths, oracle_cmd)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)

    tallies = {c.name: Tally() for c in cmds}
    problems: list[str] = []
    attempted = failed = 0
    round_times: list[float] = []
    gc.collect()
    gc.freeze()  # keep the benchmark's own data out of the program's collections
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < seconds:
        round_time = 0.0
        for cmd in cmds:
            tally = tallies[cmd.name]
            if tracer is not None:
                tracer.begin_op(len(round_times), cmd.name)
            out, err = io.StringIO(), io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            try:
                code = cli.main(["--format", "machine", *cmd.argv], out=out, err=err)
            except Exception as exc:  # anything escaping cli.main is a failed operation
                code = type(exc).__name__
            dt = time.perf_counter() - t0
            attempted += 1
            round_time += dt
            tally.times.append(dt)
            if code != 0:
                failed += 1
                tally.fail(code if isinstance(code, str) else f"exit {code}")
            elif not judge(cmd, tally, out.getvalue(), problems):
                failed += 1
                tally.fail("wrong output")
        round_times.append(round_time)
        if tracer is not None:
            tracer.end_round()
    gc.unfreeze()

    for cmd in cmds:
        tally = tallies[cmd.name]
        note = ", ".join(f"{k} x{v}" for k, v in tally.failures.items()) or "ok"
        print(f"{workload} {cmd.name}_s mean {statistics.fmean(tally.times):.6f} s, "
              f"median {statistics.median(tally.times):.6f} s over {len(tally.times)} rounds ({note})")
    for p in problems[:20]:
        print(f"problem: {p}")

    if tracer is not None:
        metrics = spans.layer_metrics(tracer, round_times)
        spans.write_spans(tracer, OUT / f"trace-{workload}")
        if tracer.missing:
            print("not traced (missing from the package): " + ", ".join(tracer.missing))
    else:
        # Means over the whole run, not medians of rounds: on a shared machine
        # the CPU speed drifts in phases of several seconds, and a mean over
        # the run is what steadies the figure from run to run.
        means = [statistics.fmean(t.times) for t in tallies.values()]
        metrics = {
            "round_s": {"value": statistics.fmean(round_times), "unit": "s"},
            "command_geomean_s": {"value": statistics.geometric_mean(means), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "indivisible" / "__init__.py").is_file():
        print(f"error: no indivisible package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
