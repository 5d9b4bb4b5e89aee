#!/usr/bin/env python3
"""coxembed benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify-finite --seed 1 --seconds 25 --trace 0

Run from the repository root (any directory works; the script finds the
root from its own path).  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` wraps every layer, reports per-layer
metrics and the tracing overhead, and writes the spans to
``perfbench/out/``.  A run times one pass of the seed's ops, and repeats
it while another whole pass still fits in ``--seconds``; each op's latency
is its median over the passes, scaled to a reference host speed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 1 if any op failed and 2
if coxembed's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 7
PROBE_REPEATS = 7

# metric names and units, with BENCHMARK.json as their one source
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

_CLOCK = time.perf_counter

# Host speed.  On a shared VM other tenants' load changes the speed of the
# same code by up to 2x within a minute, and a run cannot wait that out.
# So a fixed pure-Python loop, close to coxembed's word handling and run
# between ops, measures the speed of the moment, and every reported time is
# scaled to a host on which the loop takes REFERENCE_S.  A change to
# coxembed leaves the loop alone, so it moves the scaled times as much as
# the raw ones.
REFERENCE_S = 0.0025
CALIBRATE_EVERY_S = 0.25
_rng = random.Random(0)
_WORDS = [tuple(_rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(40)) for _ in range(200)]


def _free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def calibrate() -> float:
    """Median time of three runs of the fixed loop."""
    times = []
    for _ in range(3):
        t0 = _CLOCK()
        seen: dict = {}
        for word in _WORDS:
            for reduced in (_free_reduce(word), _free_reduce(word[::-1])):
                seen[reduced] = seen.get(reduced, 0) + 1
        times.append(_CLOCK() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a time taken between two loop timings into one at
    the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def import_fresh(workload: str) -> dict:
    """Import coxembed anew, as a fresh process would, and return its modules."""
    for name in [n for n in sys.modules if n == "coxembed" or n.startswith("coxembed.")]:
        del sys.modules[name]
    names = ["coxembed", "coxembed.words", "coxembed.presentations", "coxembed.schreier",
             "coxembed.tietze", "coxembed.verify"]
    if workload == "cli":
        names.append("coxembed.cli")
    return {name: importlib.import_module(name) for name in names}


def setup(workload: str, ops, in_process: bool, tracer: Tracer | None = None):
    """Imports, instance building and one warm-up op; returns the
    prepared pass."""
    cx = import_fresh(workload) if workload != "cli" or in_process else {}
    if tracer is not None:
        tracer.install(cx)
    items = [workloads.prepare(workload, cx, op, in_process) for op in ops]
    warm = workloads.prepare(workload, cx, workloads.WARM_UP[workload], in_process)
    warm.check(warm.run())
    return items


def repeat(one_pass, seconds: float) -> None:
    """Call ``one_pass`` once, then again while another call of the mean
    length still ends within ``seconds``: a faster program times the same
    ops, only more often."""
    start = _CLOCK()
    calls = 0
    while True:
        one_pass()
        calls += 1
        elapsed = _CLOCK() - start
        if elapsed + elapsed / calls > seconds:
            return


class Loop:
    """Times whole passes over the same ops, recording each op's latency
    and every failure; the run goes on after a failure."""

    def __init__(self, workload: str):
        self.workload = workload
        self.passes: list[list[float]] = []  # per pass, each op's latency
        self.scaled: list[list[float]] = []  # the same at the reference speed
        self.walls: list[float] = []  # per pass, time spent in ops
        self.failures: list[dict] = []
        self.digests: list[str] = []

    def run(self, items, seconds: float) -> None:
        repeat(lambda: self.run_pass(items), seconds)

    def run_pass(self, items, tracer: Tracer | None = None) -> None:
        """Time every op once, timing the calibration loop before the first
        op, after the last, and between ops at least every
        CALIBRATE_EVERY_S; each op is scaled by the timings around it."""
        lat = []
        marks = [(0, calibrate())]  # (ops done, loop time)
        last = _CLOCK()
        for item in items:
            if _CLOCK() - last >= CALIBRATE_EVERY_S:
                marks.append((len(lat), calibrate()))
                last = _CLOCK()
            lat.append(self.one(item, tracer))
        marks.append((len(lat), calibrate()))
        factors = []
        for (a, before), (b, after) in zip(marks, marks[1:]):
            factors += [scale(before, after)] * (b - a)
        self.passes.append(lat)
        self.scaled.append([t * f for t, f in zip(lat, factors)])
        self.walls.append(sum(lat))

    @property
    def attempted(self) -> int:
        return sum(map(len, self.passes))

    def op_latencies(self, scaled: bool = True) -> list[float]:
        """Each op's median latency over the passes."""
        return [statistics.median(times) for times in zip(*(self.scaled if scaled else self.passes))]

    def one(self, item, tracer: Tracer | None = None) -> float:
        if tracer is not None:
            tracer.op = item.op.index
        t0 = _CLOCK()
        try:
            try:
                out = item.run()
            finally:
                latency = _CLOCK() - t0
            self.digests.append(item.check(out))
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            self.digests.append("")
            self.failures.append({
                "workload": self.workload,
                "op": item.op.index,
                "input": repr(item.op),
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=5),
            })
        return latency


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the number of samples beyond."""
    s = sorted(latencies)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_probes() -> dict:
    """Median start-up of a bare interpreter and the extra cost of
    importing ``coxembed.cli`` in a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def wall(code: str) -> float:
        t0 = _CLOCK()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=60)
        return _CLOCK() - t0

    bare, imported = [], []
    for _ in range(PROBE_REPEATS):  # in turn, so both see the same host speed
        bare.append(wall("pass"))
        imported.append(wall("import coxembed.cli"))
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(b - a for a, b in zip(bare, imported))}


def untraced(workload: str, seed: int, seconds: float):
    ops = workloads.draw(workload, seed)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        items = None  # let the previous set and its coxembed import go first
        gc.collect()
        before = calibrate()
        t0 = _CLOCK()
        items = setup(workload, ops, in_process=False)
        raw_setups.append(_CLOCK() - t0)
        setups.append(raw_setups[-1] * scale(before, calibrate()))
    loop = Loop(workload)
    loop.run(items, seconds)
    lat, raw = loop.op_latencies(), loop.op_latencies(scaled=False)
    tail_s, pct, beyond = tail(lat)
    n = len(lat)
    metrics = {
        "ops_per_s": n / statistics.median(map(sum, loop.scaled)),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(children=workload == "cli"),
    }
    notes = {
        "ops_per_s": f"{n} ops a pass, median of {len(loop.walls)} passes; "
                     f"raw {n / statistics.median(loop.walls):.4g}",
        "op_p50_ms": f"over each op's median latency; raw {statistics.median(raw) * 1e3:.4g}",
        "op_tail_ms": f"p{pct:.1f}, {beyond} of {n} ops beyond; raw {tail(raw)[0] * 1e3:.4g}",
        "setup_s": f"median of {SETUP_REPEATS}; raw {statistics.median(raw_setups):.4g}",
        "peak_rss_mb": "CLI child processes" if workload == "cli" else "benchmark process",
    }
    return loop.attempted, loop.failures, metrics, notes, END_TO_END


def traced(workload: str, seed: int, seconds: float):
    """Traced and untraced passes in turn, so that a change of host speed
    does not land on one side of the overhead only."""
    tracer = Tracer()
    items = setup(workload, workloads.draw(workload, seed), in_process=True, tracer=tracer)
    loop, plain = Loop(workload), Loop(workload)

    def pair():
        tracer.install()
        loop.run_pass(items, tracer)
        tracer.uninstall()
        plain.run_pass(items)

    tracer.uninstall()
    repeat(pair, seconds)
    metrics = {name: float(tracer.counters.get(name, 0.0)) for name in PER_LAYER}
    if workload == "cli":
        metrics.update(cli_probes())
    traced_s, plain_s = sum(loop.walls), sum(plain.walls)
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    notes = {"trace.overhead_ratio": f"traced {traced_s:.2f} s vs untraced {plain_s:.2f} s "
                                     f"over the same {loop.attempted} ops; spans in {path.relative_to(ROOT)}"}
    return loop.attempted + plain.attempted, loop.failures + plain.failures, metrics, notes, PER_LAYER


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "coxembed" / "__init__.py").is_file():
        print(f"error: no coxembed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / workloads.FIXTURES).is_dir():
        print(f"error: no fixtures under {ROOT / workloads.FIXTURES}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and the processes it starts, so that the
        # calibration loop times the CPU the ops run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    run = traced if args.trace else untraced
    attempted, failures, metrics, notes, units = run(args.workload, args.seed, args.seconds)
    failed = len(failures)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<46} {value:>14.6g} {units[name]}{note}")
    if not args.trace:
        print(f"  {'failed_ratio':<46} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)")
    for f in failures:
        print(f"FAILED {f['workload']} op {f['op']}: {f['error']}\n  input {f['input']}\n{f['traceback']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
