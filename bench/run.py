"""Run one workload of the pgrid benchmark and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload large-board --seed 1 --seconds 30 --trace 0

The run imports ``pgrid`` from the checkout's ``src/``, builds the workload's
inputs from the seed and runs one warm-up pass over the workload's ops whose
outputs are checked in full.  It then repeats timed passes until
``--seconds`` have passed, comparing every output with the checked one.
A fixed pure-Python loop, the yardstick, is timed between ops; the bounded
time metrics count each op in yardsticks, which follow the program's speed
rather than the shared host's, and the same figures are printed in seconds.
With ``--trace 0`` it also sets up the workload in fresh interpreters to
measure ``setup_s``.  With ``--trace 1`` it runs the timed passes once
untraced and once with every public function of the layer modules wrapped,
and reports per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy of the full result, and the spans of a traced run, are
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_MIN_PROBES = 3
SETUP_MIN_SECONDS = 6.0
PROBE_TIMEOUT_S = 100
YARDSTICK_ROUNDS = 3000


def bootstrap() -> None:
    """Make ``pgrid`` importable from this checkout's sources, and only from there."""
    if not (SRC / "pgrid" / "__init__.py").is_file():
        sys.exit(f"bench: no pgrid sources at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pgrid

    if Path(pgrid.__file__).resolve().parent != SRC / "pgrid":
        sys.exit(f"bench: imported pgrid from {pgrid.__file__}, not from {SRC}")


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import pgrid, build the inputs and run the first op once."""
    start = time.perf_counter()
    bootstrap()
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    ops[0].run()
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Set up in fresh interpreters, at least three times and for six seconds."""
    times, errors = [], []
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    while len(times) + len(errors) < SETUP_MIN_PROBES or time.perf_counter() - start < SETUP_MIN_SECONDS:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            errors.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times, errors


def yardstick() -> float:
    """Seconds a fixed pure-Python loop takes: the unit of the relative metrics.

    The loop does the kinds of work pgrid spends its time on (dict and list
    traffic, small-int arithmetic, bit operations on a many-word int), so a
    busy or idle neighbour on a shared host slows it about as much as an op.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    cells = []
    mask = (1 << 900) - 1
    acc = 0
    for i in range(YARDSTICK_ROUNDS):
        table[i & 255] = table.get(i & 255, 0) + i
        acc = (acc << 3 | acc >> 7 | i) & mask
        cells.append((i % 37, i // 37))
    return time.perf_counter() - t0


@dataclass
class Phase:
    """Samples of one series of passes over the ops."""

    op_ms: dict[str, list[float]] = field(default_factory=dict)
    op_rel: dict[str, list[float]] = field(default_factory=dict)
    yardstick_ms: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def op_medians(self) -> dict[str, float]:
        """Each op's median time in the phase, in ms."""
        return {name: stats.median_with_count(ms)[0] for name, ms in self.op_ms.items()}

    def op_rel_medians(self) -> dict[str, float]:
        """Each op's median time in the phase, in yardsticks."""
        return {name: stats.median_with_count(rel)[0] for name, rel in self.op_rel.items()}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def warm_up(ops) -> tuple[dict[str, object], Phase]:
    """One untimed pass that fills caches and checks every output in full.

    The fingerprint of each checked output is kept; every timed output must
    match it, so checking one output per op checks them all.
    """
    phase = Phase()
    refs: dict[str, object] = {}
    for op in ops:
        phase.attempted += 1
        refs[op.name] = None
        try:
            out = op.run()
            problems = op.check(out)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            if not problems:
                refs[op.name] = op.fingerprint(out)
        if problems:
            phase.fail(f"{op.name}: " + "; ".join(problems[:5]))
    return refs, phase


def timed_passes(ops, refs: dict[str, object], seconds: float, tracer=None) -> Phase:
    """Whole passes over the ops until ``seconds`` have elapsed.

    The yardstick runs before the first op and after every op, so each op
    sample is also taken relative to the mean of the two yardsticks around it.
    """
    phase = Phase(op_ms={op.name: [] for op in ops}, op_rel={op.name: [] for op in ops})
    start = time.perf_counter()
    while True:
        total = 0.0
        before = yardstick()
        for op in ops:
            phase.attempted += 1
            if tracer is not None:
                tracer.begin_op(op.name)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                out, error = None, exc
            else:
                error = None
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            after = yardstick()
            total += dt
            phase.op_ms[op.name].append(dt * 1000.0)
            phase.op_rel[op.name].append(2.0 * dt / (before + after))
            phase.yardstick_ms.append(after * 1000.0)
            before = after
            if error is not None:
                phase.fail(f"{op.name}: {type(error).__name__}: {error}")
            elif refs[op.name] is None or op.fingerprint(out) != refs[op.name]:
                phase.fail(f"{op.name}: output differs from the warm-up output")
            elif tracer is not None:
                for key, value in op.counters(out).items():
                    tracer.counts[key] += value
            del out
        phase.pass_s.append(total)
        if time.perf_counter() - start >= seconds:
            return phase


def mix_seconds(op_ms: dict[str, float]) -> float:
    """Time to solution of the fixed mix: the sum of one time per op."""
    return sum(op_ms.values()) / 1000.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    setup_times: list[float] = []
    setup_errors: list[str] = []
    if args.trace == 0:
        setup_times, setup_errors = measure_setup(args.workload, args.seed)
        if not setup_times:
            sys.exit("bench: every setup probe failed: " + " | ".join(setup_errors))

    RESULTS.mkdir(exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    refs, warm = warm_up(ops)
    plain = timed_passes(ops, refs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [warm, plain]

    # Each op counts at its median in the run.  The bounded metrics take op
    # times in yardsticks: on a shared host the speed of the whole machine
    # moves by tens of percent from one minute to the next, and a yardstick
    # run next to each op moves with it.  Seconds are printed beside them.
    medians = plain.op_medians()
    rel = plain.op_rel_medians()
    wall_s = mix_seconds(medians)
    wall_rel = sum(rel.values())
    op_ms_p50, n_ops = stats.median_with_count(list(medians.values()))
    op_rel_p50, _ = stats.median_with_count(list(rel.values()))
    yardstick_ms, _ = stats.median_with_count(plain.yardstick_ms)
    passes = len(plain.pass_s)
    samples = sum(len(ms) for ms in plain.op_ms.values())

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "op_samples": {name: len(v) for name, v in plain.op_ms.items()},
        "op_ms_median": medians,
        "op_rel_median": rel,
        "yardstick_ms_median": yardstick_ms,
        "op_ms": plain.op_ms,
        "setup_samples_s": setup_times,
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  python {info['python']}  nproc {info['nproc']}",
        f"wall_rel     {wall_rel:.2f} yardsticks   sum of each op's median over {passes} passes",
        f"op_rel_p50   {op_rel_p50:.3f} yardsticks   median over the {n_ops} ops of each op's median "
        f"({samples} samples)",
        f"wall_s       {wall_s:.4f} s    op_ms_p50 {op_ms_p50:.4f} ms   the same in seconds, "
        f"with the yardstick at {yardstick_ms:.4f} ms",
    ]

    if args.trace == 0:
        setup_s, setup_n = stats.median_with_count(setup_times)
        metrics = {
            "wall_rel": metric(wall_rel, "yardstick"),
            "op_rel_p50": metric(op_rel_p50, "yardstick"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
        lines += [
            f"setup_s      {setup_s:.4f} s    median of {setup_n} fresh interpreters",
            f"peak_rss_mb  {peak_rss_mb:.1f} MiB",
        ]
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.patch()
        try:
            traced = timed_passes(ops, refs, args.seconds, tracer)
        finally:
            tracer.unpatch()
        phases.append(traced)
        series = {op.name: op.cells for op in ops if op.cells}
        layer = tracer.layer_metrics(len(traced.pass_s), series)
        traced_medians = traced.op_medians()
        traced_wall = mix_seconds(traced_medians)
        overhead = traced_wall - wall_s
        metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
        metrics["trace_overhead_s"] = metric(overhead, "s")
        layer_sum = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        mean_traced = sum(traced.pass_s) / len(traced.pass_s)
        lines += [
            f"traced passes {len(traced.pass_s)}, traced wall_s {traced_wall:.4f} s, "
            f"trace_overhead_s {overhead:.4f} s",
            f"layer self times + harness + tracer = {layer_sum:.4f} s of {mean_traced:.4f} s mean traced pass",
        ]
        for name in tracing.LAYERS + ("harness", "tracer"):
            lines.append(f"  {name:<14} self {layer[name + '.self_s'][0]:.4f} s")
        info["op_ms_median_traced"] = traced_medians
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")

    attempted = sum(p.attempted for p in phases) + len(setup_times) + len(setup_errors)
    failed = sum(p.failed for p in phases) + len(setup_errors)
    errors = setup_errors + [e for p in phases for e in p.errors]
    lines.append(f"fail_ratio   {failed / attempted:.6f}      {failed} failed of {attempted} attempted")
    for name in info["op_samples"]:
        lines.append(
            f"  op {name:<34} samples {info['op_samples'][name]:>3}  median {medians[name]:10.3f} ms"
            f"  best {min(plain.op_ms[name]):10.3f} ms"
        )
    for error in errors:
        print(f"bench: {error}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "errors": errors}, indent=2) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
