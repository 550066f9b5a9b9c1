"""Benchmark of the ``autalg`` command line on seeded workloads.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the repository root.  Set-up writes the workload's inputs into
a temporary directory under ``.bench_out/``.  The run then repeats the
workload's fixed list of ``autalg.cli.main`` calls, in this process and
one at a time, until ``--seconds`` are used up; after each of the first
passes it times one cold start of the CLI in a child interpreter.
Outputs of the first pass are checked against the oracles; later passes
must reproduce their sha256.

With ``--trace 1`` untraced and traced passes alternate, and the result
holds per-layer metrics instead of end-to-end ones.  The
last line of standard output is the result as one JSON object; per-op
details go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
COLD_STARTS = 11
TAIL_BEYOND = 10

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
              "setup_s": "s"}

_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import autalg.cli
autalg.cli.build_parser()
print(json.dumps({"numpy_s": t1 - t0, "cli_s": time.perf_counter() - t1}))
"""


@dataclass
class Pass:
    traced: bool
    latencies_ns: list[int] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)


def best_ms(passes: list[Pass]) -> list[float]:
    """Each op's fastest latency over ``passes``, in ms.  On a shared
    machine other tenants only ever add time, and they do so in stretches
    of seconds, so the best of several passes is what the op itself costs."""
    return [min(p.latencies_ns[i] for p in passes) / 1e6
            for i in range(len(passes[0].latencies_ns))]


def cold_start() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing ``autalg.cli`` and
    building its parser, and that interpreter's own numpy import time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = time.perf_counter() - start
    return wall, json.loads(done.stdout)["numpy_s"]


def run_op(main, op) -> tuple[int | None, int, str, str, bytes | None]:
    """Call the CLI once: (exit code, or None if it raised; ns; stdout;
    stderr; bytes of the ``-o`` file, if the op writes one)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
    except (Exception, SystemExit) as exc:
        code = None
        err.write(f"raised {exc!r}")
    elapsed = time.perf_counter_ns() - start
    data = None
    if op.output:
        path = Path(op.output)
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
    return code, elapsed, out.getvalue(), err.getvalue(), data


def verify(op, code, stdout: str, stderr: str, data: bytes | None) -> str | None:
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {stderr.strip()[:200]}"
    return op.check(stdout, data)


def measure(ops, seconds: float, tracer=None) -> tuple[list[Pass], dict[str, str],
                                                    list[tuple[float, float]]]:
    """Repeat the op list until the next pass would overrun ``seconds``.
    With a tracer, untraced and traced passes alternate, one of each at
    least, so both see the same warm-up.  The first ``COLD_STARTS``
    passes are each followed by one cold start, so that their median
    samples the machine over most of the run rather than over a few
    seconds of it."""
    import autalg.cli

    cold_start()  # warm-up: fills the page cache for the interpreter and numpy
    gc.collect()
    gc.freeze()  # keeps gc.collect() between ops from walking numpy's and autalg's objects
    digests: dict[str, str] = {}
    passes: list[Pass] = []
    starts: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        restore = tracer.install() if traced else None
        main = tracer.wrap("cli.main", autalg.cli.main) if traced else autalg.cli.main
        current = Pass(traced)
        try:
            for op in ops:
                if tracer is not None:
                    tracer.op = op.name
                gc.collect()
                code, elapsed, stdout, stderr, data = run_op(main, op)
                current.latencies_ns.append(elapsed)
                digest = hashlib.sha256(f"{code}\0{stdout}\0".encode() + (data or b"")).hexdigest()
                if op.name not in digests:
                    digests[op.name] = digest
                    problem = verify(op, code, stdout, stderr, data)
                elif digest != digests[op.name]:
                    problem = "output differs from the first pass"
                else:
                    problem = None
                if problem:
                    current.errors[op.name] = problem
        finally:
            if restore:
                restore()
        passes.append(current)
        if len(starts) < COLD_STARTS:
            starts.append(cold_start())
        now = time.perf_counter()
        need_traced = tracer is not None and not any(p.traced for p in passes)
        if len(starts) == COLD_STARTS and not need_traced \
                and (now - start) + (now - began) > seconds:
            return passes, digests, starts


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and facts reported beside them."""
    per_op = sorted(best_ms(passes))
    n = len(per_op)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "wall_s": sum(per_op) / 1e3,
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": per_op[tail_index],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    facts = {"ops": n, "untraced_passes": len(passes), "samples": n * len(passes),
             "tail_percentile": round(100 * (tail_index + 1) / n, 1)}
    return metrics, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "autalg" / "cli.py").is_file():
        print(f"error: no autalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import autalg
    import gen
    import tracing

    if Path(autalg.__file__).resolve().parent != SRC / "autalg":
        print(f"error: imported autalg from {autalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in gen.WORKLOADS:
        print(f"error: workload must be one of {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    home = os.getcwd()
    try:
        started = time.perf_counter()
        ops = gen.build(args.workload, args.seed, workdir)
        generate_s = time.perf_counter() - started
        os.chdir(workdir)
        try:
            passes, digests, starts = measure(ops, args.seconds, tracer)
        finally:
            os.chdir(home)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    setup, numpy_s = zip(*starts)
    metrics, facts = end_to_end(untraced, setup)
    attempted = len(ops) * len(passes)
    failures = [(i, name, why) for i, p in enumerate(passes) for name, why in p.errors.items()]
    facts.update(workload=args.workload, seed=args.seed, generate_s=round(generate_s, 3),
                 attempted=attempted, failed=len(failures),
                 failed_ratio=len(failures) / attempted)

    if tracer is not None:
        traced = [p for p in passes if p.traced]
        layers = tracing.layer_metrics(tracer, len(traced))
        layers["trace.wall_s"] = sum(best_ms(traced)) / 1e3
        layers["trace.overhead_ratio"] = layers["trace.wall_s"] / metrics["wall_s"]
        layers["setup.import_numpy_s"] = statistics.median(numpy_s)
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()}

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"facts": facts, "metrics": reported,
              "ops": [{"name": op.name, "argv": op.argv, "expect_exit": op.expect_exit,
                       "sha256": digests.get(op.name),
                       "latency_ms": [p.latencies_ns[i] / 1e6 for p in passes]}
                      for i, op in enumerate(ops)],
              "failures": [{"pass": i, "op": name, "why": why} for i, name, why in failures]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with stem.with_suffix(".spans.jsonl").open("w") as spans:
            for s in tracer.spans:
                spans.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")

    print(f"{args.workload} seed {args.seed}: {facts['ops']} ops x {len(passes)} passes "
          f"({len(passes) - len(untraced)} traced), inputs generated in {generate_s:.2f} s")
    for name, entry in reported.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    if tracer is None:
        print(f"  (op_tail_ms is p{facts['tail_percentile']} over {facts['ops']} per-op bests "
              f"of {facts['samples']} samples)")
    print(f"  {'failed_ratio':40s} {facts['failed_ratio']:14.6g} ({len(failures)} of {attempted})")
    for i, name, why in failures:
        print(f"  FAILED pass {i} {name}: {why}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
