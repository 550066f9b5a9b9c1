"""Run every workload untraced and traced, and write one report.

    python3 bench/report.py --seed 1 --seconds 40
    python3 bench/report.py --compare OLD.json NEW.json

The first form runs ``bench/run.py`` once per workload with ``--trace 0``
and once with ``--trace 1``, each in its own process, prints the
end-to-end metrics and a per-layer table, and writes both to
``.bench_out/report-seed<N>.{md,json}`` beside the per-run results.
The JSON keeps every operation's output sha256, so the second form can
diff two commits' reports: metric ratios, and operations whose output
bytes changed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from gen import WORKLOADS  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "facts": details["facts"], "failures": details["failures"],
            "sha256": {op["name"]: op["sha256"] for op in details["ops"]}}


def layer_rows(layers: dict) -> list[str]:
    """Self time, share of all self time (every span nests in ``cli.main``,
    so the shares add up to the traced time in the CLI), calls and counts
    per layer."""
    prefixes = sorted({name.rsplit(".", 1)[0] for name in LAYER_METRICS
                       if name.endswith(".self_s")})
    wall = sum(layers[f"{prefix}.self_s"]["value"] for prefix in prefixes)
    rows = []
    for prefix in prefixes:
        self_s = layers[f"{prefix}.self_s"]["value"]
        extras = [f"{name.rsplit('.', 1)[1]}={layers[name]['value']:.6g}"
                  for name in LAYER_METRICS
                  if name.startswith(prefix + ".") and not name.endswith(".self_s")
                  and layers[name]["value"]]
        if self_s or extras:
            rows.append(f"| {prefix} | {self_s:.4f} | {100 * self_s / wall:.1f}% | "
                        f"{', '.join(extras)} |")
    for name in ("core.multiply.calls", "core.closure.new_per_product", "setup.import_numpy_s",
                 "trace.wall_s", "trace.overhead_ratio"):
        rows.append(f"| {name} | | | {layers[name]['value']:.6g} {layers[name]['unit']} |")
    return rows


def report(seed: int, seconds: float) -> int:
    runs = {w: {t: run_workload(w, seed, seconds, t) for t in (0, 1)} for w in WORKLOADS}
    lines = [f"# autalg benchmark, seed {seed}, {seconds:g} s per run", "",
             "| metric | " + " | ".join(WORKLOADS) + " |",
             "|---|" + "---|" * len(WORKLOADS)]
    for name, unit in END_TO_END.items():
        values = [runs[w][0]["result"]["metrics"][name]["value"] for w in WORKLOADS]
        lines.append(f"| {name} ({unit}) | " + " | ".join(f"{v:.4g}" for v in values) + " |")
    lines.append("| failed_ratio | " + " | ".join(
        f"{runs[w][0]['facts']['failed_ratio']:.4g} ({runs[w][0]['facts']['failed']} of "
        f"{runs[w][0]['facts']['attempted']})" for w in WORKLOADS) + " |")
    lines.append("| op_tail_ms percentile | " + " | ".join(
        f"p{runs[w][0]['facts']['tail_percentile']} of {runs[w][0]['facts']['ops']} ops, "
        f"{runs[w][0]['facts']['samples']} samples" for w in WORKLOADS) + " |")
    for w in WORKLOADS:
        for trace in (0, 1):
            for failure in runs[w][trace]["failures"]:
                lines.append(f"\nFAILED {w} (trace {trace}) pass {failure['pass']} "
                             f"{failure['op']}: {failure['why']}")
    for w in WORKLOADS:
        lines += ["", f"## {w}: per layer, per traced pass", "",
                  "| layer | self s | share | calls and counts |", "|---|---|---|---|"]
        lines += layer_rows(runs[w][1]["result"]["metrics"])
    text = "\n".join(lines) + "\n"
    print(text)
    stem = OUT / f"report-seed{seed}"
    stem.with_suffix(".md").write_text(text)
    stem.with_suffix(".json").write_text(json.dumps(
        {"seed": seed, "seconds": seconds,
         "workloads": {w: {"end_to_end": runs[w][0]["result"]["metrics"],
                           "per_layer": runs[w][1]["result"]["metrics"],
                           "facts": runs[w][0]["facts"],
                           "sha256": runs[w][0]["sha256"]} for w in WORKLOADS}},
        indent=1) + "\n")
    print(f"wrote {stem}.md and {stem}.json")
    return 0


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["seed"] != new["seed"]:
        print(f"warning: seeds differ ({old['seed']} vs {new['seed']}); "
              "output digests are not comparable")
    for w in WORKLOADS:
        print(f"{w}:")
        a, b = old["workloads"][w], new["workloads"][w]
        for name in END_TO_END:
            x, y = a["end_to_end"][name]["value"], b["end_to_end"][name]["value"]
            print(f"  {name:14s} {x:12.6g} -> {y:12.6g}  ({y / x:.3f}x)")
        changed = sorted(op for op in a["sha256"] if a["sha256"][op] != b["sha256"].get(op))
        print(f"  outputs changed: {', '.join(changed) if changed else 'none'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return report(args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
