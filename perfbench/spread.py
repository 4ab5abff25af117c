"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 [--out FILE]

Runs ``perfbench/run.py --trace 0`` once per seed and workload of
BENCHMARK.json, at its ``run_seconds``, one run at a time, and prints for
each metric the median and the distance between the first and third
quartile as a share of the median, beside the metric's bound.  A spread at
or above a third of its bound is flagged.  The same spread of the unscaled
figures, read from each run's record, is printed beside it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="also write all results to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            record = ROOT / "perfbench" / "out" / f"{name}-seed{seed}-trace0.json"
            if "metrics" in result and record.is_file():
                result["unscaled"] = json.loads(record.read_text(encoding="utf-8"))["unscaled"]
            results.setdefault(name, []).append({"seed": seed, **result})
        print(f"{name}: {len(results[name])} runs")
        done = [r for r in results[name] if "unscaled" in r]
        for metric, bound in bounds.items():
            if len(done) < 2:
                continue
            values = [r["metrics"][metric]["value"] for r in done]
            spread = quartile_spread(values)
            unscaled = quartile_spread([r["unscaled"][metric] for r in done])
            flag = "" if spread < bound / 3 else "  <-- at or above bound/3"
            print(f"  {metric:<18} median={statistics.median(values):<14.6g} "
                  f"spread={spread:.4f} unscaled={unscaled:.4f} bound={bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
