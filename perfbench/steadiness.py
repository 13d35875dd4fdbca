"""Run a workload on several seeds and report each metric's spread.

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  ``--save`` merges the figures
into a JSON file such as ``perfbench/baseline.json``::

    python3 perfbench/steadiness.py --workload cli-mix --seeds 1-10 --save perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--save", help="merge the figures into this JSON file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stderr}")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                                         if k in bounds and bounds[k] is not None), flush=True)

    summary = {}
    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": runs[0][name]["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        bound = bounds.get(name)
        print(f"{name:28s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        saved.setdefault(args.workload, {})["seeds"] = args.seeds
        saved[args.workload]["metrics"] = summary
        path.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
