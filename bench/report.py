"""Run the benchmark over workloads, seeds and trace modes, and print
every metric by name with its unit.

    python3 bench/report.py                          # all workloads, seed 1, both modes
    python3 bench/report.py --workloads cli --seeds 1-10 --trace 0

Each run is a fresh ``bench/run.py`` process.  With more than one seed
the table gives, per metric, the median over seeds, the first and third
quartiles (``statistics.quantiles(n=4)``) and their distance as a share
of the median, the spread that each end-to-end bound in BENCHMARK.json
must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", type=seeds, default=[1], help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    args = parser.parse_args()
    names = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in names:
        for trace in args.trace:
            results = [run(workload, seed, args.seconds, trace) for seed in args.seeds]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"\n{workload}  trace {trace}  seeds {args.seeds}  "
                  f"correct {correct}  failed {failed} of {attempted} ops")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(values)
                line = f"  {name:58s} {med:12.6g} {first['unit']:10s}"
                if len(values) > 1:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    spread = (q3 - q1) / med if med else 0.0
                    bound = bounds.get(name)
                    line += f" q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
                    if bound is not None:
                        line += f"  (bound {bound}, {'ok' if spread <= bound / 3 else 'WIDE'})"
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
