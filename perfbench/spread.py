"""Run a workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload design --seeds 1-10

Runs the benchmark command from BENCHMARK.json once per seed for its
run_seconds, one run at a time, and prints for each end-to-end metric the
median of the runs and the distance between the first and third quartiles
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound. The
per-run results are appended to perfbench/results/spread-<workload>.jsonl.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(out / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, "result": result}) + "\n")
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {vals}", flush=True)
    print(f"{'metric':<14}{'median':>12}{'IQR/median':>12}{'bound':>8}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:<14}{med:>12.5g}{(q3 - q1) / med:>12.4f}{m['bound']:>8}")
    failed = [r["failed"] / r["attempted"] for r in runs]
    print(f"failed share per run: {sorted(set(failed))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
