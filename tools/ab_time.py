"""Time one benchmark workload's rounds on two checkouts interleaved in one process.

    python tools/ab_time.py ROOT_A ROOT_B [--workload W] [--rounds 5] [--seed 3] [--json PATH]

Copies each checkout's src/clfsynth into a temporary directory under its
own package name (clfsynth_a, clfsynth_b) and imports this repository's
perfbench/workloads.py once per side, with clfsynth and clfsynth.* pointing
at that side's package in sys.modules while the module runs, so both
sides run the benchmark's own operations and only the program differs.
Each side builds WORKLOADS[workload](seed). Operation j of round(r) runs
on both sides back to back, alternating which side goes first, timed
around op.run() as perfbench/run.py times it; op.check(out) then runs
untimed on each side's output. An operation that raises ends the tool.

It prints, per kind, the median time of each side, the B/A ratio and
whether B's outputs equal A's bit for bit (both design records as the
report writes them, every field of a cost estimate, the times, states,
inputs and every annotation of a trajectory, a Riccati certificate);
then each side's median over the operations of each round, the median of
those (the in-process analogue of op_p50_s) and each side's check
problems. It exits 0 when every output is bit-equal and no check reports
a problem, 1 otherwise. --json PATH writes the same medians with both
commits (marked "+changes" when tracked files differ from it), the
Python, numpy and scipy versions and the core count: the BENCH_<tag>.json
record of a performance change.

Separate timed runs on a small machine drift by much more than a few
per cent, so both sides are timed under the same conditions here. This
is a development aid, not the benchmark.
"""

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import scipy

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads(root, name, tmp):
    """perfbench/workloads.py bound to root's src/clfsynth, copied as package name."""
    shutil.copytree(pathlib.Path(root) / "src" / "clfsynth", pathlib.Path(tmp) / name)
    importlib.import_module(name)
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "clfsynth"}
    bound = {"clfsynth" + k[len(name):]: v for k, v in sys.modules.items()
             if k.split(".")[0] == name}
    sys.modules.update(bound)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{name}",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for k in bound:
            del sys.modules[k]
        sys.modules.update(saved)
    return module


def fingerprint(value):
    """The bytes of an output that must agree between the sides."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, dict):
        return b"{" + b",".join(k.encode() + b":" + fingerprint(v)
                                for k, v in sorted(value.items())) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(map(fingerprint, value)) + b"]"
    if hasattr(value, "to_dict"):  # a design record or a Riccati certificate
        return fingerprint(value.to_dict())
    if hasattr(value, "__dict__"):  # a trajectory or a cost estimate
        return fingerprint(vars(value))
    return repr(value).encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", help="checkout A (e.g. the parent)")
    parser.add_argument("root_b", help="checkout B (e.g. the change)")
    parser.add_argument("--workload", choices=("design", "trajectories", "riccati_scale"),
                        default="trajectories")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3, help="the workload seed")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the medians, both commits, the Python, numpy and "
                             "scipy versions and the core count to PATH")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports checks
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load_workloads(root, name, tmp).WORKLOADS[args.workload](args.seed)
                 for root, name in ((args.root_a, "clfsynth_a"), (args.root_b, "clfsynth_b"))]
        times = {}  # kind -> ([(round, s)] of A, [(round, s)] of B)
        equal = {}
        problems = ([], [])
        for r in range(args.rounds):
            for j, ops in enumerate(zip(*(side.round(r) for side in sides))):
                kind = ops[0].kind
                outs = [None, None]
                for s in ((0, 1) if (r + j) % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    outs[s] = ops[s].run()
                    times.setdefault(kind, ([], []))[s].append((r, time.perf_counter() - t0))
                for s in (0, 1):
                    problems[s].extend(f"{kind} (round {r}): {p}" for p in ops[s].check(outs[s]))
                equal[kind] = equal.get(kind, True) and fingerprint(outs[0]) == fingerprint(outs[1])
    # (kind, rounds, A median, B median, bit-equal or None)
    rows = [(kind, f"1-{args.rounds}", *(statistics.median(t for _, t in side) for side in both),
             equal[kind]) for kind, both in times.items()]
    # per side and round, the median over all of the round's operations
    per_round = [[statistics.median(t for both in times.values() for r2, t in both[s] if r2 == r)
                  for r in range(args.rounds)] for s in (0, 1)]
    rows += [("round median", str(r + 1), per_round[0][r], per_round[1][r], None)
             for r in range(args.rounds)]
    rows.append(("median of round medians", f"1-{args.rounds}",
                 *(statistics.median(side) for side in per_round), all(equal.values())))
    print(f"{'kind':34s} {'rounds':>7s} {'A median s':>11s} {'B median s':>11s} {'B/A':>6s}"
          "  bit-equal")
    for kind, label, ma, mb, same in rows:
        print(f"{kind:34s} {label:>7s} {ma:11.5f} {mb:11.5f} {mb / ma:6.3f}"
              + ("" if same is None else f"  {same}"))
    for side, found in zip("AB", problems):
        for p in found:
            print(f"check failed on {side}: {p}")
    if args.json:
        write_json(args, rows, problems)
    return 0 if all(equal.values()) and not any(problems) else 1


def commit_of(root):
    """root's HEAD commit, with "+changes" when its tracked files differ from it."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True,
                              text=True, check=True).stdout.strip()
    return git("rev-parse", "HEAD") + ("+changes" if git("status", "--porcelain", "-uno") else "")


def write_json(args, rows, problems):
    record = {
        "tool": f"tools/ab_time.py --workload {args.workload}",
        "rounds": args.rounds, "seed": args.seed,
        "commit_a": commit_of(args.root_a), "commit_b": commit_of(args.root_b),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "medians_s": [{"kind": kind, "rounds": label, "a": ma, "b": mb, "b_over_a": mb / ma,
                       **({} if same is None else {"bit_equal": same})}
                      for kind, label, ma, mb, same in rows],
        "problems": {"a": problems[0], "b": problems[1]},
    }
    pathlib.Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
