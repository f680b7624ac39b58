"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: operations run back to back. The
benchmark command in BENCHMARK.json pins BLAS to one thread so that the
machine's cores measure the program rather than the scheduler.

With --trace 0 the run sets up once, then runs whole rounds until
--seconds have passed and at least the workload's minimum operation count
is reached, and reports the end-to-end metrics. setup_s is the median of
SETUP_SAMPLES set-ups, each the import time plus one set-up: the run's own,
and the others in fresh processes started between rounds at even points of
the loop (any not taken by its end are taken after it), so that they meet
the same phases of machine speed as the operations. The loop's deadline is
moved on by the time they take. With --trace 1 it sets up once, installs
the tracer, runs the workload's fixed number of rounds (so counts repeat
exactly for a seed; --seconds is not used) and reports the per-layer
metrics. The last line of standard output is the result object; the line
before it describes the run (versions, nproc, BLAS threads, percentile).
A copy of both, and the spans of a traced run, go to perfbench/results/.
--setup-only imports, sets up once and prints only the time that took.
"""

import os
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 4
WARNING_METRICS = {
    "scaling queried": "inverse_opt.beyond_certified_warnings",
    "annulus": "inverse_opt.empty_annulus_warnings",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_in_child(workload, seed):
    """Import time plus one set-up, measured in a fresh process."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def run_ops(wl, rounds_done, tracer=None, between_rounds=None):
    """Run whole rounds until rounds_done(rounds, ops); returns the records."""
    records = []
    problems = []
    warn_counts = {}
    r = 0
    while not rounds_done(r, len(records)):
        if r > 0 and between_rounds is not None:
            between_rounds()
        for op in wl.round(r):
            rec = {"kind": op.kind, "round": r}
            records.append(rec)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if tracer is not None:
                    tracer.op = len(records) - 1
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                    out = None
                finally:
                    rec["seconds"] = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.active = False
            for w in caught:
                msg = str(w.message)
                key = next((m for p, m in WARNING_METRICS.items() if msg.startswith(p)),
                           "other_warnings")
                warn_counts[key] = warn_counts.get(key, 0) + 1
            if out is not None:
                # checks may query a cost beyond its certified levels; those
                # warnings are not the operation's and are not counted
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    found = op.check(out)
                problems.extend(f"{op.kind} (round {r}): {p}" for p in found)
        r += 1
    return records, problems, warn_counts, r


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "clfsynth" / "__init__.py").is_file():
        print(f"clfsynth sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    import tracer as tracing
    import_s = time.perf_counter() - T_START

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)

    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl = cls(args.seed)
    setup_times = [import_s + time.perf_counter() - t0]
    if args.setup_only:
        print(setup_times[0])
        return 0

    tr = None
    t_loop = time.perf_counter()
    deadline = [t_loop + args.seconds]
    between_rounds = None
    if traced:
        tr = tracing.Tracer()
        tr.install()

        def rounds_done(r, n_ops):
            return r >= cls.trace_rounds
    else:
        def rounds_done(r, n_ops):
            return n_ops >= cls.min_ops and time.perf_counter() >= deadline[0]

        def sample_setup():
            t = time.perf_counter()
            setup_times.append(setup_in_child(args.workload, args.seed))
            deadline[0] += time.perf_counter() - t

        def between_rounds():
            timed = time.perf_counter() - (deadline[0] - args.seconds)
            if (len(setup_times) < SETUP_SAMPLES
                    and timed >= len(setup_times) * args.seconds / SETUP_SAMPLES):
                sample_setup()

    records, problems, warn_counts, rounds = run_ops(wl, rounds_done, tr, between_rounds)
    if not traced:
        while len(setup_times) < SETUP_SAMPLES:
            sample_setup()
    loop_s = time.perf_counter() - t_loop
    if tr is not None:
        tr.uninstall()

    done = [r["seconds"] for r in records if "error" not in r]
    failed = sum(1 for r in records if "error" in r)
    ops_per_s = len(done) / sum(done) if done else 0.0
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if traced:
        values = tr.metrics()
        values.update(warn_counts)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {
            "op_p50_s": statistics.median(done) if done else 0.0,
            "op_tail_s": float(np.percentile(done, cls.tail_percentile)) if done else 0.0,
            "ops_per_s": ops_per_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: {"value": values.get(n, 0), "unit": units[n]} for n in names}

    by_kind = {}
    for r in records:
        if "error" not in r:
            by_kind.setdefault(r["kind"], []).append(r["seconds"])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": int(traced),
        "environment": environment(),
        "rounds": rounds, "operations": len(records), "loop_s": loop_s,
        "ops_per_s": ops_per_s,
        "tail_percentile": cls.tail_percentile,
        "import_s": import_s, "setup_samples_s": setup_times,
        "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "warnings": warn_counts,
        "errors": [f"{r['kind']}: {r['error']}" for r in records if "error" in r][:10],
        "problems": problems[:20],
    }
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(traced)}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result, "operations": records}, fh, indent=1)
    if tr is not None:
        tr.save(RESULTS / f"{stem}-spans.npz")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
