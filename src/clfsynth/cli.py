"""Command line front end.

Exit codes: 0 success, 2 invalid input or config, 3 a certificate check
failed, 4 a simulated trajectory diverged or left its domain.
"""

import argparse
import json
import sys

import numpy as np

from .errors import CertificateError, ConfigError, DivergenceError
from .linear_core import LinearSystem, lqr_gain, solve_care
from .serialize import matrix_from_json, matrix_to_json
from .structured import StrictFeedbackSystem
from . import runner


def _emit(obj, out=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_vector(text, label):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{label} must be comma-separated numbers") from None


# run-input flag (argparse dest) -> (config section, key), or (top-level entry, None)
RUN_INPUTS = {"seed": ("sampling", "seed"), "samples": ("sampling", "n_samples"),
              "k_max": ("inverse_optimal", "k_max"), "dt": ("integrator", "dt"),
              "T": ("integrator", "horizon"), "levels": ("level_grid", None),
              "x0": ("initial_states", None),
              "Q": ("prescription", "Q"), "R": ("prescription", "R"), "box": ("box", None),
              "params": ("orbital_params", None), "cost": ("orbital_cost", None)}
JSON_FILE_FLAGS = {"Q", "R", "box", "params", "cost"}


def _run_config(args, system):
    """runner.load_config of the config whose entries are the run-input flags given."""
    cfg = {"system": system}
    for dest, (entry, key) in RUN_INPUTS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest in JSON_FILE_FLAGS:
            value = runner.read_json(value, f"--{dest}")
        elif dest == "levels":
            value = _parse_vector(value, "--levels")
        elif dest == "x0":
            value = [_parse_vector(value, "--x0")]
        target = cfg if key is None else cfg.setdefault(entry, {})
        target[key or entry] = value
    return runner.load_config(cfg)


def cmd_care(args):
    A = matrix_from_json(runner.read_json(args.A, "--A"), "A")
    B = matrix_from_json(runner.read_json(args.B, "--B"), "B")
    n, p = A.shape[0], B.shape[1]
    Q = np.eye(n) if args.Q is None else matrix_from_json(runner.read_json(args.Q, "--Q"), "Q")
    R = np.eye(p) if args.R is None else matrix_from_json(runner.read_json(args.R, "--R"), "R")
    sys_ = LinearSystem(A, B)
    cert = solve_care(sys_, Q, R)
    K = lqr_gain(cert, sys_, R)
    _emit({
        "P": matrix_to_json(cert.P),
        "K": matrix_to_json(K),
        "residual_norm": cert.residual_norm,
        "closed_loop_spectral_abscissa": cert.closed_loop_spectral_abscissa,
    }, args.out)
    return 0


def _problem(args):
    """(run config, (system, Q, R, box, level grid)) of the shared problem flags."""
    spec = args.system
    if spec.endswith(".json"):
        spec = runner.read_json(spec, "system")
    cfg = _run_config(args, spec)
    return cfg, runner.load_problem(cfg)


def _synth_pipeline(args, problem=None):
    cfg, (system, Q, R, box, grid) = problem or _problem(args)
    rec = runner.synthesize_problem(system, Q, R, box, grid, **cfg["sampling"])
    return cfg, rec, Q, R, box, grid


def cmd_synth(args):
    rec = _synth_pipeline(args)[1]
    out = rec.to_dict()
    out["kind"] = rec.law.kind
    _emit(out, args.out)
    return 0


def cmd_invopt(args):
    if args.invopt_action == "cost" and args.x0 is None:
        raise ConfigError("invopt cost needs the initial state --x0")
    cfg, rec, Q, R, box, grid = _synth_pipeline(args)
    costrec = runner.reconstruct_cost(rec.system, rec.V, Q, R, box, grid,
                                      k_max=cfg["inverse_optimal"]["k_max"], **cfg["sampling"])
    if args.invopt_action == "build":
        _emit(costrec.to_dict(), args.out)
        return 0
    # cost: integrate the reconstructed running cost along the optimal law
    x0 = runner.initial_states(cfg, rec.system.n)[0]
    _emit(runner.cost_versus_value(rec, costrec, x0, cfg["integrator"]["horizon"],
                                   cfg["integrator"]["dt"]), args.out)
    return 0


def cmd_backstep(args):
    problem = _problem(args)
    if not isinstance(problem[1][0], StrictFeedbackSystem):
        raise ConfigError("backstep expects a strict-feedback system spec")
    rec = _synth_pipeline(args, problem)[1]
    _emit({
        "K_o": matrix_to_json(rec.K_o),
        "P": matrix_to_json(rec.care.P),
        "r0": rec.r0,
        "partition": rec.law.metadata["partition"],
        "local_gain": matrix_to_json(rec.gain),
        "gain_error": rec.gain_error,
    }, args.out)
    return 0


def cmd_orbital(args):
    sections, _, traces = runner.orbital_stage(_run_config(args, "orbital"))
    if args.trace:
        traces["orbital_trace.csv"](args.trace)
    _emit({"params": sections["params"], **sections["design"], **sections["simulation"],
           "trace": args.trace}, args.out)
    return 0


def cmd_run(args):
    report = runner.run(args.config, out_dir=args.out_dir)
    if args.out_dir is None:
        _emit(report)
    else:
        sys.stdout.write(f"status: {report['status']}\n")
    return 0 if report["status"] == "pass" else 3


def _add_common(p):
    p.add_argument("--seed", type=int, help="sampling seed (CLFSYNTH_SEED wins)")
    p.add_argument("--samples", type=int, help="sample count for certificate checks")
    p.add_argument("--out", default=None, help="write the JSON result here")


def _add_problem(p):
    p.add_argument("system", help="registry name or JSON system file")
    p.add_argument("--Q", default=None, help="JSON file with the state weight")
    p.add_argument("--R", default=None, help="JSON file with the input weight")
    p.add_argument("--box", default=None, help="JSON file with the working box")
    p.add_argument("--levels", default=None, help="comma-separated level grid")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="clfsynth",
        description="Feedback synthesis with matched local behavior and "
                    "reconstructed optimality certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("care", help="solve the algebraic Riccati equation")
    p.add_argument("--A", required=True, help="JSON file with the state matrix")
    p.add_argument("--B", required=True, help="JSON file with the input matrix")
    p.add_argument("--Q", default=None, help="JSON file with the state weight")
    p.add_argument("--R", default=None, help="JSON file with the input weight")
    p.add_argument("--out", default=None, help="write the JSON result here")
    p.set_defaults(fn=cmd_care)

    p = sub.add_parser("synth", help="blend a universal-formula law with the "
                                     "prescribed linear gain")
    _add_problem(p)
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("invopt", help="reconstruct a cost and the feedback that "
                                      "minimizes it (near the origin both it and "
                                      "the blend are the LQ gain)")
    p.add_argument("invopt_action", choices=["build", "cost"])
    _add_problem(p)
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--x0", default=None, help="comma-separated initial state "
                                              "for the cost action")
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_invopt)

    p = sub.add_parser("backstep", help="design and Riccati partition of a "
                                        "strict-feedback cascade")
    _add_problem(p)
    _add_common(p)
    p.set_defaults(fn=cmd_backstep)

    p = sub.add_parser("orbital", help="layered design and simulation for the "
                                       "orbit transfer model")
    p.add_argument("--params", default=None, help="JSON file with p0 and mu")
    p.add_argument("--cost", default=None, help="JSON file with cost weights")
    p.add_argument("--x0", default=None, help="comma-separated initial state "
                                              "(defaults to a perturbed target)")
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--trace", default=None, help="write the trajectory CSV here")
    _add_common(p)
    p.set_defaults(fn=cmd_orbital)

    p = sub.add_parser("run", help="execute a full config and write a report")
    p.add_argument("config", help="JSON run config")
    p.add_argument("--out-dir", default=None, dest="out_dir")
    p.set_defaults(fn=cmd_run)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except CertificateError as e:
        sys.stderr.write(f"certificate failure: {e}\n")
        return 3
    except DivergenceError as e:
        sys.stderr.write(f"divergence: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
