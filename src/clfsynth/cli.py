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
from .orbital import ORBITAL_INPUT_NAMES, ORBITAL_STATE_NAMES, OrbitalCostConfig, \
    OrbitalParams
from .serialize import matrix_from_json, matrix_to_json
from .structured import StrictFeedbackSystem
from . import runner


def _load_json(path, label):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{label} file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{label} file is not valid JSON: {e}") from None


def _emit(obj, out=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_vector(text, n, label):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"{label} must be comma-separated numbers") from None
    if len(vals) != n:
        raise ConfigError(f"{label} must have {n} entries, got {len(vals)}")
    return np.asarray(vals)


def cmd_care(args):
    A = matrix_from_json(_load_json(args.A, "A"), "A")
    B = matrix_from_json(_load_json(args.B, "B"), "B")
    n, p = A.shape[0], B.shape[1]
    Q = np.eye(n) if args.Q is None else matrix_from_json(_load_json(args.Q, "Q"), "Q")
    R = np.eye(p) if args.R is None else matrix_from_json(_load_json(args.R, "R"), "R")
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
    """(system, Q, R, box, level grid) from the shared problem flags."""
    spec = args.system
    if spec.endswith(".json"):
        spec = _load_json(spec, "system")
    cfg = {"system": spec, "prescription": {
        "Q": None if args.Q is None else _load_json(args.Q, "Q"),
        "R": None if args.R is None else _load_json(args.R, "R")}}
    if args.box is not None:
        cfg["box"] = _load_json(args.box, "box")
    if args.levels is not None:
        cfg["level_grid"] = [float(v) for v in args.levels.split(",")]
    return runner.load_problem(runner.load_config(cfg))


def _synth_pipeline(args, problem=None):
    system, Q, R, box, grid = problem or _problem(args)
    rec = runner.synthesize_problem(system, Q, R, box, grid,
                                    n_samples=args.samples, seed=args.seed)
    return rec, Q, R, box, grid


def cmd_synth(args):
    rec = _synth_pipeline(args)[0]
    out = rec.to_dict()
    out["kind"] = rec.law.kind
    _emit(out, args.out)
    return 0


def cmd_invopt(args):
    rec, Q, R, box, grid = _synth_pipeline(args)
    costrec = runner.reconstruct_cost(rec.full, rec.V, Q, R, box, grid,
                                      k_max=args.k_max,
                                      n_samples=args.samples, seed=args.seed)
    if args.invopt_action == "build":
        _emit(costrec.to_dict(), args.out)
        return 0
    if args.invopt_action == "verify-hjb":
        ok = costrec.hjb_max <= args.tol
        _emit({"hjb_max_abs": costrec.hjb_max, "tolerance": args.tol,
               "passed": ok, "checked": costrec.checked}, args.out)
        if not ok:
            raise CertificateError(
                f"largest stationarity residual {costrec.hjb_max:.3e} exceeds "
                f"{args.tol:.1e}")
        return 0
    # cost: integrate the reconstructed running cost along the optimal law
    x0 = _parse_vector(args.x0, rec.full.n, "--x0")
    _emit(runner.cost_versus_value(rec, costrec, x0, args.T, args.dt), args.out)
    return 0


def cmd_backstep(args):
    problem = _problem(args)
    if not isinstance(problem[0], StrictFeedbackSystem):
        raise ConfigError("backstep expects a strict-feedback system spec")
    rec = _synth_pipeline(args, problem)[0]
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
    params = OrbitalParams.from_dict(_load_json(args.params, "params")
                                     if args.params else {})
    cost_cfg = OrbitalCostConfig.from_dict(params,
                                           _load_json(args.cost, "cost")
                                           if args.cost else {})
    s0 = None if args.x0 is None else _parse_vector(args.x0, 6, "--x0")
    law, traj, final_err = runner.orbital_transfer(
        params, cost_cfg, dt=args.dt, T=args.T, s0=s0, n_samples=args.samples,
        seed=args.seed)
    if args.trace:
        traj.to_csv(args.trace, state_names=ORBITAL_STATE_NAMES,
                    input_names=ORBITAL_INPUT_NAMES)
    _emit({
        "params": params.to_dict(),
        "r0": law.metadata["r0"],
        "ladder": law.metadata["ladder"],
        "final_error": final_err,
        "final_value": float(traj.annotations["V"][-1]),
        "steps": len(traj) - 1,
        "trace": args.trace,
    }, args.out)
    return 0


def cmd_run(args):
    report = runner.run(args.config, out_dir=args.out_dir)
    if args.out_dir is None:
        _emit(report)
    else:
        sys.stdout.write(f"status: {report['status']}\n")
    return 0 if report["status"] == "pass" else 3


def _add_common(p, samples=2000):
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--samples", type=int, default=samples,
                   help="sample count for certificate checks")
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
    _add_common(p)
    p.set_defaults(fn=cmd_care)

    p = sub.add_parser("synth", help="blend a universal-formula law with the "
                                     "prescribed linear gain")
    _add_problem(p)
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("invopt", help="reconstruct the cost the blended law "
                                      "minimizes")
    p.add_argument("invopt_action", choices=["build", "verify-hjb", "cost"])
    _add_problem(p)
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="stationarity residual tolerance for verify-hjb")
    p.add_argument("--x0", default=None, help="comma-separated initial state "
                                              "for the cost action")
    p.add_argument("--dt", type=float, default=0.005)
    p.add_argument("--T", type=float, default=40.0)
    _add_common(p)
    p.set_defaults(fn=cmd_invopt)

    p = sub.add_parser("backstep", help="composite design for a strict-feedback "
                                        "cascade")
    _add_problem(p)
    _add_common(p)
    p.set_defaults(fn=cmd_backstep)

    p = sub.add_parser("orbital", help="layered design and simulation for the "
                                       "orbit transfer model")
    p.add_argument("--params", default=None, help="JSON file with p0 and mu")
    p.add_argument("--cost", default=None, help="JSON file with cost weights")
    p.add_argument("--x0", default=None, help="comma-separated initial state "
                                              "(defaults to a perturbed target)")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--T", type=float, default=60.0)
    p.add_argument("--trace", default=None, help="write the trajectory CSV here")
    _add_common(p, samples=1500)
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
