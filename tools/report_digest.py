"""Print the sha256 of every report.json and trace CSV of nine reference runs.

Runs the four shipped run configs, the two registry problems
strict_feedback_demo and orbital_reduced, two inline structured specs and
one inline polynomial spec (their origin linearizations are read from the
term lists) into a temporary directory and prints one
"<sha256>  <run>/<file>" line per output file. Two checkouts
produce identical reports exactly when their outputs are identical:

    python tools/report_digest.py > after.txt
    python tools/report_digest.py --root ../parent-checkout > before.txt
    diff before.txt after.txt

--root picks the checkout whose src/ and configs/ are used (default: the
one holding this script).
"""

import argparse
import hashlib
import os
import pathlib
import sys
import tempfile
import warnings

RUNS = [
    ("run_scalar_linear", "configs/run_scalar_linear.json"),
    ("run_scalar_cubic", "configs/run_scalar_cubic.json"),
    ("run_orbital", "configs/run_orbital.json"),
    ("run_orbital_geo", "configs/run_orbital_geo.json"),
    ("strict_feedback_demo", {"system": "strict_feedback_demo"}),
    ("orbital_reduced", {"system": "orbital_reduced"}),
    # y' = x, x' = x^2 + u
    ("feedforward_inline", {
        "system": {"structure": "feedforward", "n_x": 1, "p": 1,
                   "h": [{"coeff": 1.0, "exponents": [1]}],
                   "f": [[{"coeff": 1.0, "exponents": [2]}]],
                   "g": [[[{"coeff": 1.0, "exponents": [0]}]]]},
        "box": {"lows": [-1.0, -1.0], "highs": [1.0, 1.0]},
        "level_grid": {"start": 0.02, "stop": 1.5, "num": 28}}),
    # y' = -y^3 + x, x' = x y^2 + u
    ("strict_feedback_inline", {
        "system": {"structure": "strict_feedback", "n_y": 1,
                   "h1": [[{"coeff": -1.0, "exponents": [3]}]],
                   "h2": [[{"coeff": 1.0, "exponents": [0]}]],
                   "f": [{"coeff": 1.0, "exponents": [2, 1]}],
                   "g": [{"coeff": 1.0, "exponents": [0, 0]}]},
        "box": {"lows": [-1.5, -1.5], "highs": [1.5, 1.5]},
        "level_grid": {"start": 0.02, "stop": 1.5, "num": 28}}),
    # x1' = x2, x2' = x1 - x1^3/2 + u
    ("duffing_inline", {
        "system": {"n": 2, "p": 1,
                   "drift": [[{"coeff": 1.0, "exponents": [0, 1]}],
                             [{"coeff": 1.0, "exponents": [1, 0]},
                              {"coeff": -0.5, "exponents": [3, 0]}]],
                   "input": [[[]], [[{"coeff": 1.0, "exponents": [0, 0]}]]]},
        "box": {"lows": [-1.0, -1.0], "highs": [1.0, 1.0]},
        "level_grid": {"start": 0.02, "stop": 1.5, "num": 28}}),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                        help="checkout to run (default: this script's checkout)")
    root = pathlib.Path(parser.parse_args(argv).root).resolve()
    sys.path.insert(0, str(root / "src"))
    from clfsynth.runner import run

    with tempfile.TemporaryDirectory() as tmp:
        for name, config in RUNS:
            if isinstance(config, str):
                config = str(root / config)
            out = os.path.join(tmp, name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run(config, out_dir=out)
            for fname in sorted(os.listdir(out)):
                with open(os.path.join(out, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {name}/{fname}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
