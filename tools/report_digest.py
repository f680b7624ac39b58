"""Print the sha256 of every report.json and trace CSV of nine reference runs.

Runs the four shipped run configs, the two registry problems
strict_feedback_demo and orbital_reduced, two inline structured specs and
one inline polynomial spec (their origin linearizations are read from the
term lists) into a temporary directory and prints one
"<sha256>  <run>/<file>" line per output file. Two checkouts
produce identical reports exactly when their outputs are identical:

    python tools/report_digest.py --against ../parent-checkout

--root picks the checkout whose src/ and configs/ are used (default: the
one holding this script). --against ROOT computes the digests of --root
and of ROOT, each in a fresh process, prints the files whose digests
differ (or that only one checkout writes) and exits 1 if there are any.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
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


def digests(root):
    """{"<run>/<file>": sha256} of one checkout, computed in a fresh process."""
    out = subprocess.run([sys.executable, __file__, "--root", str(root)],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in out.splitlines())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]),
                        help="checkout to run (default: this script's checkout)")
    parser.add_argument("--against", metavar="ROOT",
                        help="compare with this checkout's digests instead of printing them")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    if args.against is not None:
        mine, theirs = digests(root), digests(pathlib.Path(args.against).resolve())
        differ = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
        for name in differ:
            print(f"differs  {name}")
        print(f"{len(differ)} of {len(mine.keys() | theirs.keys())} files differ")
        return 1 if differ else 0
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
