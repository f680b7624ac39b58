"""Time closed-loop runs or designs of two checkouts interleaved in one process.

    python tools/ab_time.py ROOT_A ROOT_B [--rounds 5] [--seed 3] [--design]

Copies each checkout's src/clfsynth into a temporary directory under its
own package name (clfsynth_a, clfsynth_b), imports both and builds the
designs of the benchmark's trajectories workload in each: four runner
plants at 200 samples, k_max 2, seed 0, and the unit-parameter orbital
controller at 300 samples, k_max 4. Each round then runs the same
operations on both sides, one after the other, alternating which side
goes first: per plant the optimal cost run, the cost run of 0.95 times
the optimal feedback and the blended-law integrate run, and seven
orbital transfers (dt 0.04, T 40) from seeded offsets. It prints, per
kind, the median time of each side, the B/A ratio of the medians and
whether B's outputs equal A's bit for bit (states and inputs of a run,
value and final state of a cost run).

With --design it times the benchmark's design workload instead: each
round builds every one of its five plants (scalar_linear, scalar_cubic,
strict_feedback_demo, orbital_reduced and the Duffing polynomial plant)
at each Halton seed 0-6 with runner.synthesize_problem and
runner.reconstruct_cost (500 samples, k_max 4), on both sides in
alternating order. It prints, per plant, the median time of each side,
the B/A ratio of the medians and whether B's blend radius r0, base level,
ladder, smallest sampled state weight q_min and seam values equal A's
bit for bit at every seed.

Separate timed runs on a small machine drift by much more than a few
per cent, so both sides are timed under the same conditions here. This
is a development aid, not the benchmark.
"""

import argparse
import importlib
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
import warnings

import numpy as np

# name, box half-widths, level grid (start, stop, num): the trajectories
# workload's runner plants
PLANTS = {
    "scalar_linear": ([2.0], (0.05, 4.0, 28)),
    "scalar_cubic": ([1.5], (0.05, 2.0, 28)),
    "strict_feedback_demo": ([1.5, 1.5], (0.02, 1.5, 28)),
    "orbital_reduced": ([0.5, 0.5], (0.01, 1.0, 28)),
}
# x1' = x2, x2' = x1 - x1^3/2 + u, the design workload's polynomial plant
DUFFING = {"n": 2, "p": 1,
           "drift": [[{"coeff": 1.0, "exponents": [0, 1]}],
                     [{"coeff": 1.0, "exponents": [1, 0]},
                      {"coeff": -0.5, "exponents": [3, 0]}]],
           "input": [[[]], [[{"coeff": 1.0, "exponents": [0, 0]}]]]}
# name, load_system spec, box half-widths, level grid: the design workload's plants
DESIGN_PLANTS = {
    "scalar_linear": ("scalar_linear", [2.0], (0.05, 4.0, 28)),
    "scalar_cubic": ("scalar_cubic", [1.5], (0.05, 2.0, 28)),
    "strict_feedback_demo": ("strict_feedback_demo", [1.5, 1.5], (0.02, 1.5, 28)),
    "orbital_reduced": ("orbital_reduced", [0.5, 0.5], (0.01, 1.0, 28)),
    "duffing_json": (DUFFING, [1.0, 1.0], (0.02, 1.5, 28)),
}
DESIGN_SEEDS = range(7)
DT, HORIZON = 0.02, 40.0
ORBITAL_DT, ORBITAL_T, TRANSFERS = 0.04, 40.0, 7
ORBITAL_HALF = np.array([0.1, 0.05, 0.05, 0.1, 0.05, 0.05])


def load(root, name, tmp):
    """Import root's src/clfsynth as the package name."""
    shutil.copytree(pathlib.Path(root) / "src" / "clfsynth", pathlib.Path(tmp) / name)
    return importlib.import_module(name)


class Side:
    """One checkout's designs and the operations run on them."""

    def __init__(self, pkg):
        runner = importlib.import_module(pkg.__name__ + ".runner")
        self.sampling = importlib.import_module(pkg.__name__ + ".sampling")
        self.synthesis = importlib.import_module(pkg.__name__ + ".synthesis")
        self.inverse_opt = importlib.import_module(pkg.__name__ + ".inverse_opt")
        self.sim = importlib.import_module(pkg.__name__ + ".sim")
        self.orbital = importlib.import_module(pkg.__name__ + ".orbital")
        systems = importlib.import_module(pkg.__name__ + ".systems")
        self.designs = {}
        for name, (half, grid) in PLANTS.items():
            n = len(half)
            box = self.sampling.Box.centered(half)
            grid = list(np.geomspace(*grid))
            synth = runner.synthesize_problem(systems.load_system(name), np.eye(n),
                                              np.eye(1), box, grid, n_samples=200, seed=0)
            costrec = runner.reconstruct_cost(synth.full, synth.V, np.eye(n), np.eye(1),
                                              box, grid, k_max=2, n_samples=200, seed=0)
            self.designs[name] = (synth, costrec)
        self.params = self.orbital.OrbitalParams()
        cfg = self.orbital.OrbitalCostConfig.build(self.params)
        self.controller = self.orbital.build_orbital_controller(
            self.params, cfg, n_samples=300, k_max=4, seed=0)

    def ops(self, starts, offsets):
        """[(kind, thunk)] of one round; the same kinds in the same order on each side."""
        out = []
        for name, x0 in starts:
            synth, costrec = self.designs[name]
            opt = costrec.law
            pert = self.synthesis.FeedbackLaw("perturbed", lambda x, o=opt: 0.95 * o.map(x),
                                              opt.n, opt.p)
            v0 = synth.V.value(x0)
            for kind, law in (("cost", opt), ("cost_x0.95", pert)):
                out.append((f"{kind}/{name}", lambda law=law, s=synth, c=costrec, x0=x0:
                            self.inverse_opt.evaluate_cost(s.full, c.cost, law, x0,
                                                           horizon=HORIZON, dt=DT, V=s.V)))
            out.append((f"integrate/{name}", lambda s=synth, x0=x0, v0=v0:
                        self.sim.integrate(s.full, s.law, x0, dt=DT, T=HORIZON,
                                           stop=lambda x: s.V.value(x) <= 1e-8 * v0,
                                           annotate={"V": s.V.value})))
        V, _, law = self.controller
        star = self.orbital.equilibrium(self.params)
        for off in offsets:
            out.append(("orbital_transfer", lambda s0=star + off:
                        self.orbital.simulate_orbital(self.params, law, s0, dt=ORBITAL_DT,
                                                      T=ORBITAL_T, V=V)))
        return out


class DesignSide:
    """One checkout's design operations, one per plant and Halton seed."""

    def __init__(self, pkg):
        self.runner = importlib.import_module(pkg.__name__ + ".runner")
        sampling = importlib.import_module(pkg.__name__ + ".sampling")
        systems = importlib.import_module(pkg.__name__ + ".systems")
        self.plants = {name: (systems.load_system(spec), sampling.Box.centered(half),
                              list(np.geomspace(*grid)), len(half))
                       for name, (spec, half, grid) in DESIGN_PLANTS.items()}

    def ops(self):
        out = []
        for name, (system, box, grid, n) in self.plants.items():
            for seed in DESIGN_SEEDS:
                out.append((f"design/{name}", lambda system=system, box=box, grid=grid, n=n,
                            seed=seed: self.design(system, box, grid, n, seed)))
        return out

    def design(self, system, box, grid, n, seed):
        synth = self.runner.synthesize_problem(system, np.eye(n), np.eye(1), box, grid,
                                               n_samples=500, seed=seed)
        costrec = self.runner.reconstruct_cost(synth.full, synth.V, np.eye(n), np.eye(1), box,
                                               grid, k_max=4, n_samples=500, seed=seed)
        return synth, costrec


def fingerprint(out):
    """The bytes that must agree between the sides."""
    if hasattr(out, "states"):
        return out.states.tobytes() + out.inputs.tobytes()
    if isinstance(out, tuple):  # a design: r0, base level, ladder, q_min, seams
        synth, costrec = out
        return np.array([synth.r0, costrec.r0, *costrec.cost.scaling.ladder, costrec.q_min,
                         *(synth.seam[k] for k in sorted(synth.seam))]).tobytes()
    return np.float64(out.value).tobytes() + out.x_final.tobytes()


def initial_states(side):
    """[(plant, x0)]: one seeded state per plant where side's V exceeds 1e-4."""
    starts = []
    for i, (name, (half, _)) in enumerate(PLANTS.items()):
        rng = np.random.default_rng([i])
        V = side.designs[name][0].V
        while True:
            x0 = rng.uniform(-0.9, 0.9, len(half)) * np.array(half)
            if V.value(x0) > 1e-4:
                starts.append((name, x0))
                break
    return starts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a", help="checkout A (e.g. the parent)")
    parser.add_argument("root_b", help="checkout B (e.g. the change)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3, help="seed of the transfer offsets")
    parser.add_argument("--design", action="store_true",
                        help="time the design workload's designs instead of closed-loop runs")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        side_type = DesignSide if args.design else Side
        sides = [side_type(load(args.root_a, "clfsynth_a", tmp)),
                 side_type(load(args.root_b, "clfsynth_b", tmp))]
        starts = [] if args.design else initial_states(sides[0])
        times = {}
        equal = {}
        for r in range(args.rounds):
            rng = np.random.default_rng([args.seed, r])
            offsets = [rng.uniform(-1.0, 1.0, 6) * ORBITAL_HALF for _ in range(TRANSFERS)]
            rounds = [side.ops() if args.design else side.ops(starts, offsets)
                      for side in sides]
            for j, (kind, _) in enumerate(rounds[0]):
                outs = [None, None]
                for s in ((0, 1) if (r + j) % 2 == 0 else (1, 0)):
                    t0 = time.perf_counter()
                    outs[s] = rounds[s][j][1]()
                    times.setdefault(kind, ([], []))[s].append(time.perf_counter() - t0)
                same = fingerprint(outs[0]) == fingerprint(outs[1])
                equal[kind] = equal.get(kind, True) and same
    print(f"{'kind':34s} {'A median s':>11s} {'B median s':>11s} {'B/A':>6s}  bit-equal")
    for kind, (ta, tb) in times.items():
        ma, mb = statistics.median(ta), statistics.median(tb)
        print(f"{kind:34s} {ma:11.5f} {mb:11.5f} {mb / ma:6.3f}  {equal[kind]}")
    return 0 if all(equal.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
