"""Fixed-step RK4 integration and trajectory recording.

One deliberate integrator: the blended feedback is only piecewise smooth
across its seams, so a fixed-step classical Runge-Kutta scheme with a small
step is preferred over adaptive error control, and every consumer (cost
evaluation and orbital transfers included) shares this single code path.
integrate is the one closed-loop driver (orbital transfers too), and a
trajectory's inputs and annotations are one call on its recorded states.
"""

import numpy as np

from .clf import check_rows
from .errors import DivergenceError


def rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_count(T, dt):
    """Number of RK4 steps of size dt that cover the horizon T.

    Raises ValueError unless dt and T are both positive: integrate and
    inverse_opt.evaluate_cost count their steps here.
    """
    if not (dt > 0 and T > 0):
        raise ValueError(f"dt and T must be positive (integration step dt = {dt!r}, "
                         f"horizon T = {T!r})")
    return int(np.ceil(T / dt - 1e-12))


def rk4_path(f, x0, dt, n_steps, stop=None):
    """States of n_steps RK4 steps from x0; stop(x) truncates after recording.

    The one place where a failed state ends a run: a step whose result is
    not finite, or whose stages meet a state where f raises ValueError
    (outside the field's domain), raises DivergenceError with the last
    recorded state and its time.
    """
    x = np.asarray(x0, dtype=float).copy()
    states = [x.copy()]
    if stop is not None and stop(x):
        return np.array(states)
    for k in range(n_steps):
        try:
            x = rk4_step(f, x, dt)
        except ValueError as e:
            raise DivergenceError(
                f"field undefined during step {k + 1}: {e}",
                last_state=states[-1], last_time=k * dt) from None
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"state became non-finite at step {k + 1}",
                last_state=states[-1], last_time=k * dt)
        states.append(x.copy())
        if stop is not None and stop(x):
            break
    return np.array(states)


class Trajectory:
    """Uniformly sampled closed-loop run with inputs and annotations."""

    def __init__(self, times, states, inputs, annotations=None):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.inputs = np.asarray(inputs, dtype=float)
        self.annotations = {k: np.asarray(v, dtype=float)
                            for k, v in (annotations or {}).items()}
        m = self.times.size
        if self.states.shape[0] != m or self.inputs.shape[0] != m:
            raise ValueError("times, states and inputs must have equal length")
        if m > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        for k, v in self.annotations.items():
            if v.shape[0] != m:
                raise ValueError(f"annotation {k!r} has wrong length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.states))
                and np.all(np.isfinite(self.inputs))):
            raise ValueError("trajectory values must be finite")

    def __len__(self):
        return self.times.size

    def to_csv(self, path, state_names=None, input_names=None):
        """Write t, states, inputs, annotations; repr floats round-trip exactly."""
        n = self.states.shape[1]
        p = self.inputs.shape[1]
        state_names = state_names or [f"x{i + 1}" for i in range(n)]
        input_names = input_names or [f"u{i + 1}" for i in range(p)]
        header = ["t"] + list(state_names) + list(input_names) + list(self.annotations)
        cols = [self.times] + [self.states[:, i] for i in range(n)] \
            + [self.inputs[:, i] for i in range(p)] \
            + [self.annotations[k] for k in self.annotations]
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*cols):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def integrate(sys, law, x0, dt, T, stop=None, annotate=None):
    """Closed-loop RK4 run of x' = a(x) + b(x) law(x) from x0: the one driver.

    Each stage evaluates a and b once. For the optimal feedback of a cost
    on this very plant (law.metadata["cost"], whose sys is sys) u is the
    cost's stage at the stage's own b(x), law.map's bits without calling
    it; any other law is called once per stage. stop ends the run after
    the state that triggered it; annotate maps column names to functions
    of rows (clf.check_rows). The inputs (law.map) and each annotation
    are one call on the recorded states. A run that leaves the finite
    range or the field's domain raises rk4_path's DivergenceError; dt and
    T must be positive (step_count).
    """
    annotate = annotate or {}
    check_rows(sys.n, *annotate.values())
    n_steps = step_count(T, dt)
    cost = law.metadata.get("cost")
    if cost is not None and cost.sys is sys:
        stage, gradient = cost.stage, cost.V.gradient

        def f(x):
            b = sys.b(x)
            return sys.a(x) + b @ stage(x, gradient(x), b)[3]
    else:
        def f(x):
            return sys.a(x) + sys.b(x) @ law.map(x)

    states = rk4_path(f, x0, dt, n_steps, stop=stop)
    ann = {name: np.asarray(fn(states), dtype=float).reshape(len(states))
           for name, fn in annotate.items()}
    return Trajectory(dt * np.arange(len(states)), states, law.map(states), ann)
