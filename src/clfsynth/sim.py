"""Fixed-step RK4 integration and trajectory recording.

One deliberate integrator: the blended feedback is only piecewise smooth
across its seams, so a fixed-step classical Runge-Kutta scheme with a small
step is preferred over adaptive error control, and every consumer (cost
evaluation and orbital transfers included) shares this single code path.
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

    Raises ValueError unless dt and T are both positive: closed_loop_path
    and inverse_opt.evaluate_cost count their steps here.
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


def closed_loop_path(sys, law, x0, dt, T, stop=None):
    """RK4 states of x' = a(x) + b(x) law(x) from x0, with a, b and u at each.

    Returns (states, a, b, u), one row per recorded state. Each stage
    evaluates a and b once. When law is the optimal feedback of a cost on
    this very plant (law.metadata["cost"], whose sys is sys), u is that
    cost's stage at the stage's own b(x), with the bits law.map would give,
    and law.map is never called; any other law is called once per stage.
    Every fourth field call (rk4_step's first stage) is the field at the
    state its step starts from, so its (a, b, u) is kept for that state;
    only the final state is evaluated once more. stop ends the run after
    the state that triggered it; a run that leaves the finite range or the
    field's domain raises rk4_path's DivergenceError. dt and T must be
    positive (step_count).
    """
    n_steps = step_count(T, dt)
    a = np.empty((n_steps + 1, sys.n))
    b = np.empty((n_steps + 1, sys.n, sys.p))
    u = np.empty((n_steps + 1, sys.p))
    calls = 0
    cost = law.metadata.get("cost")
    if cost is not None and cost.sys is sys:
        stage, gradient = cost.stage, cost.V.gradient

        def feedback(x, bx):
            return stage(x, gradient(x), bx)[3]
    else:
        def feedback(x, bx):
            return law.map(x)

    def f(x):
        nonlocal calls
        ax, bx = sys.a(x), sys.b(x)
        ux = feedback(x, bx)
        if calls % 4 == 0:
            k = calls // 4
            a[k], b[k], u[k] = ax, bx, ux
        calls += 1
        return ax + bx @ ux

    states = rk4_path(f, np.asarray(x0, dtype=float), dt, n_steps, stop=stop)
    m = len(states)
    xT = states[-1]
    aT, bT = sys.a(xT), sys.b(xT)
    a[m - 1], b[m - 1], u[m - 1] = aT, bT, feedback(xT, bT)
    return states, a[:m], b[:m], u[:m]


def integrate(sys, law, x0, dt, T, stop=None, annotate=None):
    """Closed-loop RK4 run of x' = a(x) + b(x) law(x) from x0.

    stop is an optional state predicate ending the run after the state
    that triggered it; annotate maps column names to state functions that
    take rows (clf.check_rows), each called once on the recorded states.
    The inputs are the ones the run's own first stages computed
    (closed_loop_path), so the feedback is evaluated 4 times per step plus
    once at the final state (through its cost's stage for a cost's own
    optimal feedback). A run that leaves the finite range or the field's
    domain raises rk4_path's DivergenceError.
    """
    annotate = annotate or {}
    check_rows(sys.n, *annotate.values())
    states, _, _, inputs = closed_loop_path(sys, law, x0, dt, T, stop=stop)
    times = dt * np.arange(states.shape[0])
    ann = {name: np.asarray(fn(states), dtype=float).reshape(len(states))
           for name, fn in annotate.items()}
    return Trajectory(times, states, inputs, ann)
