"""Fixed-step RK4 integration and trajectory recording.

One deliberate integrator: the blended feedback is only piecewise smooth
across its seams, so a fixed-step classical Runge-Kutta scheme with a small
step is preferred over adaptive error control, and every consumer (cost
evaluation and orbital transfers included) shares this single code path.
"""

import numpy as np

from .errors import DivergenceError


def rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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

    Returns (states, a, b, u), one row per recorded state. The first stage
    of every step is the field at the state the step starts from, so its
    (a, b, u) is kept for that state instead of being evaluated again;
    only the final state, which no step leaves, is evaluated once more.
    rk4_step evaluates its four stages in order, so every fourth field
    call is a first stage. stop ends the run after the state that
    triggered it; a run that leaves the finite range or the field's
    domain raises rk4_path's DivergenceError.
    """
    if dt <= 0 or T <= 0:
        raise ValueError("dt and T must be positive")
    n_steps = int(np.ceil(T / dt - 1e-12))
    a = np.empty((n_steps + 1, sys.n))
    b = np.empty((n_steps + 1, sys.n, sys.p))
    u = np.empty((n_steps + 1, sys.p))
    calls = 0

    def f(x):
        nonlocal calls
        ax, bx, ux = sys.a(x), sys.b(x), law.map(x)
        if calls % 4 == 0:
            k = calls // 4
            a[k], b[k], u[k] = ax, bx, ux
        calls += 1
        return ax + bx @ ux

    states = rk4_path(f, np.asarray(x0, dtype=float), dt, n_steps, stop=stop)
    m = len(states)
    xT = states[-1]
    a[m - 1], b[m - 1], u[m - 1] = sys.a(xT), sys.b(xT), law.map(xT)
    return states, a[:m], b[:m], u[:m]


def integrate(sys, law, x0, dt, T, stop=None, annotate=None):
    """Closed-loop RK4 run of x' = a(x) + b(x) law(x) from x0.

    stop is an optional state predicate ending the run after the state
    that triggered it; annotate maps column names to state functions
    evaluated along the recorded path. The inputs are the ones the run's
    own first stages computed (closed_loop_path), so law is evaluated
    4 times per step plus once at the final state. A run that leaves the
    finite range or the field's domain raises rk4_path's DivergenceError.
    """
    states, _, _, inputs = closed_loop_path(sys, law, x0, dt, T, stop=stop)
    times = dt * np.arange(states.shape[0])
    ann = {name: np.array([float(fn(x)) for x in states])
           for name, fn in (annotate or {}).items()}
    return Trajectory(times, states, inputs, ann)
