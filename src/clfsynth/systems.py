"""Named demo systems and declarative polynomial system descriptions.

Polynomial vector fields are lists of monomial terms; each term is a
coefficient with one exponent per state coordinate. Structured systems add
a "structure" tag selecting the cascade or feedforward form.
"""

import numpy as np

from .clf import ControlAffineSystem
from .errors import ConfigError
from .orbital import OrbitalParams, orbital_system
from .structured import FeedforwardSystem, StrictFeedbackSystem


def _term_fn(terms, n_vars, name):
    parsed = []
    for t in terms:
        try:
            coeff = float(t["coeff"])
            exps = [int(e) for e in t["exponents"]]
        except (KeyError, TypeError) as e:
            raise ConfigError(f"{name}: malformed term {t!r} ({e})") from None
        if len(exps) != n_vars:
            raise ConfigError(
                f"{name}: term has {len(exps)} exponents, expected {n_vars}")
        if any(e < 0 for e in exps):
            raise ConfigError(f"{name}: exponents must be nonnegative")
        parsed.append((coeff, np.array(exps)))

    def fn(x):
        x = np.asarray(x, dtype=float)
        return float(sum(c * np.prod(x ** e) for c, e in parsed))

    return fn


def system_from_polynomial(spec):
    """ControlAffineSystem from {"n", "p", "drift", "input"} term lists."""
    try:
        n, p = int(spec["n"]), int(spec["p"])
        drift_rows = spec["drift"]
        input_rows = spec["input"]
    except KeyError as e:
        raise ConfigError(f"polynomial system: missing field {e}") from None
    if len(drift_rows) != n or len(input_rows) != n:
        raise ConfigError("polynomial system: drift and input need one row per state")
    drift_fns = [_term_fn(row, n, f"drift[{i}]") for i, row in enumerate(drift_rows)]
    input_fns = []
    for i, row in enumerate(input_rows):
        if len(row) != p:
            raise ConfigError(f"input[{i}] needs one entry per input channel")
        input_fns.append([_term_fn(cell, n, f"input[{i}][{j}]")
                          for j, cell in enumerate(row)])

    # monomial structure gives the origin linearization exactly: degree-one
    # drift terms fill A, constant input terms fill B
    A = np.zeros((n, n))
    for i, row in enumerate(drift_rows):
        for t in row:
            exps = np.array([int(e) for e in t["exponents"]])
            if exps.sum() == 1:
                A[i, int(np.argmax(exps))] += float(t["coeff"])
    B = np.zeros((n, p))
    for i, row in enumerate(input_rows):
        for j, cell in enumerate(row):
            for t in cell:
                if sum(int(e) for e in t["exponents"]) == 0:
                    B[i, j] += float(t["coeff"])

    def a(x):
        return np.array([f(x) for f in drift_fns])

    def b(x):
        return np.array([[f(x) for f in row] for row in input_fns])

    return ControlAffineSystem(n, p, a, b, linearization=(A, B))


def system_from_structured(spec):
    structure = spec.get("structure")
    try:
        if structure == "strict_feedback":
            n_y = int(spec["n_y"])
            h1_fns = [_term_fn(row, n_y, f"h1[{i}]") for i, row in enumerate(spec["h1"])]
            h2_fns = [_term_fn(row, n_y, f"h2[{i}]") for i, row in enumerate(spec["h2"])]
            if len(h1_fns) != n_y or len(h2_fns) != n_y:
                raise ConfigError("h1 and h2 need one row per y coordinate")
            f_fn = _term_fn(spec["f"], n_y + 1, "f")
            g_fn = _term_fn(spec["g"], n_y + 1, "g")
            return StrictFeedbackSystem(
                n_y,
                h1=lambda y: np.array([f(y) for f in h1_fns]),
                h2=lambda y: np.array([f(y) for f in h2_fns]),
                f=lambda y, x: f_fn(np.append(y, x)),
                g=lambda y, x: g_fn(np.append(y, x)))
        if structure == "feedforward":
            n_x, p = int(spec["n_x"]), int(spec["p"])
            h_fn = _term_fn(spec["h"], n_x, "h")
            f_fns = [_term_fn(row, n_x, f"f[{i}]") for i, row in enumerate(spec["f"])]
            g_fns = [[_term_fn(cell, n_x, f"g[{i}][{j}]") for j, cell in enumerate(row)]
                     for i, row in enumerate(spec["g"])]
            return FeedforwardSystem(
                n_x, p,
                h=h_fn,
                f=lambda x: np.array([f(x) for f in f_fns]),
                g=lambda x: np.array([[f(x) for f in row] for row in g_fns]))
    except KeyError as e:
        raise ConfigError(f"{structure} system: missing field {e}") from None
    raise ConfigError(f"unknown structure tag {structure!r}")


def _scalar_linear():
    return ControlAffineSystem(1, 1, a=lambda x: np.array([x[0]]),
                               b=lambda x: np.array([[1.0]]),
                               linearization=(np.array([[1.0]]), np.array([[1.0]])))


def _scalar_cubic():
    return ControlAffineSystem(1, 1, a=lambda x: np.array([x[0] ** 3]),
                               b=lambda x: np.array([[1.0]]),
                               linearization=(np.array([[0.0]]), np.array([[1.0]])))


def _strict_feedback_demo():
    return StrictFeedbackSystem(
        1,
        h1=lambda y: np.array([-y[0] ** 3]),
        h2=lambda y: np.array([1.0]),
        f=lambda y, x: x * y[0] ** 2,
        g=lambda y, x: 1.0,
        blocks=([[0.0]], [1.0], [0.0], 0.0, 1.0))


def _orbital_reduced(params=None):
    """In-plane shape pair as a cascade: radial thrust drives chi3."""
    params = params or OrbitalParams()
    eta, nu = params.eta, params.nu
    return StrictFeedbackSystem(
        1,
        h1=lambda y: np.array([0.0]),
        h2=lambda y: np.array([-eta * (1.0 + y[0]) ** 2]),
        f=lambda y, x: eta * (1.0 + y[0]) ** 2 * y[0],
        g=lambda y, x: nu,
        blocks=([[0.0]], [-eta], [eta], 0.0, nu))


REGISTRY = {
    "scalar_linear": _scalar_linear,
    "scalar_cubic": _scalar_cubic,
    "strict_feedback_demo": _strict_feedback_demo,
    "orbital_reduced": _orbital_reduced,
    "orbital": lambda: orbital_system(OrbitalParams()),
}


def load_system(spec):
    """Resolve a registry name or a declarative dict into a system object."""
    if isinstance(spec, str):
        if spec not in REGISTRY:
            raise ConfigError(
                f"unknown system {spec!r}; registry has {sorted(REGISTRY)}")
        return REGISTRY[spec]()
    if isinstance(spec, dict):
        if "structure" in spec:
            return system_from_structured(spec)
        return system_from_polynomial(spec)
    raise ConfigError("system must be a registry name or a description dict")
