"""Named demo systems and declarative polynomial system descriptions.

Polynomial vector fields are lists of monomial terms; each term is a
coefficient with one exponent per state coordinate. Structured systems add
a "structure" tag selecting the cascade or feedforward form. Every term
list is compiled to one exponent and one coefficient matrix, which give
both the evaluation and the exact origin linearization.
"""

import numpy as np

from .clf import ControlAffineSystem
from .errors import ConfigError
from .orbital import OrbitalParams, orbital_system
from .structured import FeedforwardSystem, StrictFeedbackSystem


def _compile(cells, n_vars, names):
    """Term-list cells as one polynomial map from n_vars coordinates to len(cells) values.

    The terms become an exponent matrix E (terms, n_vars) and a coefficient
    matrix C (terms, cells), so every cell is evaluated at once by
    prod(x ** E, axis=1) @ C. Returns that map and its exact Jacobian at 0
    (cells, n_vars), read from the degree-one rows.
    """
    E, cell_of, coeffs = [], [], []
    for k, (cell, name) in enumerate(zip(cells, names)):
        for t in cell:
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
            E.append(exps)
            cell_of.append(k)
            coeffs.append(coeff)
    E = np.array(E, dtype=float).reshape(-1, n_vars)
    C = np.zeros((len(E), len(cells)))
    C[np.arange(len(E)), np.array(cell_of, dtype=int)] = coeffs
    linear = E.sum(axis=1) == 1

    def fn(x):
        return np.prod(np.asarray(x, dtype=float) ** E, axis=1) @ C

    return fn, C[linear].T @ E[linear]


def system_from_polynomial(spec):
    """ControlAffineSystem from {"n", "p", "drift", "input"} term lists.

    Its origin pair is exact: A is the drift's Jacobian at 0, B the input
    cells at 0.
    """
    try:
        n, p = int(spec["n"]), int(spec["p"])
        drift_rows = spec["drift"]
        input_rows = spec["input"]
    except KeyError as e:
        raise ConfigError(f"polynomial system: missing field {e}") from None
    if len(drift_rows) != n or len(input_rows) != n:
        raise ConfigError("polynomial system: drift and input need one row per state")
    a, A = _compile(drift_rows, n, [f"drift[{i}]" for i in range(n)])
    for i, row in enumerate(input_rows):
        if len(row) != p:
            raise ConfigError(f"input[{i}] needs one entry per input channel")
    b, _ = _compile([cell for row in input_rows for cell in row], n,
                    [f"input[{i}][{j}]" for i in range(n) for j in range(p)])
    return ControlAffineSystem(n, p, a, b, linearization=(A, b(np.zeros(n))))


def system_from_structured(spec):
    """Strict-feedback or feedforward description with exact origin blocks."""
    structure = spec.get("structure")
    try:
        if structure == "strict_feedback":
            n_y = int(spec["n_y"])
            h1, H1 = _compile(spec["h1"], n_y, [f"h1[{i}]" for i in range(len(spec["h1"]))])
            h2, _ = _compile(spec["h2"], n_y, [f"h2[{i}]" for i in range(len(spec["h2"]))])
            if len(spec["h1"]) != n_y or len(spec["h2"]) != n_y:
                raise ConfigError("h1 and h2 need one row per y coordinate")
            f, F = _compile([spec["f"]], n_y + 1, ["f"])
            g, _ = _compile([spec["g"]], n_y + 1, ["g"])
            return StrictFeedbackSystem(
                n_y, h1=h1, h2=h2,
                f=lambda y, x: f(np.append(y, x))[0],
                g=lambda y, x: g(np.append(y, x))[0],
                blocks=(H1, h2(np.zeros(n_y)), F[0, :n_y], F[0, n_y],
                        g(np.zeros(n_y + 1))[0]))
        if structure == "feedforward":
            n_x, p = int(spec["n_x"]), int(spec["p"])
            h, H = _compile([spec["h"]], n_x, ["h"])
            f, F = _compile(spec["f"], n_x, [f"f[{i}]" for i in range(len(spec["f"]))])
            g, _ = _compile([cell for row in spec["g"] for cell in row], n_x,
                            [f"g[{i}][{j}]" for i, row in enumerate(spec["g"])
                             for j in range(len(row))])
            return FeedforwardSystem(
                n_x, p, h=lambda x: h(x)[0], f=f, g=g,
                blocks=(H[0], F, g(np.zeros(n_x)).reshape(n_x, p)))
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
