"""Deterministic low-discrepancy sampling of boxes and sublevel sets.

All sampled certificates in this package draw scrambled Halton points with
a fixed seed, so identical inputs reproduce identical reports.

Unit-cube draws are memoized per (dimension, seed): a design draws the same
sequence several times (the synthesis sweep and the seam pairs at one seed,
the cost's fit sweep at it again), and a process that builds several
designs at the same seeds draws them all again. A request is served as a
prefix of the longest draw held, which has the same bits as a fresh scipy
engine asked for that many points; a longer request rebuilds the draw.
The memo keeps the HALTON_MEMO_SIZE most recently used sequences, each
read-only; every call still returns a new array.
"""

import threading

import numpy as np
from scipy.stats import qmc

from .errors import ConfigError


class Box:
    """Axis-aligned box given by per-coordinate lower and upper bounds."""

    def __init__(self, lows, highs):
        self.lows = np.atleast_1d(np.asarray(lows, dtype=float))
        self.highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("lows and highs must be 1-d arrays of equal length")
        if np.any(self.lows >= self.highs):
            raise ValueError("each low bound must be strictly below its high bound")
        self.dim = self.lows.size

    @classmethod
    def centered(cls, half_widths):
        h = np.atleast_1d(np.asarray(half_widths, dtype=float))
        return cls(-h, h)

    def to_dict(self):
        return {"lows": self.lows.tolist(), "highs": self.highs.tolist()}

    @classmethod
    def from_dict(cls, d):
        try:
            lows, highs = d["lows"], d["highs"]
        except KeyError as e:
            raise ConfigError(f"box needs 'lows' and 'highs'; missing {e}") from None
        return cls(lows, highs)


# unit-cube draws by (dimension, seed), least recently used first; each is
# read-only and the longest prefix of its sequence asked for so far. A design
# at seed s draws seeds s, s + 1 and s + 17, so a sweep over seven seeds
# cycles through 15 draws per dimension: 64 hold such a sweep in each of four
# dimensions. A bound below a sweep's cycle evicts every draw before its reuse.
HALTON_MEMO_SIZE = 64
_halton_memo = {}
_halton_lock = threading.Lock()


def sample_box(box, n, seed=0):
    """The first n scrambled Halton points of a seed inside the box, shape (n, dim).

    n must be a positive count and seed a non-negative integer (ValueError
    otherwise). Each call returns a new array.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"sampling seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    with _halton_lock:
        u = _halton_memo.pop((box.dim, seed), None)
        if u is None or len(u) < n:
            u = qmc.Halton(d=box.dim, scramble=True, seed=seed).random(n)
            u.flags.writeable = False
        _halton_memo[box.dim, seed] = u
        if len(_halton_memo) > HALTON_MEMO_SIZE:
            del _halton_memo[next(iter(_halton_memo))]
    return box.lows + u[:n] * (box.highs - box.lows)


def quadratic_level_box(P, level):
    """Bounding box of the ellipsoid {x' P x <= level}, widened by 1.25.

    The exact half-width along coordinate i is sqrt(level * (P^-1)_ii), and
    the ellipsoid touches that box only at its extreme points. Widened by a
    quarter, a sweep of the box also holds states above the level in every
    direction, so scans up to the level see rows on both sides of it.
    """
    P = np.asarray(P, dtype=float)
    Pinv = np.linalg.inv(P)
    hw = 1.25 * np.sqrt(np.maximum(level * np.diag(Pinv), 0.0))
    return Box.centered(hw)
