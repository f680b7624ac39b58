"""Deterministic low-discrepancy sampling of boxes and sublevel sets.

All sampled certificates in this package draw scrambled Halton points with
a fixed seed, so identical inputs reproduce identical reports.
"""

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


def sample_box(box, n, seed=0):
    """The first n scrambled Halton points of a seed inside the box, shape (n, dim).

    n must be a positive count (ValueError otherwise).
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    u = qmc.Halton(d=box.dim, scramble=True, seed=seed).random(n)
    return box.lows + u * (box.highs - box.lows)


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
