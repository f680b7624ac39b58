"""Deterministic low-discrepancy sampling of boxes and sublevel sets.

All sampled certificates in this package draw scrambled Halton points with
a fixed seed, so identical inputs reproduce identical reports. Coordinate i
of point k sums perm_j[k_j] * b^-(j+1) over the base-b digits k_j of k, b
the i-th prime, with one random permutation of 0..b-1 for each of the
ceil(54 / log2 b) - 1 digits that move a double (Owen 2017, "A randomized
Halton algorithm in R", arXiv:1706.02808). The permutations come from
np.random.default_rng(seed), so a draw has the bits and the memory layout
of scipy 1.17.1's qmc.Halton(d, scramble=True, seed=seed).random(n).

Unit-cube draws are memoized per (dimension, seed): a design draws the same
sequence several times (the synthesis sweep and the seam pairs at one seed,
the cost's fit sweep at it again), and a process that builds several
designs at the same seeds draws them all again. A request is served as a
prefix of the longest draw held, which has the same bits as a fresh
draw of that many points; a longer request rebuilds the draw.
The memo keeps the HALTON_MEMO_SIZE most recently used sequences, each
read-only; every call still returns a new array.
"""

import itertools
import math
import threading

import numpy as np

from .errors import ConfigError


class Box:
    """Axis-aligned box given by per-coordinate lower and upper bounds."""

    def __init__(self, lows, highs):
        self.lows = np.atleast_1d(np.asarray(lows, dtype=float))
        self.highs = np.atleast_1d(np.asarray(highs, dtype=float))
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("lows and highs must be 1-d arrays of equal length")
        finite = np.isfinite(self.lows) & np.isfinite(self.highs)
        if not finite.all():
            raise ValueError(f"box bounds must be finite; coordinate {finite.argmin()} is not")
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


def _halton(dim, n, seed):
    """The first n scrambled Halton points of a seed, shape (n, dim), as scipy lays them out.

    rng.permuted shuffles a base's rows in order, as rng.shuffle on each row
    would; row j is scaled once by b^-(j+1), formed by repeated division. After
    the last digit with a nonzero quotient, each digit adds its row's first entry.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((dim, n))
    base = 1
    for row in out:
        base = next(k for k in itertools.count(base + 1)  # the next prime
                    if all(k % p for p in range(2, math.isqrt(k) + 1)))
        count = math.ceil(54 / math.log2(base)) - 1
        scales = [1.0 / base]
        while len(scales) < count:
            scales.append(scales[-1] / base)
        perms = rng.permuted(np.repeat(np.arange(base)[None], count, axis=0), axis=1)
        digits = perms * np.array(scales)[:, None]
        q, j = np.arange(n), 0
        while q[-1]:
            q, r = np.divmod(q, base)
            row += digits[j][r]
            j += 1
        for c in digits[j:, 0].tolist():
            row += c
    return out.T.reshape(n, dim)


def sample_box(box, n, seed=0):
    """The first n scrambled Halton points of a seed inside the box, shape (n, dim).

    n must be a positive integer and seed a non-negative integer (ValueError
    otherwise). Each call returns a new array.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"sample count must be positive, got {n!r}: a count is an integer")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"sampling seed must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    with _halton_lock:
        u = _halton_memo.pop((box.dim, seed), None)
        if u is None or len(u) < n:
            u = _halton(box.dim, n, seed)
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
