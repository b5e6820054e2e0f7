"""Grid-based fuzzy universal approximator, linear in its parameter vector.

Gaussian memberships with product inference, singleton fuzzifier, and
center-average defuzzification give normalized basis functions xi(x) that
form a convex combination; the approximator output is theta . xi(x). Rule j
corresponds to one point of the membership-center grid, enumerated in
row-major order (last input dimension fastest).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

__all__ = [
    "MembershipGrid",
    "FuzzyApproximator",
    "paired",
    "grid_over_box",
    "write_theta",
    "read_theta",
]


@dataclass(frozen=True, eq=False)
class MembershipGrid:
    """Per-dimension Gaussian membership centers and widths.

    centers[i] must be finite and strictly increasing and widths[i] finite
    and strictly positive; the rule count is the product of the
    per-dimension membership counts.
    """

    centers: tuple
    widths: tuple

    def __post_init__(self):
        centers = tuple(np.asarray(c, dtype=float).reshape(-1) for c in self.centers)
        widths = tuple(np.asarray(w, dtype=float).reshape(-1) for w in self.widths)
        if len(centers) != len(widths) or not centers:
            raise ValueError("centers and widths must list the same nonzero number of dimensions")
        for i, (c, w) in enumerate(zip(centers, widths)):
            if c.size != w.size or c.size < 1:
                raise ValueError(f"dimension {i}: centers and widths must match and be nonempty")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"centers must be finite (dimension {i})")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError(f"widths must be finite and strictly positive (dimension {i})")
            if c.size > 1 and np.any(np.diff(c) <= 0):
                raise ValueError(f"centers must be strictly increasing (dimension {i})")
            c.setflags(write=False)
            w.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        # (center, width) pairs per dimension, as Python floats for regressor
        object.__setattr__(self, "_axes", tuple(tuple(zip(c.tolist(), w.tolist()))
                                                for c, w in zip(centers, widths)))

    @property
    def dim(self) -> int:
        return len(self.centers)

    @property
    def counts(self) -> tuple:
        return tuple(c.size for c in self.centers)

    @property
    def rule_count(self) -> int:
        return int(np.prod(self.counts))

    def regressor(self, x) -> np.ndarray:
        """Normalized firing strengths xi(x): positive, summing to one.

        Memberships are mu(x) = exp(-((x - c) / sigma)^2) and a rule's
        strength is their product, so the normalized strengths are the outer
        product of each dimension's normalized memberships. Each dimension is
        shifted by its smallest squared distance: its largest membership is 1
        and a far-from-grid input cannot underflow the normalizer. Python
        floats (math.exp, a left-to-right sum) keep numpy's SIMD dispatch out.
        """
        if len(x) != self.dim:
            raise ValueError(f"input has dimension {len(x)}, grid expects {self.dim}")
        xi = None
        for v, axis in zip(x, self._axes):
            sq = [z * z for z in [(v - c) / w for c, w in axis]]
            low = min(sq)
            mu = [math.exp(low - q) for q in sq]
            total = reduce(operator.add, mu)
            norm = [m / total for m in mu]
            xi = np.array(norm) if xi is None else np.multiply.outer(xi, norm).ravel()
        return xi


def grid_over_box(lo, hi, counts, width_scale: float) -> MembershipGrid:
    """Uniform membership grid over the box [lo, hi].

    Per dimension, centers are evenly spaced across [lo, hi] (a single
    membership sits at the midpoint) and every width is width_scale times
    the center spacing, or width_scale * (hi - lo) when there is only one.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    # Python ints: a huge count is rejected here, not overflowed by numpy
    counts = [int(m) for m in counts]
    if not (lo.size == hi.size == len(counts)) or lo.size == 0:
        raise ValueError("lo and hi must have one entry per count (at least one)")
    for name, bound in (("lo", lo), ("hi", hi)):
        if not np.all(np.isfinite(bound)):
            raise ValueError(f"{name} must be finite")
    if not np.all(lo < hi):
        raise ValueError("lo must satisfy lo < hi componentwise")
    if min(counts) < 1:
        raise ValueError("counts must be >= 1")
    centers = []
    widths = []
    # MembershipGrid rejects non-positive widths (from width_scale) and the
    # non-finite centers or widths of a span that overflows; numpy need not
    # warn about the latter first
    with np.errstate(over="ignore", invalid="ignore"):
        for l, h, m in zip(lo, hi, counts):
            if m == 1:
                centers.append(np.array([(l + h) / 2.0]))
                w = width_scale * (h - l)
            else:
                c = np.linspace(l, h, m)
                centers.append(c)
                w = width_scale * (c[1] - c[0])
            # the regressor squares (x - c) / w, which reaches (h - l) / w on the box
            if w > 0 and not ((h - l) / w) ** 2 < math.inf:
                raise ValueError("widths too small: ((hi - lo) / width) ** 2 overflows")
            widths.append(np.full(m, w))
    return MembershipGrid(tuple(centers), tuple(widths))


@dataclass(eq=False)
class FuzzyApproximator:
    """Rule consequent vector theta over a membership grid; output theta . xi(x).

    theta is adapted in place by the owning control loop.
    """

    grid: MembershipGrid
    theta: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.theta is None:
            self.theta = np.zeros(self.grid.rule_count)
        else:
            self.theta = np.asarray(self.theta, dtype=float).reshape(-1).copy()
        if self.theta.size != self.grid.rule_count:
            raise ValueError(
                f"theta has length {self.theta.size}, grid has {self.grid.rule_count} rules")

    def evaluate(self, x) -> float:
        """theta . xi(x), reduced by np.add.reduce as the control loop does."""
        return float(np.add.reduce(self.theta * self.grid.regressor(x)))


def paired(grid: MembershipGrid, theta_f, theta_g) -> tuple:
    """Approximators of f and g whose theta vectors are the two rows of one
    (2, rule_count) array, so that one numpy operation evaluates or updates
    both (afhc.adapt_step relies on it). theta_f and theta_g may be scalars."""
    theta = np.empty((2, grid.rule_count))
    theta[0] = theta_f
    theta[1] = theta_g
    approx_f = FuzzyApproximator(grid)
    approx_g = FuzzyApproximator(grid)
    approx_f.theta, approx_g.theta = theta
    return approx_f, approx_g


def write_theta(path, grid: MembershipGrid, theta) -> None:
    """Serialize the grid layout (as comments) and theta, one rule per line."""
    lines = ["# rule order: row-major over the membership grid (last input fastest)"]
    for i, (c, w) in enumerate(zip(grid.centers, grid.widths)):
        lines.append(f"# dim {i} centers: " + " ".join(f"{v:.9e}" for v in c))
        lines.append(f"# dim {i} widths: " + " ".join(f"{v:.9e}" for v in w))
    lines.append("rule theta")
    for j, value in enumerate(theta):
        lines.append(f"{j} {value:.9e}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_theta(path) -> np.ndarray:
    """Parse a file written by write_theta back into a parameter vector."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("rule"):
                continue
            index, value = line.split()
            values[int(index)] = float(value)
    if sorted(values) != list(range(len(values))):
        raise ValueError("theta file has missing or duplicate rule indices")
    return np.array([values[j] for j in range(len(values))])
