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
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "MembershipGrid",
    "FuzzyApproximator",
    "grid_over_box",
    "write_theta",
]


@dataclass(frozen=True, eq=False)
class MembershipGrid:
    """Gaussian membership centers and one shared width per dimension.

    centers[i] is a tuple of floats and widths[i] the float width of every
    membership of dimension i; the rule count is the product of the
    per-dimension membership counts. grid_over_box builds and checks it.
    """

    centers: tuple
    widths: tuple

    @property
    def counts(self) -> tuple:
        return tuple(len(c) for c in self.centers)

    @property
    def rule_count(self) -> int:
        return math.prod(self.counts)

    def regressor(self, x) -> np.ndarray:
        """Normalized firing strengths xi(x): positive, summing to one.

        Memberships are mu(x) = exp(-((x - c) / sigma)^2) and a rule's
        strength is their product, so xi is the raveled outer product of each
        dimension's normalized memberships. Each dimension is shifted by its
        smallest squared distance: its largest membership is 1 and a
        far-from-grid input cannot underflow the normalizer. Python floats
        (math.exp, a left-to-right sum) keep numpy's SIMD dispatch out.
        x holds one value per grid dimension; its length is not checked here.
        """
        norms = []
        for v, centers, w in zip(x, self.centers, self.widths):
            sq = [z * z for z in [(v - c) / w for c in centers]]
            low = min(sq)
            mu = [math.exp(low - q) for q in sq]
            total = reduce(operator.add, mu)
            norms.append([m / total for m in mu])
        return np.ravel(reduce(np.multiply.outer, norms))


def grid_over_box(lo, hi, counts, width_scale: float) -> MembershipGrid:
    """Uniform membership grid over the box [lo, hi].

    Per dimension, centers are evenly spaced across [lo, hi] (a single
    membership sits at the midpoint) and the width is width_scale times the
    center spacing, or width_scale * (hi - lo) when there is only one. Every
    dimension must give finite, strictly increasing centers and a finite,
    strictly positive width.
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
        raise ValueError("box must satisfy lo < hi componentwise")
    if min(counts) < 1:
        raise ValueError("counts must be >= 1")
    centers = []
    widths = []
    for i, (l, h, m) in enumerate(zip(lo.tolist(), hi.tolist(), counts)):
        if m == 1:
            c = ((l + h) / 2.0,)
            w = width_scale * (h - l)
        else:
            # an overflowing span gives non-finite centers, rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                c = tuple(np.linspace(l, h, m).tolist())
            w = width_scale * (c[1] - c[0])
        if not all(map(math.isfinite, c)):
            raise ValueError(f"centers must be finite (dimension {i})")
        if not 0 < w < math.inf:
            raise ValueError(f"widths must be finite and strictly positive (dimension {i})")
        if any(b <= a for a, b in zip(c, c[1:])):
            raise ValueError(f"centers must be strictly increasing (dimension {i})")
        # the regressor squares (x - c) / w, which reaches (h - l) / w on the box
        z = (h - l) / w
        if not z * z < math.inf:
            raise ValueError("widths too small: ((hi - lo) / width) ** 2 overflows")
        centers.append(c)
        widths.append(w)
    return MembershipGrid(tuple(centers), tuple(widths))


@dataclass(eq=False)
class FuzzyApproximator:
    """Rule consequents theta of the output theta . xi(x), kept as given and
    unchecked: the harness passes a row of its (2, R) float array, which
    adapt_step updates in place.
    """

    theta: np.ndarray


def write_theta(path, grid: MembershipGrid, theta) -> None:
    """Serialize the grid layout (as comments) and theta, one rule per line."""
    lines = ["# rule order: row-major over the membership grid (last input fastest)"]
    for i, (c, w) in enumerate(zip(grid.centers, grid.widths)):
        lines.append(f"# dim {i} centers: " + " ".join(f"{v:.9e}" for v in c))
        lines.append(f"# dim {i} widths: " + " ".join([f"{w:.9e}"] * len(c)))
    lines.append("rule theta")
    for j, value in enumerate(theta):
        lines.append(f"{j} {value:.9e}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

