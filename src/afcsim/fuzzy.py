"""Grid-based fuzzy universal approximator, linear in its parameter vector.

Gaussian memberships with product inference, singleton fuzzifier, and
center-average defuzzification give normalized basis functions xi(x) that
form a convex combination; the approximator output is theta . xi(x). Rule j
corresponds to one point of the membership-center grid, enumerated in
row-major order (last input dimension fastest).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MembershipGrid",
    "FuzzyApproximator",
    "grid_over_box",
    "write_theta",
    "read_theta",
]


@dataclass(frozen=True, eq=False)
class MembershipGrid:
    """Per-dimension Gaussian membership centers and widths.

    centers[i] must be strictly increasing and widths[i] strictly positive;
    the rule count is the product of the per-dimension membership counts.
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
            if np.any(w <= 0):
                raise ValueError(f"dimension {i}: widths must be strictly positive")
            if c.size > 1 and np.any(np.diff(c) <= 0):
                raise ValueError(f"dimension {i}: centers must be strictly increasing")
            c.setflags(write=False)
            w.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

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

        Memberships are mu(x) = exp(-((x - c) / sigma)^2); rule strengths are
        per-dimension products normalized over all rules. Computed in the log
        domain so far-from-grid inputs cannot underflow the normalizer.
        """
        if len(x) != self.dim:
            raise ValueError(f"input has dimension {len(x)}, grid expects {self.dim}")
        log_rule = None
        for xi, c, w in zip(x, self.centers, self.widths):
            z = (xi - c) / w
            log_rule = -z * z if log_rule is None else log_rule[..., None] + (-z * z)
        flat = log_rule.reshape(-1)
        flat = np.exp(flat - flat.max())
        return flat / flat.sum()


def grid_over_box(lo, hi, counts, width_scale: float) -> MembershipGrid:
    """Uniform membership grid over the box [lo, hi].

    Per dimension, centers are evenly spaced across [lo, hi] (a single
    membership sits at the midpoint) and every width is width_scale times
    the center spacing, or width_scale * (hi - lo) when there is only one.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    counts = np.asarray(counts, dtype=int).reshape(-1)
    if not (lo.size == hi.size == counts.size) or lo.size == 0:
        raise ValueError("lo, hi, and counts must have the same nonzero length")
    if np.any(hi <= lo):
        raise ValueError("box must satisfy lo < hi componentwise")
    if np.any(counts < 1):
        raise ValueError("membership counts must be >= 1")
    if not width_scale > 0:
        raise ValueError("width_scale must be positive")
    centers = []
    widths = []
    for l, h, m in zip(lo, hi, counts):
        if m == 1:
            centers.append(np.array([(l + h) / 2.0]))
            widths.append(np.array([width_scale * (h - l)]))
        else:
            c = np.linspace(l, h, int(m))
            centers.append(c)
            widths.append(np.full(int(m), width_scale * (c[1] - c[0])))
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
        return float(self.theta @ self.grid.regressor(x))


def write_theta(path, approx: FuzzyApproximator) -> None:
    """Serialize the grid layout (as comments) and theta, one rule per line."""
    lines = ["# rule order: row-major over the membership grid (last input fastest)"]
    for i, (c, w) in enumerate(zip(approx.grid.centers, approx.grid.widths)):
        lines.append(f"# dim {i} centers: " + " ".join(f"{v:.9e}" for v in c))
        lines.append(f"# dim {i} widths: " + " ".join(f"{v:.9e}" for v in w))
    lines.append("rule theta")
    for j, value in enumerate(approx.theta):
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
