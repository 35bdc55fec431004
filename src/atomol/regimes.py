"""Regime cartography of the (C, R) parameter plane.

The census of interior fixed points classifies each parameter point:
three points mean the self-trapping regime II, two the oscillation
regime III, and a single point regime I or IV depending on the sign of
cos(theta) there (phase locked near 0 or near pi).  Points sitting
exactly on a bifurcation (a fold of the cubic, a root touching the
S = -1 boundary, or a phase-envelope touch) are labeled "boundary"
rather than forced into a regime.

Boundary curves between regimes are localized by bisecting the segment
between adjacent differing grid cells and chained into polylines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fixed_points import (
    has_boundary_fixed_point,
    interior_census,
    interior_fixed_points,
)
from .model import ReducedParams

REGIME_LABELS = ("I", "II", "III", "IV")
LABEL_BOUNDARY = "boundary"
LABEL_NONE = "none"


@dataclass(frozen=True)
class RegimeLabel:
    """Census-based regime classification of one parameter point."""

    label: str
    n_interior: int
    has_boundary_fp: bool
    kinds: tuple[str, ...]


@dataclass
class RegimeMap:
    """Grid of regime labels over a (C, R) window."""

    c_axis: np.ndarray
    r_axis: np.ndarray
    labels: list  # labels[i][j] -> RegimeLabel at (c_axis[i], r_axis[j])
    omega: float
    gamma: float

    def label_grid(self) -> np.ndarray:
        return np.array([[lab.label for lab in row] for row in self.labels],
                        dtype=object)

    def cells(self):
        for i, c in enumerate(self.c_axis):
            for j, r in enumerate(self.r_axis):
                yield float(c), float(r), self.labels[i][j]

    def count(self, label: str) -> int:
        return sum(1 for _, _, lab in self.cells() if lab.label == label)

    def area_fraction(self, label: str) -> float:
        total = len(self.c_axis) * len(self.r_axis)
        return self.count(label) / total


@dataclass
class BoundaryPolyline:
    """Chain of bifurcation points separating two regime labels."""

    labels: tuple[str, str]
    points: np.ndarray  # (n, 2) array of (c, r)


@dataclass
class LocusBranch:
    """One connected branch of fixed-point locations along a sweep."""

    param: list = field(default_factory=list)
    s: list = field(default_factory=list)


def classify_regime(q: ReducedParams) -> RegimeLabel:
    """Label one parameter point by its fixed-point census."""
    points, degenerate = interior_census(q)
    has_bfp = has_boundary_fixed_point(q)
    kinds = tuple(sorted(p.kind for p in points))
    n = len(points)
    if degenerate:
        label = LABEL_BOUNDARY
    elif n == 3:
        label = "II"
    elif n == 2:
        label = "III"
    elif n == 1:
        cos_t = math.cos(points[0].theta)
        if abs(cos_t) <= 1e-9:
            label = LABEL_BOUNDARY
        else:
            label = "I" if cos_t > 0.0 else "IV"
    else:
        label = LABEL_NONE
    return RegimeLabel(label=label, n_interior=n, has_boundary_fp=has_bfp,
                       kinds=kinds)


def scan_plane(c_range=(0.0, 3.0), r_range=(-2.0, 2.0), resolution=200,
               omega: float = 1.0, gamma: float = 0.0) -> RegimeMap:
    """Classify a rectangular grid of (C, R) points.

    resolution is the number of grid points per axis (a pair gives
    separate counts for C and R); cells are evaluated independently in
    a fixed row-major order, so the result is deterministic.
    """
    if np.isscalar(resolution):
        nc = nr = int(resolution)
    else:
        nc, nr = (int(v) for v in resolution)
    if nc < 2 or nr < 2:
        raise ValueError("resolution must be >= 2 per axis")
    c_axis = np.linspace(c_range[0], c_range[1], nc)
    r_axis = np.linspace(r_range[0], r_range[1], nr)
    labels = [[classify_regime(ReducedParams(c=float(c), omega=omega,
                                             r=float(r), gamma=gamma))
               for r in r_axis] for c in c_axis]
    return RegimeMap(c_axis=c_axis, r_axis=r_axis, labels=labels,
                     omega=omega, gamma=gamma)


def _check_refine_tol(refine_tol: float):
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")


def _bisect_flip(p_a, p_b, label_a, label_b, omega, gamma, refine_tol):
    """Localize the label flip on the segment p_a -> p_b.

    Halts at refine_tol, or earlier when the midpoint rounds to an end
    and the segment can shrink no further.
    """
    a = np.asarray(p_a, dtype=float)
    b = np.asarray(p_b, dtype=float)
    while float(np.hypot(*(b - a))) > refine_tol:
        mid = 0.5 * (a + b)
        if np.array_equal(mid, a) or np.array_equal(mid, b):
            break
        lab = classify_regime(ReducedParams(c=float(mid[0]), omega=omega,
                                            r=float(mid[1]), gamma=gamma)).label
        if lab == label_a:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _chain_points(points: np.ndarray, max_gap: float) -> list[np.ndarray]:
    """Greedy nearest-neighbor chaining of flip points into polylines."""
    remaining = list(range(len(points)))
    remaining.sort(key=lambda i: (points[i][0], points[i][1]))
    chains = []
    while remaining:
        chain = [remaining.pop(0)]
        extended = True
        while extended and remaining:
            extended = False
            for end in (chain[-1], chain[0]):
                d = np.hypot(points[remaining, 0] - points[end][0],
                             points[remaining, 1] - points[end][1])
                k = int(np.argmin(d))
                if d[k] <= max_gap:
                    idx = remaining.pop(k)
                    if end == chain[-1]:
                        chain.append(idx)
                    else:
                        chain.insert(0, idx)
                    extended = True
                    break
        chains.append(points[chain])
    return chains


def trace_boundaries(rmap: RegimeMap, refine_tol: float = 1e-3) -> list[BoundaryPolyline]:
    """Extract bifurcation polylines from a scanned regime map.

    Every pair of adjacent cells with differing regime labels is bisected
    along the connecting segment until the flip is localized within
    refine_tol, and the flip points are chained by proximity.  Cells
    labeled boundary/none are skipped (they are already on a bifurcation
    or outside the classification).  refine_tol must be finite and > 0.
    """
    _check_refine_tol(refine_tol)
    nc, nr = len(rmap.c_axis), len(rmap.r_axis)
    grid = rmap.label_grid()
    flips: dict[tuple[str, str], list[np.ndarray]] = {}
    dc = rmap.c_axis[1] - rmap.c_axis[0] if nc > 1 else 0.0
    dr = rmap.r_axis[1] - rmap.r_axis[0] if nr > 1 else 0.0
    for i in range(nc):
        for j in range(nr):
            here = grid[i, j]
            if here not in REGIME_LABELS:
                continue
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 >= nc or j2 >= nr:
                    continue
                there = grid[i2, j2]
                if there not in REGIME_LABELS or there == here:
                    continue
                pt = _bisect_flip(
                    (rmap.c_axis[i], rmap.r_axis[j]),
                    (rmap.c_axis[i2], rmap.r_axis[j2]),
                    here, there, rmap.omega, rmap.gamma, refine_tol)
                key = tuple(sorted((here, there)))
                flips.setdefault(key, []).append(pt)
    max_gap = 2.5 * math.hypot(dc, dr)
    polylines = []
    for key in sorted(flips):
        pts = np.array(flips[key])
        for chain in _chain_points(pts, max_gap):
            polylines.append(BoundaryPolyline(labels=key, points=chain))
    return polylines


def boundary_fp_existence_curve(omega: float, c_range=(0.0, 3.0),
                                r_range=(-2.0, 2.0), n_points: int = 64):
    """Diagnostic curve |sqrt2 (C+R)| = Omega clipped to the window.

    Two straight lines C + R = +-Omega/sqrt2; returned as polylines of
    (c, r) pairs.  This is where the boundary fixed point appears and
    also the threshold locus where an interior root reaches S = -1.
    """
    level = omega / math.sqrt(2.0)
    curves = []
    for sign in (+1.0, -1.0):
        cs = np.linspace(c_range[0], c_range[1], n_points)
        rs = sign * level - cs
        keep = (rs >= r_range[0]) & (rs <= r_range[1])
        if np.any(keep):
            curves.append(np.column_stack([cs[keep], rs[keep]]))
    return curves


def fixed_point_locus(sweep_axis: str = "R", sweep_range=(-2.0, 2.0),
                      n_points: int = 201, fixed_other: float = 0.0,
                      omega: float = 1.0, gamma: float = 0.0,
                      jump_tol: float = 0.15) -> list[LocusBranch]:
    """Interior fixed-point S values along a 1D parameter sweep.

    Returns branch-connected curves suitable for plotting: consecutive
    parameter values are matched to the nearest open branch end within
    jump_tol, and unmatched values open new branches.  Phase-degenerate
    pairs sharing one S (the vacuous-cosine case) contribute a single
    locus value.
    """
    if sweep_axis not in ("R", "C"):
        raise ValueError("sweep_axis must be 'R' or 'C'")
    values = np.linspace(sweep_range[0], sweep_range[1], n_points)
    branches: list[LocusBranch] = []
    open_branches: list[LocusBranch] = []
    for val in values:
        if sweep_axis == "R":
            q = ReducedParams(c=fixed_other, omega=omega, r=float(val),
                              gamma=gamma)
        else:
            q = ReducedParams(c=float(val), omega=omega, r=fixed_other,
                              gamma=gamma)
        s_here = sorted({round(p.s, 9) for p in interior_fixed_points(q)})
        taken = [False] * len(open_branches)
        next_open: list[LocusBranch] = []
        for s_val in s_here:
            best, best_d = None, jump_tol
            for k, br in enumerate(open_branches):
                if taken[k]:
                    continue
                d = abs(br.s[-1] - s_val)
                if d < best_d:
                    best, best_d = k, d
            if best is None:
                br = LocusBranch()
                branches.append(br)
            else:
                taken[best] = True
                br = open_branches[best]
            br.param.append(float(val))
            br.s.append(float(s_val))
            next_open.append(br)
        open_branches = next_open
    return branches
