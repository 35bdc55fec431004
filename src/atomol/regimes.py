"""Regime cartography of the (C, R) parameter plane.

The census of interior fixed points (fixed_points) classifies each
parameter point, and the labels are made here: three points mean the
self-trapping regime II, two the oscillation regime III, and a single
point regime I or IV depending on the sign of cos(theta) there (phase
locked near 0 or near pi).  Points sitting exactly on a bifurcation (a
fold of the cubic, a root touching the S = -1 boundary, or a
phase-envelope touch) are labeled "boundary" rather than forced into a
regime.  classify_regime labels one point from the scalar census and
regime_census arrays of points from the array census, with the same
labels.

The boundaries between regimes are the closed-form curves of the
cubic's codimension-1 events (_bifurcation_set), sampled inside the
scanned window where the census labels on their two sides differ
(trace_boundaries).  The same set, with the lines where a cells.csv
column flips without a regime flip, is where a scan can change its
answer: between its curves every cell's label, interior count and
boundary point are constant.  So scan_plane censuses each cell near a
curve and one cell of each run of cells along a row that no curve comes
near.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fixed_points
from .fixed_points import DOUBLE_ROOT_TOL, interior_fixed_points
from .model import EPS_POLE, ReducedParams

REGIME_LABELS = ("I", "II", "III", "IV")
LABEL_BOUNDARY = "boundary"
LABEL_NONE = "none"
_NAMES = REGIME_LABELS + (LABEL_BOUNDARY, LABEL_NONE)  # by key index
# Parameter points per pass of the array census; bounds its work arrays.
CENSUS_CHUNK = 4096


@dataclass(frozen=True)
class RegimeLabel:
    """Census-based regime classification of one parameter point."""

    label: str
    n_interior: int
    has_boundary_fp: bool


@dataclass
class RegimeMap:
    """Grid of regime labels over a (C, R) window: the cell at
    (c_axis[i], r_axis[j]) has the RegimeLabel table[codes[i, j]].  Its
    scan and tracer share one sampling of the bifurcation set (_sampled_curves)."""

    c_axis: np.ndarray
    r_axis: np.ndarray
    codes: np.ndarray  # (len(c_axis), len(r_axis)) integers
    table: tuple  # distinct RegimeLabels
    omega: float
    gamma: float

    @functools.cached_property
    def _window(self):
        """(lo, hi, cell): the lowest and highest (C, R) and cell size."""
        lo, hi = np.sort([self.c_axis[[0, -1]], self.r_axis[[0, -1]]], axis=1).T
        cell = np.abs([ax[1] - ax[0] for ax in (self.c_axis, self.r_axis)])
        return lo, hi, cell

    @functools.cached_property
    def _sampled_curves(self):
        """Per curve of _bifurcation_set, (points, chords, slopes, inside,
        flips): vertices a cell apart at most (_sample), the chords between
        them, slopes, in-window flags, and whether a regime flips across."""
        lo, hi, cell = self._window
        sampled = []
        for curve, t, flips in _bifurcation_set(self.omega, self.gamma,
                                                np.array([lo[0], hi[0]])):
            t, inside = _sample(curve, t, lo, hi, cell)
            cs, rs, slopes = np.broadcast_arrays(*curve(t))
            pts = np.column_stack([cs, rs])
            chords = np.stack([pts[:-1], pts[1:]], axis=1)
            sampled.append((pts, chords, slopes, inside, flips))
        return sampled

    def count(self, label: str) -> int:
        cells = np.bincount(self.codes.ravel(), minlength=len(self.table)).tolist()
        return sum(n for lab, n in zip(self.table, cells) if lab.label == label)

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
    """Label one parameter point by its fixed-point census (scalar path),
    run without the spectra (fixed_points._interior_roots), which no
    label reads.

    A degenerate census is boundary, three interior points regime II,
    two III, one I or IV by the sign of cos(theta) there (boundary
    within 1e-9 of zero), none otherwise.  regime_census is the same
    label over arrays of points.
    """
    points, degenerate = fixed_points._interior_roots(q)
    n = len(points)
    if degenerate:
        label = LABEL_BOUNDARY
    elif n != 1:
        label = {3: "II", 2: "III"}.get(n, LABEL_NONE)
    else:
        cos_first = math.cos(points[0][1])
        label = (LABEL_BOUNDARY if abs(cos_first) <= 1e-9
                 else "I" if cos_first > 0.0 else "IV")
    has_bfp = abs(fixed_points._boundary_cos(q)) <= 1.0
    return RegimeLabel(label=label, n_interior=n, has_boundary_fp=has_bfp)


def regime_census(c, r, omega, gamma) -> tuple[np.ndarray, tuple]:
    """classify_regime over broadcast arrays of C, R, Omega and Gamma.

    Returns (codes, table), int32 codes of the broadcast shape and the
    distinct RegimeLabels: table[codes[k]] is exactly the scalar census's
    label at point k, which has an entry of its own where the point was
    handed to the scalar census.  Points run in row-major order,
    CENSUS_CHUNK at a time; the first one the scalar census rejects
    raises its error.  No stability is found, which no label reads.
    """
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                   for v in (c, r, omega, gamma)))
    c, r, omega, gamma = (a.ravel() for a in arrays)
    keys = np.empty(c.size, dtype=np.int32)
    scalar: list = []  # labels of the points handed to the scalar census
    with np.errstate(all="ignore"):
        for lo in range(0, c.size, CENSUS_CHUNK):
            part = slice(lo, lo + CENSUS_CHUNK)
            keys[part] = _label_keys(c[part], r[part], omega[part],
                                     gamma[part], scalar)
    # the array keys count up from 0 and the scalar labels' down from
    # -1; the keys in use, in order, are the codes
    top = int(keys.max(initial=-1)) + 1
    keys = np.where(keys < 0, top - 1 - keys, keys) if scalar else keys
    used = np.bincount(keys) > 0
    table = tuple(scalar[k - top] if k >= top else
                  RegimeLabel(_NAMES[k // 2 % 6], k // 12, bool(k % 2))
                  for k in np.flatnonzero(used).tolist())
    codes = np.cumsum(used, dtype=np.int32) - 1
    return codes[keys].reshape(arrays[0].shape), table


def _label_keys(c, r, omega, gamma, scalar: list) -> np.ndarray:
    """Keys (n * 6 + name) * 2 + has boundary fp of one chunk, name by
    classify_regime's rule as an index of _NAMES, from the array census
    (fixed_points._census_arrays).  A point the scalar census rejects is
    handed to it, so it raises its error; a label it returned would be
    appended to scalar and keyed -len(scalar)."""
    degenerate, n_points, cos_first, failed = fixed_points._census_arrays(
        c, r, omega, gamma)
    has_bfp = np.abs(-math.sqrt(2.0) * (c + r) / omega) <= 1.0
    # the first true case names the point: boundary, II, III, none, and
    # for a single point boundary, I, else IV
    name = np.select([degenerate, n_points == 3, n_points == 2, n_points != 1,
                      np.abs(cos_first) <= 1e-9, cos_first > 0.0],
                     [4, 1, 2, 5, 4, 0], 3)
    keys = (n_points * 6 + name) * 2 + has_bfp
    for k in np.flatnonzero(failed).tolist():
        scalar.append(classify_regime(ReducedParams(
            c=float(c[k]), omega=float(omega[k]), r=float(r[k]),
            gamma=float(gamma[k]))))
        keys[k] = -len(scalar)
    return keys


# scan_plane marks every cell that a sampled chord of the bifurcation
# set comes within its margin of, and every cell where the census's
# residual gate may decide.  It censuses the marked cells and the first
# free cell of each run of unmarked cells along a row, which stands for
# the run.  Both rules read the size of the census's terms at (C, R),
# lam = |C| + |R| + Om + |G|, and eps = min(1, 4 Om^2 / (16 (R - C)^2 +
# G^2)), the closest a root at (C, R) comes to the pole S = 1
# (_census_size).
#
# A chord's margin on each axis is MARGIN cells or BAND max(1, lam)
# eps^(-1/3) at its ends, whichever is wider.  The first covers the
# chord's half-cell reach to a free cell next to a marked one and the
# curve's bend off it; the second the census's band around the curve.
# The census reads a double root where the cubic at a critical point is
# within DOUBLE_ROOT_TOL of its largest term, and the terms are
# quadratic in (C, R, Om, G).  Off a fold that value grows linearly, a
# band of about DOUBLE_ROOT_TOL lam.
# The cubic's gradient in (C, R), 128 (S - 1) (C S - R) (S, -1),
# vanishes on R = C/3 at its double root S = 1/3, so there the value
# grows with the square of the distance d, a band of about
# DOUBLE_ROOT_TOL^(1/2) lam (4e-3 at Om = 1000).  Where G^2 = 6 Om^2
# (S* = 1/3, the point where the fold's cusp meets S*; _cusps) it grows
# only with the cube, as 54 Om^2 (d / C)^3 against terms of about
# 17 C^2.  With eps = 0.56 (Om / C)^2 on the line for C >> Om, that
# band, the widest, is 0.42 DOUBLE_ROOT_TOL^(1/3) lam eps^(-1/3), as
# random draws of Omega, Gamma and C find too.  BAND leaves a factor of
# 2.4 over it.
MARGIN = 1.5
BAND = DOUBLE_ROOT_TOL ** (1.0 / 3.0)
# The residual gate holds the flow at a polished point, whose rounding
# grows as 2^-52 lam eps^-1.5 towards the pole, to the absolute
# RESIDUAL_TOL.  So it may reject a point anywhere, off the curves too,
# once lam eps^-1.5 nears RESIDUAL_TOL / 2^-52 = 4.5e6.  Cells above
# GATE_LIMIT, 450 times lower, are each censused; the default map stays
# below it for |G| <= 3.
GATE_LIMIT = 1e4


def scan_plane(c_range=(0.0, 3.0), r_range=(-2.0, 2.0), resolution=200,
               omega: float = 1.0, gamma: float = 0.0) -> RegimeMap:
    """Classify a rectangular grid of (C, R) points.

    resolution is the number of grid points per axis (a pair gives
    separate counts for C and R).  Between the curves of the bifurcation
    set (_bifurcation_set) a cell's label, interior count and boundary
    point do not change, so only cells near a curve need a census of
    their own.  A cell near a sampled chord, or where the census's
    residual gate may decide (_marked_cells), is censused; along each
    row (fixed C) the other cells fall into runs of free cells, and the
    first cell of a run is censused and gives its code to the rest.  A
    grid with a zero or non-finite cell size has every cell marked.
    One array census (regime_census, row-major) gives the censused cells
    their codes and the map its label table, exactly the labels
    classify_regime would give.
    """
    if np.isscalar(resolution):
        nc = nr = int(resolution)
    else:
        nc, nr = (int(v) for v in resolution)
    if nc < 2 or nr < 2:
        raise ValueError("resolution must be >= 2 per axis")
    c_axis = np.linspace(c_range[0], c_range[1], nc)
    r_axis = np.linspace(r_range[0], r_range[1], nr)
    # the map's largest array first: a grid too large for memory fails
    # at once, not after the census's seconds
    rmap = RegimeMap(c_axis, r_axis, np.empty((nc, nr), np.int32), (), omega, gamma)
    marked = _marked_cells(rmap)
    need = marked.copy()
    need[:, 0] = True
    need[:, 1:] |= marked[:, :-1]
    flat = np.flatnonzero(need)
    census, rmap.table = regime_census(c_axis[flat // nr], r_axis[flat % nr],
                                       omega, gamma)
    rmap.codes.reshape(-1)[:] = np.repeat(census, np.diff(flat, append=need.size))
    return rmap


@np.errstate(all="ignore")
def _marked_cells(rmap: RegimeMap):
    """Mask (C, R) of the map's cells that scan_plane censuses each on
    its own: those within a chord's margin, on each axis, of the
    bounding box of a chord of the map's sampled set, or above
    GATE_LIMIT.

    The chords are at most a cell long on an axis where they meet the
    window, so a curve that splits two adjacent cells passes within half
    a cell of one of them.  A chord's band is read at its ends clipped
    to the window.  The gate is evaluated on every cell only where its
    bound at the window's corners reaches GATE_LIMIT.  A grid whose
    cell size is zero or not finite has every cell marked, unsampled.
    """
    c_axis, r_axis, omega, gamma = rmap.c_axis, rmap.r_axis, rmap.omega, rmap.gamma
    lo, hi, cell = rmap._window
    if not (np.isfinite(cell).all() and cell.all()):
        return np.ones((len(c_axis), len(r_axis)), bool)
    # lam and (R - C)^2 peak at corners of the window, so the gate
    # there bounds every cell's: each of its rounding steps is monotone,
    # save ** (within an ulp, which the 1e-9 margin covers)
    lam, eps = _census_size(*np.meshgrid(*zip(lo, hi)), omega, gamma)
    if lam.max() * eps.min() ** -1.5 < GATE_LIMIT * (1.0 - 1e-9):
        marked = np.zeros((len(c_axis), len(r_axis)), bool)
    else:
        lam, eps = _census_size(c_axis[:, None], r_axis[None, :], omega, gamma)
        marked = lam * eps ** -1.5 > GATE_LIMIT
    chords = np.concatenate([chords for _, chords, *_ in rmap._sampled_curves])
    # finite chord ends in grid-index units, then the cells of the box
    step = np.array([c_axis[1] - c_axis[0], r_axis[1] - r_axis[0]])
    index = (chords - [c_axis[0], r_axis[0]]) / step
    keep = np.isfinite(index).all(axis=(1, 2))
    index, near = index[keep], np.clip(chords[keep], lo, hi)
    lam, eps = _census_size(near[..., 0], near[..., 1], omega, gamma)
    band = BAND * (np.fmax(1.0, lam) * eps ** (-1.0 / 3.0)).max(axis=1)
    margin = np.fmax(MARGIN, band[:, None] / cell)
    n = np.array([len(c_axis), len(r_axis)])
    first = np.clip(np.ceil(index.min(axis=1) - margin), 0, n)
    last = np.clip(np.floor(index.max(axis=1) + margin), -1, n - 1)
    ok = (first <= last).all(axis=1)
    boxes = np.hstack([first[ok], last[ok] + 1]).astype(int)
    for i0, j0, i1, j1 in boxes.tolist():
        marked[i0:i1, j0:j1] = True
    return marked


def _census_size(c, r, omega, gamma):
    """(lam, eps) at (c, r): lam = |C| + |R| + Om + |G|, the size of the
    census's terms, and eps = min(1, 4 Om^2 / (16 (R - C)^2 + G^2)), the
    closest a root comes to the pole S = 1.  Squares overflow to inf.
    """
    omega, gamma = np.float64(omega), np.float64(gamma)
    lam = np.abs(c) + np.abs(r) + omega + np.abs(gamma)
    return lam, np.fmin(1.0, 4.0 * omega ** 2 / (16.0 * (r - c) ** 2 + gamma ** 2))


def _check_refine_tol(refine_tol: float):
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refine_tol must be finite and > 0, got {refine_tol}")


def _sample(curve, t, lo, hi, cell):
    """Parameters of curve(t) -> (c, r, slope) sampling it in [lo, hi].

    Halves each step of t whose chord meets the box and is longer than a
    cell on an axis, then adds the last point inside before each exit.
    """
    def points(t):
        return np.column_stack(curve(t)[:2])

    def inside(pts):
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    while True:
        pts = points(t)
        a, b = pts[:-1], pts[1:]
        meets = np.all((np.fmax(a, b) >= lo) & (np.fmin(a, b) <= hi), axis=1)
        long = ~np.all(np.abs(b - a) <= cell, axis=1)
        mid = 0.5 * (t[:-1] + t[1:])
        split = meets & long & (t[:-1] < mid) & (mid < t[1:])
        if not split.any():
            break
        t = np.insert(t, np.flatnonzero(split) + 1, mid[split])
    # bisect each step across the box edge down to its last point
    # inside, on floats: curve reads a float as one point
    (c_lo, r_lo), (c_hi, r_hi) = lo.tolist(), hi.tolist()
    ins = inside(pts)
    t_in = []
    for k in np.flatnonzero(ins[:-1] != ins[1:]).tolist():
        t_at, t_out = t[[k, k + 1] if ins[k] else [k + 1, k]].tolist()
        for _ in range(64):
            mid = 0.5 * (t_at + t_out)
            if mid == t_at or mid == t_out:
                break  # down to adjacent floats
            c, r = curve(mid)[:2]
            inside_now = c_lo <= c <= c_hi and r_lo <= r <= r_hi
            t_at, t_out = (mid, t_out) if inside_now else (t_at, mid)
        t_in.append(t_at)
    t = _unique(np.concatenate([t, t_in]))
    return t, inside(points(t))


def _unique(x):
    """np.unique of a 1-D float array: sorted, the first of each run of
    equal values (so one of 0.0 and -0.0) and one NaN.  np.unique imports
    numpy.ma, which nothing else here needs."""
    x = np.sort(x)
    keep = np.empty(len(x), dtype=bool)
    keep[:1] = True
    keep[1:] = (x[1:] != x[:-1]) & ~np.isnan(x[:-1])
    return x[keep]


@np.errstate(all="ignore")
def _distance_to_chords(pts, chords, reach, cell):
    """Distance from each point (n, 2) to the nearest chord (m, 2, 2),
    exact where it is below reach; elsewhere inf or a distance >= reach.

    The tracer reads the distance gap only through its probe offset
    max(floor, min(delta, gap/2)) and its test gap < 2 floor, with
    floor <= delta: both are the same for every gap >= 2 delta, so a
    reach of 2 delta, at most half a cell, is enough.  The chords'
    bounding boxes, grown by reach and by a slack that covers the
    rounding of the distance, are bucketed on a grid of cell-sized
    buckets (at most one per point along an axis) from the lowest point.
    A point closer than reach to a chord lies in its grown box, so each
    point is measured only against the chords whose box covers its
    bucket, with the all-pairs expression and so its bits.  The tracer's
    chords are at most a cell long on each axis, so the work grows with
    the number of points, not its square.  A zero-length chord reads NaN
    and is skipped; its point ends the chords next to it.
    """
    dist = np.full(len(pts), np.inf)
    if not (len(pts) and len(chords) and reach > 0.0):
        return dist
    a, b = chords[:, 0], chords[:, 1]
    ab = b - a
    length2 = np.einsum("ij,ij->i", ab, ab)
    origin = pts.min(axis=0)
    span = pts.max(axis=0) - origin
    size = np.fmax(cell, span / len(pts))
    flat = ~(np.isfinite(size) & (size > 0.0))  # one bucket on this axis
    size[flat], span[flat] = np.inf, 0.0
    top = np.floor(span / size)

    def bucket(x):  # bucket index per axis, not clipped
        return np.floor((x - origin) / size)

    # each rounding of the pair expression and of the box edges is at
    # most 2^-53 of the reach, the chord's extent or its ends' size, or
    # an underflow below the smallest normal
    slack = 2.0 ** -48 * (reach + np.abs(ab) + np.fmax(np.abs(a), np.abs(b)))
    grow = reach + slack + 2.0 ** -1022
    first = np.fmax(bucket(np.fmin(a, b) - grow), 0.0)  # NaN reads 0
    last = np.fmin(bucket(np.fmax(a, b) + grow), top)   # and top
    width = np.fmax(last - first + 1.0, 0.0).astype(np.int64)
    first, top = first.astype(np.int64), top.astype(np.int64)
    # (bucket, chord) entries, sorted by bucket
    per = width[:, 0] * width[:, 1]
    chord = np.repeat(np.arange(len(chords)), per)
    k = np.arange(len(chord)) - np.repeat(np.cumsum(per) - per, per)
    cols = top[1] + 1
    key = ((first[chord, 0] + k // width[chord, 1]) * cols
           + first[chord, 1] + k % width[chord, 1])
    order = np.argsort(key)
    key, chord = key[order], chord[order]
    # (point, chord) pairs of each point's bucket
    at = np.fmin(np.fmax(bucket(pts), 0.0), top).astype(np.int64)
    at = at[:, 0] * cols + at[:, 1]
    start = np.searchsorted(key, at, "left")
    count = np.searchsorted(key, at, "right") - start
    offset = np.cumsum(count) - count
    point = np.repeat(np.arange(len(pts)), count)
    c = chord[np.arange(len(point)) - np.repeat(offset - start, count)]
    d = pts[point] - a[c]
    t = np.clip(np.einsum("ij,ij->i", d, ab[c]) / length2[c], 0.0, 1.0)
    foot = d - t[:, None] * ab[c]
    gap = np.hypot(foot[:, 0], foot[:, 1])
    hit = count > 0  # an all-NaN point reads inf, as np.fmin.reduce does
    dist[hit] = np.fmin(np.fmin.reduceat(gap, offset[hit]), np.inf)
    return dist


def _bifurcation_set(omega, gamma, c_span):
    """The closed-form curves in (C, R) on which the census changes.

    A root of the cubic at S = s puts (C, R) on a line R = s C -+ g(s),
    g(s) = (1 - 3s) sqrt((4 Om^2 - G^2 (1-s)) / (64 (1-s))), real for s
    in [s0, 1), s0 = max(-1, 1 - 4 Om^2/G^2).  Regimes change on the
    lines of s0 (a root at S = -1, or the phase envelope, where
    g(s0) = 0) and on the fold C = +-g'(s), R = +-(s g'(s) - g(s)) (two
    roots merge), of slope s.  A cells.csv column flips without a
    regime flip on R = C/3 (a double root at S = 1/3, at every Gamma),
    on the lines of s = 1 - EPS_POLE, where real (a root reaches the
    pole guard), and on C + R = +-Om/sqrt2 (the boundary fixed point
    appears).  Returns (curve, t, flips) per curve: curve(t) -> (c, r,
    slope), start parameters t (a line runs over c_span), and whether a
    regime flips across it.

    A fold starts from 65 values of s in [s0, 1], s0 + d and 1 - d for
    d = (1 - s0) 2^-k (k = 1 ... 52), and its cusp, the zero of g'' at
    1 - s_c = 6 Om^2 / (2 G^2 - 3 Om^2) when G^2 > 6 Om^2 (_cusps).  It
    runs off to infinity at s = 1 (and at s0 > -1), where _sample
    cannot split a step with a non-finite end unless its chord meets
    the window, and it turns back at its cusp: with those starts no
    piece of the fold lies far off its chords, for the scan and the
    tracer alike.
    """
    om2, g2 = np.float64(omega) ** 2, np.float64(gamma) ** 2
    s0 = max(-1.0, 1.0 - 4.0 * om2 / g2)

    def g(s):  # g(s), g'(s), of floats or arrays
        # w * w: a float's w ** 2 (libm pow) can miss np.square's bits
        w = 1.0 - s
        h = np.sqrt(np.maximum(4.0 * om2 / w - g2, 0.0) / 64.0)
        u = 1.0 - 3.0 * s
        return u * h, u * om2 / (32.0 * (w * w) * h) - 3.0 * h

    def line(slope, offset, flips=False):
        return (lambda c: (c, slope * c + offset, slope)), c_span, flips

    ends = (1.0 - s0) * 2.0 ** -np.arange(1.0, 53.0)
    s_start = _unique(np.concatenate([np.linspace(s0, 1.0, 65), s0 + ends,
                                      1.0 - ends, _cusps(om2, g2, s0)]))

    def fold(sign):
        def curve(s):
            g_s, dg = g(s)
            return sign * dg, sign * (s * dg - g_s), s
        return curve, s_start, True

    b = g(-1.0)[0] if s0 == -1.0 else 0.0
    curves = [line(s0, -b, True), fold(1.0), fold(-1.0)]
    if b != 0.0:
        curves.append(line(s0, b, True))
    level, s_pole = omega / math.sqrt(2.0), 1.0 - EPS_POLE
    curves += [line(1.0 / 3.0, 0.0), line(-1.0, level), line(-1.0, -level)]
    if s_pole >= s0:
        curves += [line(s_pole, g(s_pole)[0]), line(s_pole, -g(s_pole)[0])]
    return curves


def _cusps(om2, g2, s0):
    """The zero of g''(s) in (s0, 1), where the fold turns back.

    With w = 1 - s and h = g / (1 - 3s), g'' = h' ((1 - 3s) (2/w - h'/h)
    - 6) and h'/h = 2 Om^2 / (w (4 Om^2 - G^2 w)), so g'' = 0 is linear
    in w: 1 - s_c = 6 Om^2 / (2 G^2 - 3 Om^2).  s_c lies in (s0, 1) only
    when G^2 > 6 Om^2; at G^2 = 6 Om^2 it meets s0 at 1/3.
    """
    s = 1.0 - 6.0 * om2 / (2.0 * g2 - 3.0 * om2)
    return np.array([s] if s0 < s < 1.0 else [])


@np.errstate(all="ignore")
def trace_boundaries(rmap: RegimeMap, refine_tol: float = 1e-3) -> list[BoundaryPolyline]:
    """Bifurcation polylines of a scanned map, from the closed-form set.

    The curves where a regime flips (_bifurcation_set: the lines of s0
    and the folds) are the map's sampling up to the window's edge
    (made by its scan or here), vertices at most one cell apart; each
    run of vertices with one pair of regimes at +-delta across the curve
    is a polyline.  delta is refine_tol (finite, > 0), at most a quarter
    cell and half the distance to the other curves, and at least 1e-7 *
    max(1, |window bounds|): closer, the census reads boundary.  A
    vertex closer than twice that floor to another curve is left out.
    Both rules read the distance to the
    other curves only below 2 delta (the floor is at most delta), so it
    is measured only that far (_distance_to_chords), in time that grows
    with the number of vertices.
    """
    _check_refine_tol(refine_tol)
    lo, hi, cell = rmap._window
    floor = min(0.25 * cell.min(), 1e-7 * max(1.0, *np.abs(lo), *np.abs(hi)))
    delta = min(0.25 * cell.min(), max(refine_tol, floor))
    floor, delta = float(floor), float(delta)
    omega, gamma = rmap.omega, rmap.gamma
    ReducedParams(omega=omega, gamma=gamma)  # both checked before any probe

    def label(c, r):
        return classify_regime(ReducedParams(c=c, omega=omega, r=r, gamma=gamma)).label

    sampled = []
    for pts, chords, slopes, inside, flips in rmap._sampled_curves:
        if flips:
            keep = (inside[:-1] | inside[1:]) & np.isfinite(chords).all(axis=(1, 2))
            sampled.append((pts, slopes, inside, chords[keep]))
    polylines = []
    for k, (pts, slopes, inside, _) in enumerate(sampled):
        others = [chords for j, (*_, chords) in enumerate(sampled) if j != k]
        # only the vertices in the window are probed
        gap = np.full(len(pts), np.inf)
        gap[inside] = _distance_to_chords(pts[inside], np.concatenate(others),
                                          2.0 * delta, cell)
        # the sorted census labels at (c, r) -+ step (-slope, 1), on floats
        rows, pairs = pts.tolist(), []
        for (c, r), slope, keep, gap_p in zip(rows, slopes.tolist(),
                                              inside.tolist(), gap.tolist()):
            if keep and not gap_p < 2.0 * floor:
                step = max(floor, min(delta, 0.5 * gap_p)) / math.hypot(slope, 1.0)
                a = label(c - slope * step, r + step)
                b = label(c + slope * step, r - step)
                pairs.append((a,) if a == b else (a, b) if a < b else (b, a))
            else:
                pairs.append(())
        for key, run in itertools.groupby(zip(pairs, rows), lambda x: x[0]):
            if len(key) == 2 and set(key) <= set(REGIME_LABELS):
                points = np.array([p for _, p in run])
                polylines.append(BoundaryPolyline(labels=key, points=points))
    return sorted(polylines, key=lambda poly: poly.labels)


def boundary_fp_existence_curve(omega: float, c_range=(0.0, 3.0),
                                r_range=(-2.0, 2.0)):
    """Diagnostic curve |sqrt2 (C+R)| = Omega clipped to the window.

    Two straight lines C + R = +-Omega/sqrt2; returned as polylines of
    (c, r) pairs.  This is where the boundary fixed point appears.  An
    interior root reaches S = -1 on |C+R| = sqrt(Omega^2/2 - Gamma^2/4)
    instead (threshold_gamma), which is this curve only at Gamma = 0.
    """
    level = omega / math.sqrt(2.0)
    curves = []
    for sign in (+1.0, -1.0):
        cs = np.linspace(c_range[0], c_range[1], 64)
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
