"""Parameter-plane cartography: labels, boundaries, loci.

The array census behind scan_plane, and the fill along each row that
spares it the runs of cells far from the bifurcation set, must label
every point exactly as classify_regime does.  The full-scale check,
200x200 default maps over the Gammas of the regimes command, of the
benchmark's census, of GAMMAS and at and just above sqrt6, where the
fold's cusp meets S = 1/3, prints every cell that differs, and
counts the cells scan_plane sent to the census, the lines where
cells.csv from its axes and labels differs from the row-by-row oracle
and the vertices where the tracer's bucketed chord distance, capped at
its reach, differs from the all-pairs oracle's:

    PYTHONPATH=src python tests/test_regimes.py
"""

import itertools
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomol import fixed_points, regimes
from atomol.fixed_points import (boundary_fixed_point, interior_fixed_points,
                                 threshold_gamma)
from atomol.model import ReducedParams
from atomol.regimes import (
    LABEL_BOUNDARY,
    LABEL_NONE,
    REGIME_LABELS,
    RegimeMap,
    _distance_to_chords,
    _unique,
    boundary_fp_existence_curve,
    classify_regime,
    fixed_point_locus,
    regime_census,
    scan_plane,
    trace_boundaries,
)

from oracles import (CELL_HEADER, bifurcation_distance, bisection_boundaries,
                     cell_rows, distance_to_chords, map_cells, write_cells,
                     write_csv_rows)
from test_fixed_points import census_points

SRC = Path(__file__).resolve().parents[1] / "src"
OMEGA = 1.0
# zero loss and Gamma below sqrt2 Omega, where roots leave through
# S = -1, at it, and above it, where they leave through the phase
# envelope S* = 1 - 4 Omega^2/Gamma^2 (S* = 0 at 2 Omega); at 1.9375 and
# 2.65625 the float S* puts g(S*) a rounding below zero, at 1.75 and
# 2.59375 above it
GAMMAS = (0.0, 0.6, 1.2, math.sqrt(2.0), 1.75, 1.9375, 2.0, 2.5,
          2.59375, 2.65625)


def label_at(c, r, gamma=0.0, omega=OMEGA):
    return classify_regime(ReducedParams(c=c, omega=omega, r=r, gamma=gamma))


class TestClassifyRegime:
    def test_anchor_detuned_localized(self):
        lab = label_at(0.0, 1.0)
        assert lab.label == "I"
        assert lab.n_interior == 1
        assert not lab.has_boundary_fp

    def test_anchor_self_trapping(self):
        lab = label_at(2.0, 0.0)
        assert lab.label == "II"
        assert lab.n_interior == 3
        points = interior_fixed_points(ReducedParams(c=2.0, omega=OMEGA, r=0.0))
        assert sorted(p.kind for p in points) == ["center", "center", "saddle"]

    def test_anchor_oscillation(self):
        lab = label_at(0.0, 0.0)
        assert lab.label == "III"
        assert lab.n_interior == 2
        assert lab.has_boundary_fp

    def test_anchor_inverted_detuning(self):
        lab = label_at(0.0, -1.0)
        assert lab.label == "IV"
        assert lab.n_interior == 1

    def test_exact_bifurcation_is_boundary(self):
        # a root exactly at S = -1: the threshold curve C + R = Om/sqrt2
        lab = label_at(0.0, OMEGA / math.sqrt(2.0))
        assert lab.label == LABEL_BOUNDARY

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_phase_envelope_touch_is_boundary(self, sign):
        # double root at S = 1/3 on the vacuous-phase line C S = R with
        # |sin theta| within 1e-9 of 1 (Gamma just below sqrt6 Omega):
        # two distinct phase points that are about to merge
        gamma = sign * math.sqrt(6.0) * OMEGA * (1.0 - 1e-12)
        lab = label_at(0.0, 0.0, gamma=gamma)
        assert lab.n_interior == 2
        assert lab.label == LABEL_BOUNDARY

    def test_regime_three_vanishes_above_threshold(self):
        # gamma > sqrt(2) Omega: the two-point census is gone everywhere
        lab = label_at(0.0, 0.0, gamma=1.5)
        assert lab.label != "III"
        assert lab.n_interior == 3  # symmetric pair plus bottom saddle


    def test_labels_are_made_in_regimes(self):
        # the benchmark's tracer names spans by __module__ and counts
        # regimes.classify_regime; fixed_points holds only the census
        assert (classify_regime.__module__ == regime_census.__module__
                == "atomol.regimes")
        for name in ("RegimeLabel", "regime_census", "_point_label"):
            assert not hasattr(fixed_points, name), name
        assert not [name for name in vars(fixed_points)
                    if name.startswith("LABEL_")]

    def test_boundary_point_flag_agrees_on_and_beside_its_lines(self):
        # C + R = +-Om/sqrt2 and the float neighbours of R on either
        # side: the scalar label, the array census and the boundary
        # fixed point itself agree on whether that point exists
        points = []
        for omega, gamma, c in itertools.product(
                (1.0, 0.3, 7.0), (0.0, 0.6, 2.5), (0.0, 0.25, 1.7, -3.0)):
            for sign in (1.0, -1.0):
                r = sign * omega / math.sqrt(2.0) - c
                for _ in range(3):
                    r = np.nextafter(r, -np.inf)
                for _ in range(7):
                    points.append(ReducedParams(c=c, omega=omega, r=float(r),
                                                gamma=gamma))
                    r = np.nextafter(r, np.inf)
        codes, table = regime_census(*(np.array([getattr(q, name) for q in points])
                                       for name in ("c", "r", "omega", "gamma")))
        flags = [(classify_regime(q).has_boundary_fp,
                  table[k].has_boundary_fp,
                  boundary_fixed_point(q) is not None)
                 for q, k in zip(points, codes.tolist())]
        assert all(len(set(f)) == 1 for f in flags)
        assert {f[0] for f in flags} == {True, False}


class TestScanPlane:
    def test_all_four_regimes_present(self):
        rmap = scan_plane(resolution=(31, 41), omega=OMEGA, gamma=0.0)
        labels = {lab.label for _, _, lab in map_cells(rmap)}
        assert {"I", "II", "III", "IV"} <= labels

    def test_label_census_consistency(self):
        rmap = scan_plane(resolution=(13, 17), omega=OMEGA, gamma=0.7)
        for c, r, lab in map_cells(rmap):
            pts = interior_fixed_points(ReducedParams(c=c, omega=OMEGA, r=r,
                                                      gamma=0.7))
            assert lab.n_interior == len(pts)

    def test_regime_three_area_shrinks_with_loss(self):
        counts = []
        for gamma in (0.0, 0.6, 1.2):
            rmap = scan_plane(resolution=(31, 41), omega=OMEGA, gamma=gamma)
            counts.append(rmap.count("III"))
        assert counts[0] > counts[1] > counts[2] > 0

    def test_regime_three_absent_at_large_loss(self):
        # threshold sqrt(2 Om^2 - 4 (C+R)^2) <= sqrt2 < gamma on the window
        rmap = scan_plane(resolution=(21, 21), omega=OMEGA, gamma=2.4)
        assert rmap.count("III") == 0

    def test_determinism(self):
        m1 = scan_plane(resolution=(11, 11), gamma=0.3)
        m2 = scan_plane(resolution=(11, 11), gamma=0.3)
        assert ([lab.label for _, _, lab in map_cells(m1)]
                == [lab.label for _, _, lab in map_cells(m2)])

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            scan_plane(resolution=1)


def _mismatches(rmap):
    """(c, r, map label, classify_regime label) of every cell that differs."""
    out = []
    for c, r, lab in map_cells(rmap):
        ref = label_at(c, r, gamma=rmap.gamma, omega=rmap.omega)
        if lab != ref:
            out.append((c, r, lab, ref))
    return out


def _census_mismatches(points):
    """The points where one regime_census call and classify_regime differ."""
    codes, table = regime_census(*(np.array([getattr(q, name) for q in points])
                                   for name in ("c", "r", "omega", "gamma")))
    return [q for q, k in zip(points, codes.tolist())
            if table[k] != classify_regime(q)]


class TestRegimeCensus:
    def test_agrees_with_classify_regime_at_every_census_point(self):
        assert _census_mismatches(census_points()) == []

    def test_agrees_where_the_residual_gate_decides(self):
        # the residual gate is absolute: scaled by 1e5 to 1e8 the census
        # points have residuals at the gate, so a last bit lost in the
        # phase recovery or the polish flips labels here
        rng = np.random.default_rng(8)
        points = [ReducedParams(c=k * q.c, omega=k * q.omega, r=k * q.r,
                                gamma=k * q.gamma)
                  for q, k in zip(census_points()[:3000],
                                  10.0 ** rng.uniform(5.0, 8.0, 3000))]
        assert _census_mismatches(points) == []

    @pytest.mark.parametrize("gamma", [0.0, 0.6, -0.6, 1.2, math.sqrt(2.0),
                                       2.0, 2.5])
    def test_scan_plane_matches_classify_regime(self, gamma):
        # the window starts at C = 0, where at Gamma = 0 the cubic's
        # leading coefficient vanishes and it drops to a quadratic
        rmap = scan_plane(resolution=(17, 23), omega=OMEGA, gamma=gamma)
        assert _mismatches(rmap) == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_c_star_bounds_regime_two_at_zero_loss(self, sign):
        # at Gamma = 0 and Omega = 1, regime II needs |C| above
        # C* = Omega / (2 sqrt 2): a line of fixed C = 0.9 C* holds no II
        # cell, and one at 1.1 C* holds the II sliver R = 0.3182 ... 0.3224
        # (mirrored to C, R < 0).  The R step, 1e-4 over [-1, 1], puts
        # about 40 cells in the sliver
        c_star = 1.0 / (2.0 * math.sqrt(2.0))
        r = np.arange(-10000, 10001) * 1e-4
        for factor in (0.9, 1.1):
            codes, table = regime_census(sign * factor * c_star, r, 1.0, 0.0)
            two = [k for k, lab in enumerate(table) if lab.label == "II"]
            sliver = sign * r[np.isin(codes, two)]
            if factor < 1.0:
                assert sliver.size == 0
            else:
                assert sliver.size >= 30
                assert 0.318 <= sliver.min() and sliver.max() <= 0.3225

    def test_extreme_points_keep_the_scalar_labels(self):
        values = (1e300, -1e300, 1e-300, -1e-300, 0.0, 0.7, -1.3)
        points = list(itertools.product(values, values, (1e300, 1e-300, 1.0),
                                        values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes, table = regime_census(*np.array(points).T)
        assert [p for p, k in zip(points, codes.tolist())
                if table[k] != label_at(p[0], p[1], gamma=p[3], omega=p[2])] == []

    def test_polish_stops_when_no_candidate_is_left(self):
        # the array polish ends its rounds once every candidate has
        # stopped, instead of running them on empty arrays
        sizes = []
        terms = fixed_points._jacobian_terms

        def spying_terms(s, *args):
            sizes.append(np.size(s))
            return terms(s, *args)

        c, r = np.meshgrid(np.linspace(0.0, 3.0, 60),
                           np.linspace(-2.0, 2.0, 60))
        with mock.patch.object(fixed_points, "_jacobian_terms", spying_terms):
            regime_census(c, r, 1.0, 0.6)
        assert sizes and min(sizes) > 0

    def test_equal_labels_share_one_object(self):
        rmap = scan_plane(resolution=(31, 41), gamma=0.6)
        cells = [lab for _, _, lab in map_cells(rmap)]
        assert len({id(lab) for lab in cells}) == len(set(cells)) < 20

    def test_a_label_of_the_scalar_census_is_an_entry_of_its_own(self):
        # were the array census to hand points the scalar census labels,
        # each label that returns gets its own table entry and code
        census = fixed_points._census_arrays

        def handing_off(c, *args):
            *out, failed = census(c, *args)
            failed[::7] = True
            return (*out, failed)

        c, r = np.linspace(0.0, 3.0, 40), np.linspace(-2.0, 2.0, 40)
        with mock.patch.object(fixed_points, "_census_arrays", handing_off):
            codes, table = regime_census(c, r, 1.0, 0.6)
        assert [table[k] for k in codes.tolist()] == [
            label_at(ci, ri, gamma=0.6) for ci, ri in zip(c.tolist(), r.tolist())]
        handed = codes[::7].tolist()
        assert sorted(handed) == list(range(len(table) - 6, len(table)))
        assert not set(handed) & set(np.delete(codes, np.s_[::7]).tolist())

    def test_an_empty_census_has_an_empty_table(self):
        codes, table = regime_census(np.zeros((0, 3)), 0.5, 1.0, 0.6)
        assert codes.shape == (0, 3) and table == ()

    @pytest.mark.parametrize("omega, gamma, message", [
        (0.0, 0.0, "omega > 0"),
        (-1.0, 0.0, "omega must be >= 0"),
        (1.0, math.nan, "gamma must be finite"),
    ])
    def test_rejects_what_the_scalar_census_rejects(self, omega, gamma, message):
        with pytest.raises(ValueError, match=message):
            regime_census([0.0, 1.0], 0.5, omega, gamma)


def _full_census(rmap):
    """The labels one regime_census gives over rmap's grid, row-major."""
    codes, table = regime_census(rmap.c_axis[:, None], rmap.r_axis[None, :],
                                 rmap.omega, rmap.gamma)
    return [table[k] for k in codes.ravel().tolist()]


@st.composite
def windows(draw):
    """Ascending, descending and zero-width (lo, hi) pairs, some down to
    1e-4 wide."""
    start = draw(st.floats(-4.0, 4.0))
    width = draw(st.just(0.0) | st.floats(0.0, 6.0)
                 | st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e))
    return (start, start + width) if draw(st.booleans()) else (start + width, start)


class TestCodedGrid:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(c_range=windows(), r_range=windows(), nc=st.integers(2, 9),
           nr=st.integers(2, 9),
           omega=st.floats(math.log(0.2), math.log(1e4)).map(math.exp),
           gamma=st.sampled_from(GAMMAS) | st.floats(-3.0, 3.0))
    def test_codes_index_the_scalar_labels(self, c_range, r_range, nc, nr,
                                           omega, gamma):
        # table[codes] is classify_regime at every point, and a map's
        # count and area fraction are the per-cell counts of those labels
        c_axis = np.linspace(*c_range, nc)
        r_axis = np.linspace(*r_range, nr)
        codes, table = regime_census(c_axis[:, None], r_axis[None, :], omega,
                                     gamma)
        ref = [[label_at(c, r, gamma=gamma, omega=omega) for r in r_axis.tolist()]
               for c in c_axis.tolist()]
        assert codes.shape == (nc, nr)
        assert [[table[k] for k in row] for row in codes.tolist()] == ref
        rmap = scan_plane(c_range, r_range, (nc, nr), omega, gamma)
        for name in (*REGIME_LABELS, LABEL_BOUNDARY, LABEL_NONE):
            n = sum(lab.label == name for row in ref for lab in row)
            assert rmap.count(name) == n
            assert rmap.area_fraction(name) == n / (nc * nr)


class TestRunCensus:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(c_range=windows(), r_range=windows(), nc=st.integers(2, 120),
           nr=st.integers(2, 120),
           omega=st.floats(math.log(0.2), math.log(1e4)).map(math.exp),
           gamma=st.sampled_from(GAMMAS) | st.floats(-3.0, 3.0))
    @example(c_range=(1.0, 1.0), r_range=(-2.0, 2.0), nc=7, nr=9, omega=1.0,
             gamma=0.6)
    @example(c_range=(3.0, 0.0), r_range=(2.0, -2.0), nc=37, nr=41, omega=1.0,
             gamma=2.5)
    # a zoom onto R = C/3, where the census reads a double root at S = 1/3
    # for about 1e-4 on either side: hundreds of cells at this resolution
    @example(c_range=(-3.469374426711847, -3.467911194745971),
             r_range=(-1.1563482043925708, -1.1561876907842912), nc=58,
             nr=112, omega=0.78368052736531, gamma=2.59375)
    def test_scan_plane_is_one_census_of_the_grid(self, c_range, r_range, nc,
                                                  nr, omega, gamma):
        rmap = scan_plane(c_range, r_range, (nc, nr), omega, gamma)
        cells = [lab for _, _, lab in map_cells(rmap)]
        assert cells == _full_census(rmap)
        assert len({id(lab) for lab in cells}) == len(set(cells))

    @pytest.mark.parametrize("c_range, r_range, resolution, omega, gamma", [
        # a zoom onto a cusp of the fold, which turns back between two
        # samples of the tracer's start
        ((-0.4324771936152997, -0.4308376000252726),
         (-0.1606785878430746, -0.16018023652639746), (72, 69),
         0.9779755536801034, 2.4760997383146615),
        # the fold comes from infinity at S*, along the thin window, then
        # turns back below it within the tracer's first step of s
        ((2.1630838088257476, 2.2381687008701197),
         (-0.015294247195004712, -0.014512719658550432), (72, 89),
         1.3666361076642972, -2.7319789584924044),
        # the fold runs off to S = 1 inside the tracer's last step of s
        ((-2.632045049248152, -2.5926160947405545),
         (-2.5271498666752885, -2.391753645355114), (101, 51),
         0.024947900032341003, 0.005901579419257024),
        # the default map times 2^20, where the residual gate decides
        ((0.0, 3.0 * 2.0**20), (-2.0 * 2.0**20, 2.0 * 2.0**20), (41, 41),
         2.0**20, 0.6 * 2.0**20),
        # a window 1e-227 high that the fold crosses between two samples
        ((4.910222375236457, 0.037037037037037035),
         (1e-300, 8.220810338782121e-228), (11, 11), 1.0, 0.0),
        # squares of Omega and Gamma overflow
        ((0.0, 3.0), (-2.0, 2.0), (9, 9), 1e300, 0.0),
        ((0.0, 3.0), (-2.0, 2.0), (9, 9), 1.0, -1e300),
        ((-1e300, 1e300), (-1e300, 1e300), (9, 9), 1.0, 0.6),
        # R = C/3 at Omega = 1000: the census reads a double root at
        # S = 1/3 up to about 4e-3 off the line, nine cells here
        ((1.0, 1.1), (0.3, 0.4), 200, 1000.0, 0.0),
        # R = C/3 at Gamma = sqrt6 Omega, where S* = 1/3 and that band
        # is widest, about 3e-3 here: 36 cells on either side
        ((2.0905, 2.0955), (0.6926666666666667, 0.7026666666666667),
         (120, 120), 0.2235, math.sqrt(6.0) * 0.2235),
        # rows thousands of cells long, where a run of free cells reaches
        # far from the cell that stands for it, and thousands of short rows
        ((0.0, 3.0), (-2.0, 2.0), (7, 3000), 1.0, 0.6),
        ((0.0, 3.0), (-2.0, 2.0), (3000, 7), 1.0, 0.6),
        ((2.6, 3.0), (1.6, 2.0), (5, 2000), 1.0, 0.6),
    ])
    def test_scan_plane_is_one_census_where_sampling_or_the_gate_decide(
            self, c_range, r_range, resolution, omega, gamma):
        rmap = scan_plane(c_range, r_range, resolution, omega, gamma)
        assert [lab for _, _, lab in map_cells(rmap)] == _full_census(rmap)

    def test_default_map_censuses_an_eighth_of_its_cells_in_one_call(self):
        with mock.patch("atomol.regimes.regime_census",
                        wraps=regime_census) as census:
            rmap = scan_plane(gamma=0.6)
        assert census.call_count == 1
        assert census.call_args.args[0].size <= 5_000
        assert [lab for _, _, lab in map_cells(rmap)] == _full_census(rmap)

    @pytest.mark.parametrize("r_range, skipped", [
        # the default window: its largest gate value is 6,609, at the
        # corner C = 3, R = -2, so no cell's value is computed
        ((-2.0, 2.0), True),
        # 17,900 at the corner C = 3, R = -3.5 but 1,760 at C = 0: cells
        # on either side of the limit, each computed
        ((-3.5, 2.0), False),
    ])
    def test_the_gate_bound_marks_what_every_cell_would(self, r_range,
                                                        skipped):
        c_axis = np.linspace(0.0, 3.0, 200)
        r_axis = np.linspace(*r_range, 200)
        lam, eps = regimes._census_size(c_axis[:, None], r_axis[None, :],
                                        OMEGA, 0.6)
        gated = lam * eps ** -1.5 > regimes.GATE_LIMIT
        assert gated.any() != skipped and not gated.all()
        rmap = RegimeMap(c_axis=c_axis, r_axis=r_axis,
                         codes=np.zeros((0, 0), dtype=int), table=(),
                         omega=OMEGA, gamma=0.6)
        with mock.patch.object(regimes, "GATE_LIMIT", math.inf):
            chords = regimes._marked_cells(rmap)
        with mock.patch.object(regimes, "_census_size",
                               wraps=regimes._census_size) as size:
            marked = regimes._marked_cells(rmap)
        assert (marked == (chords | gated)).all()
        shapes = [np.broadcast(*call.args[:2]).shape
                  for call in size.call_args_list]
        assert ((200, 200) in shapes) != skipped


class TestTraceBoundaries:
    def test_crossing_on_r_axis_matches_closed_form(self):
        # at C = 0 the oscillation regime ends where a root exits through
        # S = -1, i.e. |R| = Omega/sqrt2; bisection against that oracle
        rmap = scan_plane(c_range=(0.0, 0.25), r_range=(0.2, 1.2),
                          resolution=(6, 41), omega=OMEGA, gamma=0.0)
        polys = trace_boundaries(rmap, refine_tol=1e-6)
        r0_expected = OMEGA / math.sqrt(2.0)
        near_axis = [
            float(pt[1])
            for poly in polys if "III" in poly.labels
            for pt in poly.points if pt[0] < 0.06
        ]
        assert near_axis
        assert min(abs(r - r0_expected) for r in near_axis) < 2e-4

    def test_loss_shifts_crossing_down(self):
        # R1(gamma=0.9) < R0(gamma=0)
        def crossing(gamma):
            lo, hi = 0.2, 1.2
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if label_at(0.0, mid, gamma=gamma).label == "III":
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        r0 = crossing(0.0)
        r1 = crossing(0.9)
        assert r0 == pytest.approx(OMEGA / math.sqrt(2.0), abs=1e-6)
        assert r1 == pytest.approx(math.sqrt(0.5 - 0.9 ** 2 / 4.0), abs=1e-6)
        assert r1 < r0

    def test_symmetric_crossings_at_zero_loss(self):
        # boundaries at C = 0 are symmetric under R -> -R
        def crossing(sign):
            lo, hi = 0.2, 1.2
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                if label_at(0.0, sign * mid).label == "III":
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert crossing(+1.0) == pytest.approx(crossing(-1.0), abs=1e-9)

    def test_polylines_separate_distinct_labels(self):
        rmap = scan_plane(resolution=(21, 29), gamma=0.0)
        for poly in trace_boundaries(rmap, refine_tol=1e-4):
            assert poly.labels[0] != poly.labels[1]
            assert len(poly.points) >= 1

    def test_refinement_keeps_vertices_on_the_bifurcation_curve(self):
        # at zero loss every boundary adjacent to regime III sits exactly
        # on the straight lines |C + R| = Omega/sqrt2 (a root crossing
        # S = -1), an exact oracle: vertices of both the coarse and the
        # 2x-refined map must stay within 2*refine_tol of that curve
        refine_tol = 1e-4
        window = dict(c_range=(0.0, 0.6), r_range=(-1.0, 1.0), gamma=0.0)
        level = OMEGA / math.sqrt(2.0)
        counts = []
        for resolution in ((13, 41), (25, 81)):
            rmap = scan_plane(resolution=resolution, **window)
            polys = [p for p in trace_boundaries(rmap, refine_tol=refine_tol)
                     if "III" in p.labels]
            n_vertices = 0
            for poly in polys:
                for c, r in poly.points:
                    dist = abs(abs(c + r) - level) / math.sqrt(2.0)
                    assert dist < 2.0 * refine_tol
                    n_vertices += 1
            counts.append(n_vertices)
        assert counts[0] > 20
        assert counts[1] > counts[0]

    @pytest.mark.parametrize("refine_tol", [0.0, -1.0, math.nan, math.inf])
    def test_refine_tol_must_be_finite_and_positive(self, refine_tol):
        rmap = scan_plane(resolution=3, gamma=0.0)
        with pytest.raises(ValueError, match="refine_tol"):
            trace_boundaries(rmap, refine_tol=refine_tol)

    def test_bisection_stops_when_the_segment_cannot_shrink(self):
        # 1e-12 and 1e-300 are both below what the census resolves: the
        # side probes fall back to the same floor offset, same polylines
        rmap = scan_plane(c_range=(0.0, 0.25), r_range=(0.2, 1.2),
                          resolution=(3, 5), gamma=0.0)
        fine = trace_boundaries(rmap, refine_tol=1e-12)
        finest = trace_boundaries(rmap, refine_tol=1e-300)
        assert fine and len(finest) == len(fine)
        for a, b in zip(fine, finest):
            assert a.labels == b.labels
            assert np.abs(a.points - b.points).max() < 1e-12

    def test_oracle_bisection_stops_when_the_segment_cannot_shrink(self):
        # 1e-300 is below the float spacing of the grid: bisection must
        # halt when the midpoint rounds to an end, on the same point
        rmap = scan_plane(c_range=(0.0, 0.25), r_range=(0.2, 1.2),
                          resolution=(3, 5), gamma=0.0)
        fine = bisection_boundaries(rmap, refine_tol=1e-12)
        finest = bisection_boundaries(rmap, refine_tol=1e-300)
        assert fine and len(finest) == len(fine)
        for (key_a, a), (key_b, b) in zip(fine, finest):
            assert key_a == key_b
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("resolution", [21, 41])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_vertices_sit_on_a_flip(self, gamma, resolution):
        # every inner vertex separates its two regimes within refine_tol,
        # read as close as the census resolves, so that a sliver of a
        # third regime between two nearby curves shows; the ends may sit
        # on a window edge or a junction of curves
        tol = 1e-3
        rmap = scan_plane(resolution=resolution, omega=OMEGA, gamma=gamma)
        polys = trace_boundaries(rmap, refine_tol=tol)
        assert polys
        for poly in polys:
            for c, r in poly.points[1:-1]:
                assert set(poly.labels) <= _labels_next_to(c, r, tol, gamma)

    @pytest.mark.parametrize("gamma", [2.5, 2.59375, 2.65625, 2.9])
    def test_envelope_line_is_traced_once(self, gamma):
        # above Gamma = 2 Omega regimes I and IV meet on R = S* C, one
        # line at g(S*) = 0 however S* rounds
        s_env = 1.0 - 4.0 * OMEGA ** 2 / gamma ** 2
        rmap = scan_plane(resolution=41, omega=OMEGA, gamma=gamma)
        on_line = [p for p in trace_boundaries(rmap, refine_tol=1e-3)
                   if np.allclose(p.points[:, 1], s_env * p.points[:, 0],
                                  rtol=0.0, atol=1e-12)]
        assert [p.labels for p in on_line] == [("I", "IV")]
        assert len(on_line[0].points) > 5

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_agrees_with_the_bisection_oracle(self, gamma):
        tol = 1e-3
        rmap = scan_plane(resolution=41, omega=OMEGA, gamma=gamma)
        cell = math.hypot(rmap.c_axis[1] - rmap.c_axis[0],
                          rmap.r_axis[1] - rmap.r_axis[0])
        polys = trace_boundaries(rmap, refine_tol=tol)
        oracle = bisection_boundaries(rmap, refine_tol=tol)
        # oracle vertices whose label pair the census confirms nearby
        confirmed = [(key, pt) for key, chain in oracle for pt in chain
                     if set(key) <= _labels_around(*pt, tol, gamma)]
        assert confirmed
        dist = bifurcation_distance([pt for _, pt in confirmed], OMEGA, gamma)
        assert dist.max() < tol
        for key, pt in confirmed:
            assert min(_point_to_polyline(pt, p.points)
                       for p in polys if p.labels == key) < cell
        oracle_points = np.concatenate([chain for _, chain in oracle])
        for poly in polys:
            if len(poly.points) >= 3:
                assert min(_point_to_polyline(pt, poly.points)
                           for pt in oracle_points) < cell

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(c_range=windows().filter(lambda w: w[0] != w[1]),
           r_range=windows().filter(lambda w: w[0] != w[1]),
           nc=st.integers(2, 80), nr=st.integers(2, 80),
           omega=st.floats(math.log(0.2), math.log(1e4)).map(math.exp),
           gamma=st.sampled_from(GAMMAS) | st.floats(-3.0, 3.0))
    # the fold comes from infinity at S* along the thin window and turns
    # back below it, both within one step of the fold's 65 even starts
    @example(c_range=(2.1630838088257476, 2.2381687008701197),
             r_range=(-0.015294247195004712, -0.014512719658550432), nc=72,
             nr=89, omega=1.3666361076642972, gamma=-2.7319789584924044)
    # the fold runs off to S = 1 inside the last of those steps
    @example(c_range=(-2.632045049248152, -2.5926160947405545),
             r_range=(-2.5271498666752885, -2.391753645355114), nc=60, nr=60,
             omega=0.024947900032341003, gamma=0.005901579419257024)
    def test_every_regime_flip_of_the_grid_is_near_a_vertex(
            self, c_range, r_range, nc, nr, omega, gamma):
        # each grid edge between two different regimes lies within one
        # cell of a polyline vertex
        rmap = scan_plane(c_range, r_range, (nc, nr), omega, gamma)
        assert _uncovered_flips(rmap, trace_boundaries(rmap)) == []

    def test_tiny_refine_tol_keeps_the_label_pairs(self):
        # the tracer reads the window, the spacing, Omega and Gamma of
        # the map, not its labels: a label-free map of the default grid
        rmap = RegimeMap(c_axis=np.linspace(0.0, 3.0, 200),
                         r_axis=np.linspace(-2.0, 2.0, 200),
                         codes=np.zeros((0, 0), dtype=int), table=(),
                         omega=OMEGA, gamma=0.6)
        pairs = [{p.labels for p in trace_boundaries(rmap, refine_tol=tol)}
                 for tol in (1e-3, 1e-300)]
        assert pairs[0] == pairs[1]
        assert len(pairs[0]) == 4

    def test_root_lines_sit_on_the_loss_threshold(self):
        # regime III meets II and IV where a root reaches S = -1, the
        # lines |C + R| = sqrt(Omega^2/2 - Gamma^2/4) of threshold_gamma
        gamma = 0.6
        rmap = scan_plane(resolution=41, omega=OMEGA, gamma=gamma)
        vertices = [pt for p in trace_boundaries(rmap)
                    if p.labels in (("II", "III"), ("III", "IV"))
                    for pt in p.points]
        assert len(vertices) > 40
        for c, r in vertices:
            assert threshold_gamma(c, r, OMEGA) == pytest.approx(gamma, abs=1e-12)

    @pytest.mark.parametrize("c_range, r_range, resolution, omega, gamma", [
        ((0.0, 3.0), (-2.0, 2.0), 200, OMEGA, 0.6),
        ((0.0, 3.0), (-2.0, 2.0), (400, 3), OMEGA, 0.3),
        ((0.0, 3.0), (-2.0, 2.0), (3, 400), OMEGA, 0.9),
        ((0.0, 3.0), (-2.0, 2.0), 61, OMEGA, 2.5),
        ((0.0, 3.0), (-2.0, 2.0), 61, OMEGA, 1.9375),
        # a thin window that a fold crosses from infinity and turns back in
        ((2.1630838088257476, 2.2381687008701197),
         (-0.015294247195004712, -0.014512719658550432), (72, 89),
         1.3666361076642972, -2.7319789584924044),
    ])
    def test_bucketed_distance_keeps_the_tracer_bits(self, c_range, r_range,
                                                     resolution, omega, gamma):
        rmap = scan_plane(c_range, r_range, resolution, omega, gamma)
        calls, bad = _traced_distance_mismatches(rmap)
        assert calls and bad == []

    def test_existence_curve_is_where_the_boundary_point_appears(self):
        curves = boundary_fp_existence_curve(OMEGA)
        assert curves
        for curve in curves:
            for c, r in curve[::7]:
                assert abs(abs(math.sqrt(2.0) * (c + r)) - OMEGA) < 1e-9


def _uncovered_flips(rmap, polys):
    """Midpoints of the grid edges between two different regimes that lie
    more than one cell (max-norm, in cells per axis) from every vertex of
    the polylines."""
    labels = np.array([lab.label for lab in rmap.table])[rmap.codes]
    regime = np.isin(labels, REGIME_LABELS)
    grid = np.stack(np.meshgrid(rmap.c_axis, rmap.r_axis, indexing="ij"), axis=-1)
    mids = []
    for a, b in (((slice(None, -1),), (slice(1, None),)),
                 ((slice(None), slice(None, -1)), (slice(None), slice(1, None)))):
        flip = regime[a] & regime[b] & (labels[a] != labels[b])
        mids.append(0.5 * (grid[a] + grid[b])[flip])
    mids = np.concatenate(mids)
    vertices = np.concatenate([p.points for p in polys] + [np.full((1, 2), np.inf)])
    cell = np.abs([rmap.c_axis[1] - rmap.c_axis[0], rmap.r_axis[1] - rmap.r_axis[0]])
    near = [(np.abs(vertices - m) / cell).max(axis=1).min() <= 1.0 for m in mids]
    return mids[~np.array(near, dtype=bool)].tolist()


def _labels_around(c, r, tol, gamma):
    """Census labels at (c +- tol, r) and (c, r +- tol)."""
    return {label_at(c + dc, r + dr, gamma=gamma).label
            for dc, dr in ((tol, 0.0), (-tol, 0.0), (0.0, tol), (0.0, -tol))}


def _labels_next_to(c, r, tol, gamma):
    """_labels_around at the finest of tol/1000, tol/100, tol/10 where no
    probe reads boundary, else at tol."""
    for eps in (1e-3 * tol, 1e-2 * tol, 1e-1 * tol):
        labels = _labels_around(c, r, eps, gamma)
        if labels <= set(REGIME_LABELS):
            return labels
    return _labels_around(c, r, tol, gamma)


def _point_to_polyline(pt, points):
    pts = np.asarray(points, dtype=float)
    a, ab = pts[:-1], np.diff(pts, axis=0)
    if len(pts) == 1:
        a, ab = pts, np.zeros((1, 2))
    denom = np.einsum("ij,ij->i", ab, ab)
    t = np.einsum("ij,ij->i", np.asarray(pt) - a, ab) / np.where(denom, denom, 1.0)
    foot = a + np.clip(t, 0.0, 1.0)[:, None] * ab
    return float(np.hypot(*(foot - pt).T).min())


def _capped_bits_differ(pts, chords, reach, cell):
    """Indices of the points where _distance_to_chords and the all-pairs
    oracle, both capped at reach, differ in any bit."""
    new = np.fmin(_distance_to_chords(pts, chords, reach, cell), reach)
    with np.errstate(all="ignore"):
        ref = np.fmin(distance_to_chords(pts, chords), reach)
    return np.flatnonzero(new.view(np.int64) != ref.view(np.int64)).tolist()


def _traced_distance_mismatches(rmap):
    """(calls, vertices) of trace_boundaries(rmap): how many distance
    calls it made, and each vertex where the capped distance it read
    differs from the oracle's."""
    calls, bad = [], []

    def checked(pts, chords, reach, cell):
        calls.append(len(pts))
        bad.extend(pts[_capped_bits_differ(pts, chords, reach, cell)].tolist())
        return _distance_to_chords(pts, chords, reach, cell)

    with mock.patch("atomol.regimes._distance_to_chords", checked):
        trace_boundaries(rmap)
    return len(calls), bad


@st.composite
def chord_inputs(draw):
    """(pts, chords, reach, cell) on a grid of cells from an origin, the
    lowest point: points on and between cell edges and within about
    reach of a chord, chords up to a cell long on each axis from a cell
    edge or off it, longer ones and zero-length ones, ends outside the
    points' box, extents 0 and 1e-227 to 1e300 on each axis."""
    extent = np.array(draw(st.lists(st.just(0.0) | st.floats(-227.0, 300.0).map(
        lambda e: 10.0 ** e), min_size=2, max_size=2)))
    cell = extent / np.array(draw(st.lists(st.integers(1, 60), min_size=2,
                                           max_size=2)))
    origin = extent * draw(st.floats(-4.0, 4.0)) + draw(
        st.just(0.0) | st.floats(-1e300, 1e300))
    reach = draw(st.floats(0.0, 0.5)) * cell.min()
    quarters = st.integers(0, 240).map(lambda k: 0.25 * k)
    unit = st.floats(-1.0, 1.0)
    pts = [np.zeros(2)] + [np.array(p) for p in draw(
        st.lists(st.tuples(quarters, quarters), max_size=40))]
    ends = []
    for kind in draw(st.lists(st.sampled_from(["short", "zero", "long"]),
                              max_size=40)):
        a = np.array([draw(quarters), draw(quarters)])
        if draw(st.booleans()):
            a = a + draw(unit)
        if kind == "short":
            b = a + [draw(unit), draw(unit)]
        elif kind == "zero":
            b = a
        else:
            b = a + [draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0))]
        ends.append([a, b])
        if draw(st.booleans()):  # a point about reach from the chord
            phi = draw(st.floats(0.0, 2.0 * math.pi))
            off = reach * draw(st.floats(0.0, 1.5)) * np.array([math.cos(phi),
                                                                math.sin(phi)])
            with np.errstate(all="ignore"):
                pts.append(a + draw(st.floats(0.0, 1.0)) * (b - a) + off / cell)
    pts = origin + cell * np.array(pts)
    chords = origin + cell * np.array(ends, ndmin=3).reshape(-1, 2, 2)
    keep = np.isfinite(pts).all(axis=1)
    return pts[keep], chords, reach, cell


class TestTracerParts:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(chord_inputs())
    @example((np.zeros((0, 2)), np.ones((3, 2, 2)), 0.1, np.array([1.0, 1.0])))
    @example((np.ones((3, 2)), np.zeros((0, 2, 2)), 0.1, np.array([1.0, 1.0])))
    @example((np.ones((3, 2)), np.ones((4, 2, 2)), 0.0, np.zeros(2)))
    @example((np.array([[0.0, 0.0], [1.0, 1.0]]),
              np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]]),
              0.5, np.array([1.0, 1.0])))
    # a long chord whose rounding puts a point outside its reach-grown
    # box at distance 0: the box's slack must cover it
    @example((np.array([[1.0000000000010003, 0.0]]),
              np.array([[[-1000000.1234567, 0.0], [1.0, 0.0]]]), 1e-12,
              np.array([1.0, 1.0])))
    def test_capped_distance_has_the_all_pairs_bits(self, case):
        assert _capped_bits_differ(*case) == []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf,
                                     -math.inf, math.nan, -math.nan])
                    | st.floats(allow_nan=True), max_size=60))
    def test_sorted_dedupe_is_np_unique(self, values):
        x = np.array(values, dtype=float)
        assert _unique(x).tobytes() == np.unique(x).tobytes()

    def test_classify_regime_computes_no_spectra(self):
        points = census_points()[:500]
        with mock.patch("atomol.fixed_points._spectrum",
                        side_effect=AssertionError("spectrum")):
            labels = [classify_regime(q) for q in points]
        codes, table = regime_census(*(np.array([getattr(q, name) for q in points])
                                       for name in ("c", "r", "omega", "gamma")))
        assert labels == [table[k] for k in codes.tolist()]

    def test_cusps_are_solved_once_per_map(self):
        # the scan samples the set into the map, and the tracer reads it
        with mock.patch.object(regimes, "_cusps", wraps=regimes._cusps) as cusps:
            rmap = scan_plane(resolution=41, gamma=0.615)
            assert "_sampled_curves" in vars(rmap)
            trace_boundaries(rmap)
        assert cusps.call_count == 1

    def test_a_hand_built_map_samples_once_however_often_traced(self):
        # a label-free map samples on its first trace and keeps it; an
        # equal map samples its own, to the same polylines
        def label_free():
            return RegimeMap(c_axis=np.linspace(0.0, 3.0, 41),
                             r_axis=np.linspace(-2.0, 2.0, 41),
                             codes=np.zeros((0, 0), dtype=int), table=(),
                             omega=OMEGA, gamma=0.615)

        rmap = label_free()
        with mock.patch.object(regimes, "_cusps", wraps=regimes._cusps) as cusps:
            traces = [trace_boundaries(rmap) for _ in range(2)]
            assert cusps.call_count == 1
            traces.append(trace_boundaries(label_free()))
        assert cusps.call_count == 2
        assert len(traces[0]) == 4
        for polys in traces[1:]:
            assert [(p.labels, p.points.tobytes()) for p in polys] == \
                [(p.labels, p.points.tobytes()) for p in traces[0]]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(omega=st.floats(math.log(0.05), math.log(1e3)).map(math.exp),
           ratio=st.floats(0.0, 4.0))
    # G^2 just above 6 Om^2, where the cusp lies within one step of s0
    # on a 4,096-step scan of s
    @example(omega=1.0, ratio=2.449489745232668)
    @example(omega=1.0, ratio=math.sqrt(6.0))
    def test_the_fold_has_a_cusp_iff_gamma_squared_exceeds_six_omega_squared(
            self, omega, ratio):
        om2, g2 = omega ** 2, (ratio * omega) ** 2
        s0 = max(-1.0, 1.0 - 4.0 * om2 / g2) if g2 else -1.0

        def shape(s):  # g''/h' with h = g / (1 - 3s) and h' > 0
            w = 1.0 - s
            h2 = (4.0 * om2 / w - g2) / 64.0
            return (1.0 - 3.0 * s) * (2.0 / w - om2 / (32.0 * w * w * h2)) - 6.0

        cusps = regimes._cusps(om2, g2, s0).tolist()
        assert len(cusps) == (g2 > 6.0 * om2)
        if cusps:
            s_c = cusps[0]
            assert s0 < s_c < 1.0
            step = 1e-3 * min(s_c - s0, 1.0 - s_c)
            assert shape(s_c - step) * shape(s_c + step) < 0.0
        else:
            s = np.linspace(s0, 1.0, 4097)[1:-1]
            assert len(set(np.signbit(shape(s)).tolist())) == 1

    @pytest.mark.parametrize("zoom, gamma", [
        (None, 0.6),
        # onto the fold's cusp, Gamma just above sqrt6 Omega
        (1e-2, 1.01 * math.sqrt(6.0)), (1e-4, 1.001 * math.sqrt(6.0))])
    def test_each_exit_vertex_is_the_last_float_inside(self, zoom, gamma):
        # where a sampled curve leaves the window, the vertex _sample
        # added maps inside, and the next float of its parameter toward
        # the outside vertex maps outside, unless 64 halvings of the
        # crossing step could not reach adjacent floats
        if zoom is None:
            c_range, r_range, n = (0.0, 3.0), (-2.0, 2.0), 200
        else:
            om2, g2 = OMEGA ** 2, gamma ** 2
            s = 1.0 - 6.0 * om2 / (2.0 * g2 - 3.0 * om2)  # the cusp
            h = math.sqrt((4.0 * om2 / (1.0 - s) - g2) / 64.0)
            dg = (1.0 - 3.0 * s) * om2 / (32.0 * (1.0 - s) ** 2 * h) - 3.0 * h
            c, r = dg, s * dg - (1.0 - 3.0 * s) * h
            c_range, r_range, n = (c - zoom, c + zoom), (r - zoom, r + zoom), 50
        rmap = RegimeMap(np.linspace(*c_range, n), np.linspace(*r_range, n),
                         np.zeros((0, 0), dtype=int), (), OMEGA, gamma)
        lo, hi, cell = rmap._window

        def maps_inside(curve, t):
            c, r = curve(t)[:2]
            return bool(lo[0] <= c <= hi[0] and lo[1] <= r <= hi[1])

        exits = 0
        with np.errstate(all="ignore"):
            for curve, t, _ in regimes._bifurcation_set(OMEGA, gamma,
                                                        np.array([lo[0], hi[0]])):
                t, inside = regimes._sample(curve, t, lo, hi, cell)
                for k in np.flatnonzero(inside[:-1] != inside[1:]).tolist():
                    at, out = (k, k + 1) if inside[k] else (k + 1, k)
                    t_at, t_out = t[at].item(), t[out].item()
                    assert maps_inside(curve, t_at)
                    after = math.nextafter(t_at, t_out)
                    # the crossing step began at the inside vertex before
                    # this one, or at this one
                    before = at - (out - at)
                    t_from = (t[before].item() if 0 <= before < len(t)
                              and inside[before] else t_at)
                    capped = abs(t_out - t_from) * 2.0 ** -62 > abs(after - t_at)
                    assert capped or not maps_inside(curve, after), (t_at, t_out)
                    exits += 1
        assert exits >= 2

    def test_a_zero_cell_map_is_traced_unsampled_by_the_scan(self):
        # the scan marks every cell of a zero-width window without
        # sampling the set; the tracer samples it on its own
        rmap = scan_plane((1.0, 1.0), (-2.0, 2.0), (7, 9), 1.0, 0.6)
        assert "_sampled_curves" not in vars(rmap)
        assert trace_boundaries(rmap) == []
        assert "_sampled_curves" in vars(rmap)

    def test_regimes_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma; the regimes command needs it nowhere
        code = ("import sys; from atomol.cli import main; "
                "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", code, "regimes", "--resolution", "41",
             "--output", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True, timeout=120)
        assert proc.stdout.splitlines()[-1].split() == ["0", "False"], proc.stderr


class TestFixedPointLocus:
    def test_r_sweep_passes_through_symmetric_point(self):
        branches = fixed_point_locus("R", (-0.5, 0.5), 101, 0.0, OMEGA, 0.0)
        at_zero = [s for br in branches
                   for p, s in zip(br.param, br.s) if p == 0.0]
        assert at_zero == pytest.approx([1.0 / 3.0], abs=1e-9)

    def test_c_sweep_branch_count_jumps_at_threshold(self):
        # the third branch appears where the cubic roots the boundary,
        # C0 = Omega/sqrt2 at zero loss
        branches = fixed_point_locus("C", (0.0, 2.0), 161, 0.0, OMEGA, 0.0)

        def count_at(c):
            return sum(1 for br in branches
                       for p in br.param if abs(p - c) < 1e-9)

        c0 = OMEGA / math.sqrt(2.0)
        assert count_at(0.5) == 2
        assert count_at(1.0) == 3
        below = max(p for br in branches for p in br.param
                    if count_at(p) == 2)
        above = min(p for br in branches for p in br.param
                    if count_at(p) == 3)
        assert below < c0 < above + 1e-9

    def test_loss_lowers_self_trapping_threshold(self):
        # with gamma = 1.5 the third branch is present from C = 0 on
        branches = fixed_point_locus("C", (0.0, 2.0), 41, 0.0, OMEGA, 1.5)

        def count_at(c):
            return sum(1 for br in branches
                       for p in br.param if abs(p - c) < 1e-9)

        assert count_at(0.05) == 3  # C1 below the grid start, < C0


if __name__ == "__main__":
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # sqrt6 and just above it put the fold's cusp near S = 1/3, where
        # the census's band around R = C/3 is widest
        for gamma in sorted({0.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.2,
                             math.sqrt(6.0), 2.449489745232668, *GAMMAS}):
            with mock.patch("atomol.regimes.regime_census",
                            wraps=regime_census) as census:
                rmap = scan_plane(omega=OMEGA, gamma=gamma)
            censused = census.call_args.args[0].size
            bad = _mismatches(rmap)
            for c, r, lab, ref in bad:
                print(f"gamma={gamma!r} c={c!r} r={r!r}: scan_plane {lab}, "
                      f"classify_regime {ref}")
            # cells.csv from the axes and the labels, against the
            # row-by-row oracle
            write_csv_rows(tmp / "rows.csv", CELL_HEADER, cell_rows(rmap))
            lines = [path.read_text().splitlines() for path in
                     (write_cells(tmp, rmap, "csv"), tmp / "rows.csv")]
            rows = (len(lines[0]) != len(lines[1])) + sum(
                a != b for a, b in zip(*lines))
            # the tracer's bucketed chord distance, against all pairs
            _, far = _traced_distance_mismatches(rmap)
            print(f"gamma={gamma!r}: {censused} of 40000 cells censused, "
                  f"{len(bad)} differ, {rows} cells.csv lines differ, "
                  f"{len(far)} tracer distances differ", file=sys.stderr)
            differ += len(bad) + rows + len(far)
    sys.exit(1 if differ else 0)
