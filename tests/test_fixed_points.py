"""Fixed points: cubic, phase recovery, Jacobian, stability, thresholds."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from atomol.fixed_points import (
    CubicCoefficients,
    KIND_CENTER,
    KIND_SADDLE,
    KIND_SPIRAL_REPELLER,
    RESIDUAL_TOL,
    _jacobian_entries,
    _polish_point,
    all_fixed_points,
    boundary_fixed_point,
    cubic_coefficients,
    interior_census,
    interior_fixed_points,
    real_cubic_roots,
    residual,
    threshold_gamma,
)
from atomol.model import PoleError, ReducedParams, angle_distance, reduced_deriv
from atomol.regimes import classify_regime

from oracles import (
    ATTRACTOR_KINDS,
    REPELLER_KINDS,
    bisect_roots,
    classify,
    cubic_derivative,
    eigenvalues_2x2,
    eliminated_phase_polynomial,
    jacobian,
    newton_survey,
    threshold_by_bisection,
)

SQRT6 = math.sqrt(6.0)

# deterministic and without an example database, so the suite is replayable
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

# roots on a 1/1024 grid in [-1.25, 1.25]: with an integer leading
# coefficient every product below is exact, so the cubic built from them
# has exactly these roots
DYADIC_ROOT = st.integers(-1280, 1280).map(lambda i: i / 1024.0)
LEADING = st.integers(1, 100).map(float)

# the parameter box of random_reduced, with the Gamma range of the census
REDUCED = st.builds(ReducedParams, c=st.floats(-3.0, 3.0),
                    omega=st.floats(0.2, 3.0), r=st.floats(-2.0, 2.0),
                    gamma=st.floats(-2.5, 2.5))

# time reversal (Gamma -> -Gamma, theta -> -theta) swaps these kinds
REVERSED_KIND = dict(zip(ATTRACTOR_KINDS + REPELLER_KINDS,
                         REPELLER_KINDS + ATTRACTOR_KINDS))


def random_reduced(rng, gamma_scale=2.0):
    return ReducedParams(c=rng.uniform(-3.0, 3.0),
                         omega=rng.uniform(0.2, 3.0),
                         r=rng.uniform(-2.0, 2.0),
                         gamma=rng.uniform(-gamma_scale, gamma_scale))


class TestCubicCoefficients:
    def test_no_coupling_no_loss(self):
        cc = cubic_coefficients(ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0))
        assert (cc.c3, cc.c2, cc.c1, cc.c0) == (0.0, 36.0, -24.0, 4.0)
        # 36 S^2 - 24 S + 4 = 4 (3S - 1)^2: double root at 1/3
        assert cc.evaluate(1.0 / 3.0) == pytest.approx(0.0, abs=1e-14)

    def test_threshold_loss_roots_the_boundary(self):
        cc = cubic_coefficients(ReducedParams(c=0.0, omega=1.0, r=0.0,
                                              gamma=math.sqrt(2.0)))
        assert cc.evaluate(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_value_closed_form(self):
        # cubic at S = -1 equals -32 G^2 + 64 Om^2 - 128 (C+R)^2
        rng = np.random.default_rng(31)
        for _ in range(200):
            q = random_reduced(rng)
            cc = cubic_coefficients(q)
            expected = (-32.0 * q.gamma ** 2 + 64.0 * q.omega ** 2
                        - 128.0 * (q.c + q.r) ** 2)
            assert cc.evaluate(-1.0) == pytest.approx(
                expected, abs=1e-9 * max(1.0, abs(expected)))

    def test_matches_phase_elimination_derivation(self):
        # the cubic must be re-derivable by eliminating theta through
        # sin^2 + cos^2 = 1 (up to overall sign convention)
        rng = np.random.default_rng(37)
        for _ in range(200):
            q = random_reduced(rng)
            cc = cubic_coefficients(q)
            s = rng.uniform(-1.5, 1.5, size=8)
            direct = cc.evaluate(s)
            derived = eliminated_phase_polynomial(q, s)
            scale = np.maximum(1.0, np.abs(direct))
            assert np.max(np.abs(direct - derived) / scale) < 1e-10


def from_roots(k, r1, r2, r3):
    """k (s - r1)(s - r2)(s - r3), expanded."""
    return CubicCoefficients(c3=k, c2=-k * (r1 + r2 + r3),
                             c1=k * (r1 * r2 + r1 * r3 + r2 * r3),
                             c0=-k * r1 * r2 * r3)


class TestRealCubicRoots:
    @PROPERTY
    @given(LEADING, st.lists(DYADIC_ROOT, min_size=3, max_size=3,
                             unique=True).map(sorted)
           .filter(lambda r: min(r[1] - r[0], r[2] - r[1]) > 1e-3))
    @example(100.0, [-1.1220703125, -1.1201171875, -1.109375])
    def test_three_simple_roots(self, k, roots):
        cc = from_roots(k, *roots)
        found = real_cubic_roots(cc)
        assert [m for _, m in found] == [1, 1, 1]
        assert [s for s, _ in found] == sorted(s for s, _ in found)
        for (s, _), r in zip(found, roots):
            # evaluating p has a rounding error up to 4 eps times the sum of
            # its term magnitudes; next to a root that error moves the
            # iterate by its size over |p'(r)|
            horner = 4.0 * 2.0 ** -52 * (abs(cc.c3 * r ** 3) + abs(cc.c2 * r * r)
                                         + abs(cc.c1 * r) + abs(cc.c0))
            assert abs(s - r) <= 1e-12 * (1.0 + abs(r)) \
                + horner / abs(cubic_derivative(cc, r))

    @PROPERTY
    @given(LEADING, DYADIC_ROOT, DYADIC_ROOT)
    def test_double_root(self, k, a, b):
        assume(abs(a - b) > 1e-2)  # near a triple root the fold test is blind
        found = real_cubic_roots(from_roots(k, a, a, b))
        assert sorted(found) == found
        assert [m for _, m in found] == ([2, 1] if a < b else [1, 2])
        (s_a,) = [s for s, m in found if m == 2]
        (s_b,) = [s for s, m in found if m == 1]
        assert s_a == pytest.approx(a, abs=1e-12 * (1.0 + abs(a)))
        assert s_b == pytest.approx(b, abs=1e-12 * (1.0 + abs(b)))

    @PROPERTY
    @given(st.floats(0.2, 3.0),
           st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01)))
    def test_degree_two_on_the_no_coupling_no_loss_line(self, omega, r):
        # C = Gamma = 0: 4 Om^2 (1 - 3S)^2 = 64 R^2 (1 - S), a quadratic
        cc = cubic_coefficients(ReducedParams(c=0.0, omega=omega, r=r,
                                              gamma=0.0))
        assert cc.c3 == 0.0
        found = real_cubic_roots(cc)
        if r == 0.0:
            assert found == [(pytest.approx(1.0 / 3.0, abs=1e-15), 2)]
            return
        # discriminant c1^2 - 4 c2 c0 in closed form, free of cancellation
        disc = 1024.0 * r * r * (6.0 * omega ** 2 + 4.0 * r * r)
        q = -0.5 * (cc.c1 + math.copysign(math.sqrt(disc), cc.c1))
        expected = sorted([q / cc.c2, cc.c0 / q])
        assert [m for _, m in found] == [1, 1]
        for (s, _), e in zip(found, expected):
            assert s == pytest.approx(e, abs=1e-12 * (1.0 + abs(e)))


class TestInteriorFixedPoints:
    def test_symmetric_pair_no_loss(self):
        pts = interior_fixed_points(ReducedParams(c=0.0, omega=1.0, r=0.0,
                                                  gamma=0.0))
        assert len(pts) == 2
        locs = sorted((p.s, p.theta) for p in pts)
        assert locs[0][0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert locs[0][1] == pytest.approx(0.0, abs=1e-9)
        assert locs[1][0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert locs[1][1] == pytest.approx(math.pi, abs=1e-9)
        assert all(p.multiplicity == 2 for p in pts)

    def test_analytic_family_with_loss(self):
        gamma = 1.0
        pts = interior_fixed_points(ReducedParams(c=0.0, omega=1.0, r=0.0,
                                                  gamma=gamma))
        assert len(pts) == 2
        expected = sorted([math.pi + math.asin(gamma / SQRT6),
                           2.0 * math.pi - math.asin(gamma / SQRT6)])
        got = sorted(p.theta for p in pts)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-9)
        for p in pts:
            assert p.s == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_self_trapping_census_against_bisection_oracle(self):
        # C = 2: three roots of 4(64 S^3 - 55 S^2 - 6 S + 1)
        q = ReducedParams(c=2.0, omega=1.0, r=0.0, gamma=0.0)
        oracle = bisect_roots(lambda s: ((64.0 * s - 55.0) * s - 6.0) * s + 1.0)
        pts = interior_fixed_points(q)
        assert len(pts) == len(oracle) == 3
        for p, s_ref in zip(pts, sorted(oracle)):
            assert p.s == pytest.approx(s_ref, abs=1e-9)
            assert p.theta in (pytest.approx(0.0, abs=1e-9),
                               pytest.approx(math.pi, abs=1e-9))
        approx = sorted(p.s for p in pts)
        assert approx[0] == pytest.approx(-0.17617628, abs=1e-7)
        assert approx[1] == pytest.approx(0.09421686, abs=1e-7)
        assert approx[2] == pytest.approx(0.94133442, abs=1e-7)

    def test_detuned_single_point_against_quadratic_oracle(self):
        # C = 0, R = 1: 4(9 S^2 + 10 S - 15) = 0 inside the window
        q = ReducedParams(c=0.0, omega=1.0, r=1.0, gamma=0.0)
        s_ref = (-10.0 + math.sqrt(100.0 + 4.0 * 9.0 * 15.0)) / 18.0
        pts = interior_fixed_points(q)
        assert len(pts) == 1
        assert pts[0].s == pytest.approx(s_ref, abs=1e-10)
        assert pts[0].theta == pytest.approx(0.0, abs=1e-9)

    def test_residuals_under_gate(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            q = random_reduced(rng)
            for p in interior_fixed_points(q):
                assert p.residual < 1e-9
                assert residual(p.s, p.theta, q) < 1e-9

    def test_eigenvalue_sum_matches_trace_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            q = random_reduced(rng)
            for p in interior_fixed_points(q):
                re_sum = p.eigenvalues[0].real + p.eigenvalues[1].real
                assert re_sum == pytest.approx(2.0 * q.gamma * p.s, abs=1e-9)

    def test_root_count_matches_validated_cubic_roots(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            q = random_reduced(rng)
            pts = interior_fixed_points(q)
            n_expected = 0
            for s_root, mult in real_cubic_roots(cubic_coefficients(q)):
                if not -1.0 + 1e-9 < s_root < 1.0 - 1e-9:
                    continue
                sin_c = abs(q.gamma) * math.sqrt(1.0 - s_root) / (2.0 * q.omega)
                if sin_c > 1.0 + 1e-9:
                    continue
                vacuous = abs(1.0 - 3.0 * s_root) <= 1e-6
                if vacuous:
                    n_expected += 1 if 1.0 - sin_c <= 1e-12 else 2
                else:
                    n_expected += 1
            assert len(pts) == n_expected

    def test_requires_positive_omega(self):
        with pytest.raises(ValueError):
            interior_fixed_points(ReducedParams(c=0.0, omega=0.0, r=0.0,
                                                gamma=0.0))

    def test_phase_validity_filters_roots(self):
        # past gamma = sqrt(6) Omega the symmetric pair violates
        # |sin theta| <= 1 and must be dropped; only the point riding the
        # sin(theta) = -1 envelope survives
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=2.6)
        raw = real_cubic_roots(cubic_coefficients(q))
        assert sum(m for _, m in raw) == 3
        pts = interior_fixed_points(q)
        assert len(pts) == 1
        assert pts[0].s == pytest.approx(1.0 - 4.0 / 2.6 ** 2, abs=1e-9)
        assert pts[0].theta == pytest.approx(3.0 * math.pi / 2.0, abs=1e-6)


class TestCensusProperties:
    @PROPERTY
    @given(REDUCED, st.floats(-1.0, 0.999), st.floats(0.0, 2.0 * math.pi))
    def test_trace_identity(self, q, s, theta):
        j = jacobian(s, theta, q)
        assert abs(j[0, 0] + j[1, 1] - 2.0 * q.gamma * s) <= 1e-12 * (
            1.0 + abs(j[0, 0]) + abs(j[1, 1]))

    @PROPERTY
    @given(REDUCED)
    def test_every_point_passes_the_residual_gate(self, q):
        for p in interior_census(q)[0]:
            assert p.residual < RESIDUAL_TOL
            assert residual(p.s, p.theta, q) < RESIDUAL_TOL

    @PROPERTY
    @given(REDUCED)
    def test_spectrum_matches_the_public_wrappers(self, q):
        for p in all_fixed_points(q):
            j = jacobian(p.s, p.theta, q)
            assert p.eigenvalues == eigenvalues_2x2(j)
            assert p.kind == classify(j)

    @PROPERTY
    @given(REDUCED)
    def test_time_reversal_mirrors_the_census(self, q):
        # dS/dt and dtheta/dt both change sign under Gamma -> -Gamma,
        # theta -> -theta: same S, negated phase, reversed stability
        points = interior_census(q)[0]
        mirrored = interior_census(ReducedParams(c=q.c, omega=q.omega, r=q.r,
                                                 gamma=-q.gamma))[0]
        assert len(mirrored) == len(points)
        for p in points:
            (m,) = [m for m in mirrored if abs(m.s - p.s) < 1e-9
                    and angle_distance(m.theta, -p.theta) < 1e-9]
            assert m.kind == REVERSED_KIND.get(p.kind, p.kind)


def reference_polish(s, theta, q):
    """_polish_point written on model.reduced_deriv and _jacobian_entries,
    the calls it inlines."""
    ds, dth = reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma, eps_pole=0.0)
    best = (s, theta, max(abs(ds), abs(dth)))
    for _ in range(20):
        if best[2] < 1e-14:
            break
        try:
            j11, j12, j21, j22 = _jacobian_entries(s, theta, q, eps_pole=1e-14)
        except ValueError:
            break
        det = j11 * j22 - j12 * j21
        norm = max(abs(j11), abs(j12), abs(j21), abs(j22), 1e-300)
        if abs(det) < 1e-12 * norm * norm:
            break
        s_new = s - (j22 * ds - j12 * dth) / det
        t_new = theta - (-j21 * ds + j11 * dth) / det
        if not -1.0 < s_new < 1.0 - 1e-14:
            break
        ds, dth = reduced_deriv(s_new, t_new, q.c, q.omega, q.r, q.gamma,
                                eps_pole=0.0)
        s, theta = s_new, t_new
        res = max(abs(ds), abs(dth))
        if not res < best[2]:
            break
        best = (s, theta, res)
    return best


class TestPolish:
    @PROPERTY
    @given(REDUCED, st.floats(-1.0, 1.0 - 1e-12, exclude_min=True),
           st.floats(-10.0, 10.0))
    @example(ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0), 1.0 / 3.0,
             math.pi)  # a fixed point: no step
    @example(ReducedParams(c=1.0, omega=1.0, r=0.0, gamma=0.0), 1.0 - 1e-13,
             0.0)  # inside the Jacobian's pole guard
    def test_polish_inlines_reduced_deriv(self, q, s, theta):
        got = _polish_point(s, theta, q)
        assert [x.hex() for x in got] == \
            [x.hex() for x in reference_polish(s, theta, q)]
        # its residual is the raw field's at the point it returns
        assert got[2] == residual(got[0], got[1], q)

    @pytest.mark.parametrize("s, theta, error", [
        (1.0, 0.0, PoleError), (1.5, 1.0, PoleError),
        (0.2, math.inf, ValueError), (0.2, -math.inf, ValueError)])
    def test_polish_raises_what_reduced_deriv_raises(self, s, theta, error):
        q = ReducedParams(c=0.4, omega=1.0, r=0.1, gamma=0.3)
        with pytest.raises(error) as expected:
            reduced_deriv(s, theta, q.c, q.omega, q.r, q.gamma, eps_pole=0.0)
        with pytest.raises(error) as got:
            _polish_point(s, theta, q)
        assert str(got.value) == str(expected.value)


class TestBoundaryFixedPoint:
    def test_neutral_location(self):
        fp = boundary_fixed_point(ReducedParams(c=0.0, omega=1.0, r=0.0,
                                                gamma=0.0))
        assert fp is not None and fp.on_boundary
        assert fp.s == -1.0
        assert fp.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert fp.kind == KIND_SADDLE

    def test_edge_of_existence(self):
        om = 1.0
        fp = boundary_fixed_point(ReducedParams(c=-om / math.sqrt(2.0),
                                                omega=om, r=0.0, gamma=0.0))
        assert fp is not None
        assert fp.theta == pytest.approx(0.0, abs=1e-7)

    def test_absent_when_detuned(self):
        assert boundary_fixed_point(ReducedParams(c=0.0, omega=1.0, r=1.0,
                                                  gamma=0.0)) is None

    def test_residual_zero_on_boundary(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            q = random_reduced(rng)
            fp = boundary_fixed_point(q)
            if fp is not None:
                assert fp.residual < 1e-12


class TestJacobian:
    def test_trace_identity(self):
        rng = np.random.default_rng(59)
        worst = 0.0
        for _ in range(1000):
            s = rng.uniform(-1.0, 0.999)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            q = random_reduced(rng)
            j = jacobian(s, theta, q)
            worst = max(worst, abs(j[0, 0] + j[1, 1] - 2.0 * q.gamma * s))
        assert worst < 1e-12

    def test_zero_loss_zero_divergence(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            q = ReducedParams(c=rng.normal(), omega=rng.uniform(0.1, 2.0),
                              r=rng.normal(), gamma=0.0)
            j = jacobian(rng.uniform(-1, 0.99), rng.uniform(0, 6.28), q)
            assert abs(j[0, 0] + j[1, 1]) < 1e-13

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(67)
        h = 1e-6
        for _ in range(100):
            s = rng.uniform(-0.95, 0.95)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            q = random_reduced(rng)
            j = jacobian(s, theta, q)
            fd = np.empty((2, 2))
            for col, (ds, dth) in enumerate(((h, 0.0), (0.0, h))):
                f_plus = reduced_deriv(s + ds, theta + dth, q.c, q.omega,
                                       q.r, q.gamma)
                f_minus = reduced_deriv(s - ds, theta - dth, q.c, q.omega,
                                        q.r, q.gamma)
                fd[0, col] = (f_plus[0] - f_minus[0]) / (2.0 * h)
                fd[1, col] = (f_plus[1] - f_minus[1]) / (2.0 * h)
            scale = np.maximum(np.abs(j), 1.0)
            assert np.max(np.abs(j - fd) / scale) < 1e-5

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            jacobian(1.0, 0.0, ReducedParams())


class TestClassify:
    def test_center_without_loss(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        j = jacobian(1.0 / 3.0, math.pi, q)
        assert classify(j) == KIND_CENTER

    def test_repeller_with_positive_loss(self):
        gamma = 0.5
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        pts = interior_fixed_points(q)
        assert pts and all(p.kind in REPELLER_KINDS for p in pts)

    def test_attractor_with_negative_loss(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=-0.5)
        pts = interior_fixed_points(q)
        assert pts and all(p.kind in ATTRACTOR_KINDS for p in pts)

    def test_self_trapping_kinds(self):
        pts = interior_fixed_points(ReducedParams(c=2.0, omega=1.0, r=0.0,
                                                  gamma=0.0))
        assert sorted(p.kind for p in pts) == [KIND_CENTER, KIND_CENTER,
                                               KIND_SADDLE]

    def test_saddle_matrix(self):
        assert classify(np.array([[1.0, 0.0], [0.0, -2.0]])) == KIND_SADDLE

    def test_degenerate_matrix_indeterminate(self):
        assert classify(np.zeros((2, 2))) == "indeterminate"

    @pytest.mark.parametrize("re, kind", [(0.99e-9, KIND_CENTER),
                                          (1.01e-9, KIND_SPIRAL_REPELLER)])
    def test_small_spectrum_keeps_the_unit_rate_floor(self, re, kind):
        # eigenvalues re +- 0.01i: tol scales with max(1, |lambda|), so a
        # real part counts as zero up to 1e-9 even where |lambda| < 1
        assert classify(np.array([[re, -0.01], [0.01, re]])) == kind

    def test_no_loss_never_attracts_or_repels(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            q = ReducedParams(c=rng.uniform(-3, 3), omega=rng.uniform(0.2, 3),
                              r=rng.uniform(-2, 2), gamma=0.0)
            for p in interior_fixed_points(q):
                assert p.kind not in ATTRACTOR_KINDS + REPELLER_KINDS

    def test_sign_rule_from_trace(self):
        # non-saddle interior points: repeller iff gamma and S share sign
        rng = np.random.default_rng(73)
        for _ in range(150):
            q = random_reduced(rng)
            for p in interior_fixed_points(q):
                drive = q.gamma * p.s
                if p.kind in REPELLER_KINDS:
                    assert drive > 0.0
                elif p.kind in ATTRACTOR_KINDS:
                    assert drive < 0.0


class TestSuddenTransition:
    @pytest.mark.parametrize("gamma", [1e-3, 1e-2, 0.1, -1e-3, -1e-2, -0.1])
    def test_any_loss_breaks_the_center(self, gamma):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        pts = interior_fixed_points(q)
        assert len(pts) == 2
        for p in pts:
            max_re = max(ev.real for ev in p.eigenvalues)
            assert max_re != 0.0
            assert math.copysign(1.0, max_re) == math.copysign(1.0, gamma)
            # leading order gamma/3 (complex pair: both real parts = trace/2)
            assert max_re == pytest.approx(gamma / 3.0, abs=1e-12)


class TestThresholdGamma:
    def test_reference_value(self):
        assert threshold_gamma(0.0, 0.0, 1.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-6)

    def test_vanishing_radicand(self):
        om = 1.0
        val = threshold_gamma(om / (2.0 * math.sqrt(2.0)),
                              om / (2.0 * math.sqrt(2.0)), om)
        assert val == pytest.approx(0.0, abs=1e-6)

    def test_detuned_value(self):
        assert threshold_gamma(0.2, 0.1, 1.0) == pytest.approx(
            math.sqrt(2.0 - 4.0 * 0.09), abs=1e-6)

    def test_absent_when_radicand_negative(self):
        assert threshold_gamma(0.0, 1.0, 1.0) is None

    def test_closed_form_agrees_with_bisection(self):
        rng = np.random.default_rng(79)
        n_present = 0
        while n_present < 50:
            c = rng.uniform(-1.0, 1.0)
            r = rng.uniform(-1.0, 1.0)
            om = rng.uniform(0.2, 2.0)
            if 2.0 * om * om - 4.0 * (c + r) ** 2 <= 0.0:
                continue
            val = threshold_gamma(c, r, om)
            bisected = threshold_by_bisection(c, r, om)
            assert val is not None and bisected is not None
            assert abs(val - bisected) <= 1e-6
            n_present += 1

    def test_threshold_admits_new_interior_point(self):
        # just above threshold a point exists near S = -1; just below not
        om, c, r = 1.0, 0.1, -0.2
        g_star = threshold_gamma(c, r, om)
        below = interior_fixed_points(ReducedParams(c=c, omega=om, r=r,
                                                    gamma=g_star - 1e-3))
        above = interior_fixed_points(ReducedParams(c=c, omega=om, r=r,
                                                    gamma=g_star + 1e-3))
        near_bottom_below = [p for p in below if p.s < -0.9]
        near_bottom_above = [p for p in above if p.s < -0.9]
        assert not near_bottom_below
        assert len(near_bottom_above) == 1
        assert near_bottom_above[0].kind == KIND_SADDLE


class TestGridCompleteness:
    @pytest.mark.parametrize("q", [
        ReducedParams(c=0.0, omega=1.0, r=1.0, gamma=0.0),
        ReducedParams(c=2.0, omega=1.0, r=0.0, gamma=0.0),
        ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.9),
        ReducedParams(c=1.2, omega=1.0, r=-0.4, gamma=-0.7),
    ])
    def test_no_unreported_fixed_points(self, q):
        found = newton_survey(q, n_s=200, n_theta=200)
        reported = all_fixed_points(q)
        assert reported
        for s_f, t_f in found:
            d = min(math.hypot(s_f - p.s, float(angle_distance(t_f, p.theta)))
                    for p in reported)
            assert d < 1e-3


# sha256 of census_record over census_points, and the numpy build it was
# recorded with (float results can move in the last bit with the build)
CENSUS_SHA256 = "29c9c5eb6376e12923a76813607184a55be58bf374e61d3bbec2960c2e8557e0"
CENSUS_NUMPY = "2.4.6"


def census_points():
    """3,000 random draws plus 41^2 grids of the default regimes window."""
    rng = np.random.default_rng(2011)
    points = [ReducedParams(c=rng.uniform(-3.0, 3.0), omega=rng.uniform(0.2, 3.0),
                            r=rng.uniform(-2.0, 2.0), gamma=rng.uniform(-2.5, 2.5))
              for _ in range(3000)]
    for gamma in (0.0, 0.6, 1.2, math.sqrt(2.0), SQRT6, 2.5):
        points += [ReducedParams(c=float(c), omega=1.0, r=float(r), gamma=gamma)
                   for c in np.linspace(0.0, 3.0, 41)
                   for r in np.linspace(-2.0, 2.0, 41)]
    return points


def census_record(q):
    """Every bit the census reports at q, as text (floats in float.hex)."""
    points, degenerate = interior_census(q)
    bfp = boundary_fixed_point(q)
    label = classify_regime(q)
    lines = [f"{label.label} {label.n_interior} {label.has_boundary_fp} "
             f"{','.join(sorted(p.kind for p in points))} {degenerate}"]
    for p in points + ([bfp] if bfp is not None else []):
        eig = " ".join(x.hex() for ev in p.eigenvalues for x in (ev.real, ev.imag))
        lines.append(f"{p.s.hex()} {p.theta.hex()} {p.kind} {eig} "
                     f"{p.residual.hex()} {p.multiplicity} {p.on_boundary}")
    return "\n".join(lines) + "\n"


class TestCensusDigest:
    def test_census_keeps_every_bit(self):
        if np.__version__ != CENSUS_NUMPY:
            pytest.skip(f"census digest recorded with numpy {CENSUS_NUMPY}, "
                        f"installed {np.__version__}")
        digest = hashlib.sha256()
        for q in census_points():
            digest.update(census_record(q).encode())
        assert digest.hexdigest() == CENSUS_SHA256
