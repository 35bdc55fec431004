"""Experiments: portraits, conversion sweeps, self-trapping."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomol import experiments, integrate
from atomol.experiments import (
    SweepProtocol,
    oscillation_amplitude,
    phase_portrait,
    self_trapping_run,
    sweep_conversion,
)
from atomol.fixed_points import KIND_SADDLE
from atomol.integrate import IntegratorConfig
from atomol.io import default_config
from atomol.model import (
    Params,
    ReducedParams,
    angle_distance,
    effective_energy,
    unit_norm_deriv,
)

from oracles import (flat_dop853_step, float_first_unit_norm_deriv,
                     params_from_gamma, sweep_rhs, zero_loss_s_range)

FAST = IntegratorConfig(rtol=1e-9, atol=1e-9)


def first_order_efficiency(beta, gamma, duration, omega=1.0):
    """w1 = Omega^2 |int exp(-2i beta tau^2 + Gamma (T/2 - tau)) dtau|^2
    over tau = t - T/2 in [-T/2, T/2], at C = 0: the sweep's efficiency
    to first order in Omega, with a = exp(-i int R dt) undepleted.  The
    trapezoid rule on 400,001 points."""
    tau = np.linspace(-0.5 * duration, 0.5 * duration, 400_001)
    f = np.exp(-2j * beta * tau * tau + gamma * (0.5 * duration - tau))
    return omega * omega * abs(np.trapezoid(f, tau)) ** 2


class TestSweepProtocol:
    def test_symmetric_window_crosses_resonance_once(self):
        pr = SweepProtocol(beta=0.4, r_max=5.0)
        assert pr.duration == pytest.approx(25.0)
        assert pr.r_at(0.0) == pytest.approx(-5.0)
        assert pr.r_at(pr.duration) == pytest.approx(5.0)
        ts = np.linspace(0.0, pr.duration, 1001)
        rs = pr.r_at(ts)
        crossings = int(np.sum(rs[:-1] * rs[1:] < 0.0) + np.sum(rs == 0.0))
        assert crossings == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepProtocol(beta=0.0)
        with pytest.raises(ValueError):
            SweepProtocol(beta=1.0, r_max=-1.0)

    @pytest.mark.parametrize("field", ["beta", "r_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_fields_rejected(self, field, value):
        kwargs = {"beta": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SweepProtocol(**kwargs)


class TestSweepConversion:
    def test_no_conversion_channel(self):
        report = sweep_conversion(SweepProtocol(beta=0.5), Params(v=0.0),
                                  FAST)
        assert report.w == 0.0
        assert report.m == 0.0

    def test_baseline_relative_efficiency_is_exactly_zero(self):
        report = sweep_conversion(SweepProtocol(beta=0.5), Params(v=1.0),
                                  FAST)
        assert report.m == 0.0
        assert report.w == report.w_baseline

    def test_efficiency_bounded_by_half(self):
        for gamma in (-0.5, 0.0, 0.5):
            p = params_from_gamma(gamma_minus=gamma)
            report = sweep_conversion(SweepProtocol(beta=0.2), p, FAST)
            assert 0.0 <= report.w <= 0.5 + 1e-12

    def test_slower_sweep_converts_more(self):
        # adiabaticity ordering at zero loss over a decade of rates
        ws = [sweep_conversion(SweepProtocol(beta=b), Params(v=1.0), FAST).w
              for b in (0.1, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(ws, ws[1:]))
        assert ws[0] > 0.45  # approaching the adiabatic ceiling 1/2

    def test_loss_sign_orders_efficiency(self):
        for beta in (0.2, 1.0):
            pr = SweepProtocol(beta=beta)
            w = {g: sweep_conversion(pr, params_from_gamma(gamma_minus=g),
                                     FAST).w
                 for g in (0.5, 0.0, -0.5)}
            assert w[0.5] > w[0.0] > w[-0.5]

    def test_relative_efficiency_carries_the_loss_sign(self):
        pr = SweepProtocol(beta=0.5)
        m_plus = sweep_conversion(pr, params_from_gamma(gamma_minus=0.5),
                                  FAST).m
        m_minus = sweep_conversion(pr, params_from_gamma(gamma_minus=-0.5),
                                   FAST).m
        assert m_plus > 0.0 > m_minus

    def test_rate_sign_symmetry(self):
        # |beta| alone decides w on the symmetric window (U = 0)
        for gamma in (0.0, 0.3):
            p = params_from_gamma(gamma_minus=gamma)
            w_fwd = sweep_conversion(SweepProtocol(beta=0.3), p, FAST).w
            w_bwd = sweep_conversion(SweepProtocol(beta=-0.3), p, FAST).w
            assert abs(w_fwd - w_bwd) < 1e-6

    def test_baseline_is_integrated_once_per_protocol(self, monkeypatch):
        solve = integrate.solve_adaptive
        solves = []

        def counting_solve(*args, **kwargs):
            solves.append(args[0])
            return solve(*args, **kwargs)

        experiments._terminal_efficiency.cache_clear()
        monkeypatch.setattr(integrate, "solve_adaptive", counting_solve)
        pr = SweepProtocol(beta=1.0, r_max=2.0)
        reports = [sweep_conversion(pr, params_from_gamma(gamma_minus=g),
                                    FAST)
                   for g in (-0.5, 0.0, 0.5)]
        # one lossy run per nonzero rate plus one shared zero-loss run
        assert len(solves) == 3
        again = sweep_conversion(pr, params_from_gamma(gamma_minus=0.5), FAST)
        assert len(solves) == 3
        baselines = {r.w_baseline.hex() for r in reports + [again]}
        assert baselines == {reports[1].w.hex()}

    @pytest.mark.parametrize("gamma", [0.0, 0.1, -0.1])
    @pytest.mark.parametrize("beta", [40.0, 80.0, 160.0])
    def test_fast_sweep_matches_first_order_efficiency(self, beta, gamma):
        # a fast sweep from the atomic mode converts w1 to first order in
        # Omega; the gap is the second-order depletion, (w - w1)/w1^2 in
        # [-2.23, -1.62] at these nine points, so k = 3 leaves a factor
        # of 1.35.  Flipping the sign of the loss on b, or doubling the
        # Omega a^2 source of b, puts points beyond it
        pr = SweepProtocol(beta=beta, r_max=200.0)
        w = sweep_conversion(pr, Params(v=1.0, u=0.0, gamma_a=gamma,
                                        gamma_b=-gamma), FAST).w
        w1 = first_order_efficiency(beta, gamma, pr.duration)
        assert abs(w - w1) <= 3.0 * w1 * w1

    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0, 2.0])
    def test_slow_sweep_deficit_stalls_above_the_fold(self, c):
        # at zero loss and Omega = 1 the line R in [-r_max, r_max] meets
        # regime II iff C > C* = Omega / (2 sqrt 2) ~ 0.354: there the
        # fixed point a slow sweep follows meets a fold
        # (test_c_star_bounds_regime_two_at_zero_loss).  From beta = 0.1
        # to 0.025 the unconverted fraction 1 - 2w falls 4.52x at C = 0
        # and 2.88x at C = 0.3, so a bound of 2.5x leaves a factor of
        # 1.15; at C = 1 and 2 it stalls, 1.21x and 1.05x, so a bound of
        # 1.5x leaves a factor of 1.24.  A tolerance of 1e-8 moves these
        # ratios by under 0.2% from the default 1e-11 and keeps the two
        # solves near 1 s; r_max = 20, as at r_max = 10 the ends of the
        # window shake the ratio at C = 0 down to 1.9x
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-8)
        fast, slow = (1.0 - 2.0 * sweep_conversion(
            SweepProtocol(beta=beta, r_max=20.0), Params(v=1.0, u=c), cfg).w
            for beta in (0.1, 0.025))
        if c < 1.0 / (2.0 * math.sqrt(2.0)):
            assert fast / slow > 2.5
        else:
            assert fast / slow < 1.5

    @pytest.mark.parametrize("pr", [SweepProtocol(beta=0.7, r_max=1.3),
                                    SweepProtocol(beta=-0.4, r_max=0.62)])
    def test_rhs_detuning_is_r_at_bit_for_bit(self, monkeypatch, pr):
        # the sweep right-hand side writes R(t) = beta * (t - T/2)
        # inline; every stage must see the bits of the public r_at.  The
        # solve takes the oracle's 8(5,3) step, which calls f at every
        # stage: test_sweep_step_is_the_generic_step carries these bits
        # on to the sweep's own step
        p = params_from_gamma(gamma_minus=0.3)
        monkeypatch.setattr(experiments, "_sweep_dop853_step",
                            lambda *q: flat_dop853_step)
        solve = integrate.solve_adaptive
        stages = []

        def spying_solve(f, *args, **kwargs):
            def recorded_f(t, y):
                dy = f(t, y)
                stages.append((t, y, dy))
                return dy
            return solve(recorded_f, *args, **kwargs)

        experiments._terminal_efficiency.cache_clear()
        monkeypatch.setattr(integrate, "solve_adaptive", spying_solve)
        experiments._terminal_efficiency(pr, p.u, p.v, 0.3, FAST)
        experiments._terminal_efficiency.cache_clear()
        assert len(stages) > 100
        for t, (a, b), dy in stages:
            assert exact(dy) == exact(
                unit_norm_deriv(a, b, p.u, p.v, pr.r_at(t), 0.3)), t

    @pytest.mark.parametrize("beta, gamma, u, v, rtol", [
        (0.7, 0.3, 0.5, 1.0, 1e-11),
        (-0.4, -0.5, 1.2, 0.8, 1e-9),
        (2.0, 0.0, 0.0, 1.0, 1e-7),
        (-1.5, 0.6, -0.8, 1.5, 1e-11),
        (0.7, 0.3, 0.5, 1.0, 1e-9),
        (-1.5, -0.6, 0.5, 1.0, 1e-9)])
    def test_sweep_solve_is_the_generic_solve(self, monkeypatch, beta, gamma,
                                              u, v, rtol):
        # the sweep's solve gives the bits of a solve over
        # unit_norm_deriv at R(t) whose 8(5,3) step is the oracle's; f is
        # called once, for the first step size, and every step is the
        # sweep's own
        pr = SweepProtocol(beta=beta, r_max=5.0)
        cfg = IntegratorConfig(rtol=rtol, atol=rtol)
        sweep_step = experiments._sweep_dop853_step
        calls = {"f": 0, "step": 0}
        solves = []

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        def recorded_solve(*args, **kwargs):
            solves.append(integrate._solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(experiments, "unit_norm_deriv",
                            counted("f", experiments.unit_norm_deriv))
        monkeypatch.setattr(experiments, "_sweep_dop853_step",
                            lambda *q: counted("step", sweep_step(*q)))
        monkeypatch.setattr(experiments, "_solve", recorded_solve)
        experiments._terminal_efficiency.__wrapped__(pr, u, v, gamma, cfg)
        times, states, _ = integrate.solve_adaptive(
            sweep_rhs(u, v, gamma, beta, pr._half_duration), 0.0,
            (1.0 + 0j, 0j), pr.duration, rtol=rtol, atol=rtol,
            step=flat_dop853_step, norm=integrate._dop853_norm,
            growth=integrate._dop853_growth)
        assert len(times) > 20
        assert solves[0][0].tobytes() == times.tobytes()
        assert solves[0][1].tobytes() == states.tobytes()
        assert calls["f"] == 1 and calls["step"] >= len(times) - 1

    @pytest.mark.parametrize("gamma_draw", [None, 0.3, 0.7])
    def test_sweeps_step_on_finite_nonzero_parts(self, monkeypatch,
                                                 gamma_draw):
        # the default sweep, and the bench's sweeps at its Gamma draws
        # 0.3 and 0.7, give every step a result whose float parts are all
        # finite and nonzero: there the sweep's step keeps every bit of
        # the oracle's tableau loop over complex numbers
        # (test_sweep_step_is_the_generic_step)
        defaults = default_config()
        gammas = (defaults["sweep.gammas"] if gamma_draw is None
                  else [-gamma_draw, 0.0, gamma_draw])
        sweep_step, results = experiments._sweep_dop853_step, []

        def recorded_step(*q):
            step = sweep_step(*q)

            def wrapper(*args):
                results.append(step(*args))
                return results[-1]
            return wrapper

        monkeypatch.setattr(experiments, "_sweep_dop853_step", recorded_step)
        for beta in defaults["sweep.betas"]:
            pr = SweepProtocol(beta=beta, r_max=defaults["sweep.r_max"])
            for gamma in gammas:
                experiments._terminal_efficiency.__wrapped__(
                    pr, defaults["model.u"], defaults["model.v"], gamma,
                    IntegratorConfig())
        assert len(results) > 5000
        assert all(res is not None and all(
            x != 0.0 and math.isfinite(x)
            for v in res for x in (v.real, v.imag)) for res in results)


def exact(values):
    """Bytes of each real and imaginary part; a NaN, of any sign or
    payload, as one token."""
    return [struct.pack("<d", x) if x == x else "nan"
            for v in values for x in (v.real, v.imag)]


# mostly moderate values, whose rounding the operation order decides;
# past about 1e154, products overflow to inf and their sums give NaN
_PARTS = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-2.0, max_value=2.0),
                   st.floats(min_value=-1e154, max_value=1e154),
                   st.floats(min_value=-1e160, max_value=1e160))
_AMPLITUDES = st.builds(complex, _PARTS, _PARTS)
_COEFFS = st.floats(min_value=-3.0, max_value=3.0)


class TestUnitNormRhs:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(a=_AMPLITUDES, b=_AMPLITUDES, c=_COEFFS, omega=_COEFFS,
           gamma=_COEFFS, r=_COEFFS,
           beta=_COEFFS.filter(lambda v: v != 0.0),
           r_max=st.floats(min_value=0.1, max_value=10.0),
           t=st.floats(min_value=0.0, max_value=200.0))
    @example(a=1e155 + 0j, b=0j, c=1.0, omega=1.0, gamma=0.3, r=0.0,
             beta=1.0, r_max=5.0, t=0.0)  # a * a overflows
    @example(a=1e100 + 1e100j, b=1e120j, c=1.0, omega=1.0, gamma=0.3,
             r=0.0, beta=1.0, r_max=5.0, t=0.0)  # inf products, NaN sums
    def test_unit_norm_rhs_is_unit_norm_deriv(self, a, b, c, omega, gamma,
                                              r, beta, r_max, t):
        # the complex-first products give the bits of the float-first
        # ones, at a sweep's R(t) and at a trap run's constant R; neither
        # form takes a float power, so neither raises
        pr = SweepProtocol(beta=beta, r_max=r_max)
        for r_t in (pr.r_at(t), r):
            assert exact(unit_norm_deriv(a, b, c, omega, r_t, gamma)) == \
                exact(float_first_unit_norm_deriv(a, b, c, omega, r_t,
                                                  gamma))


class TestSelfTrapping:
    def test_oscillation_regime_swings_widely(self):
        run = self_trapping_run(u=0.0, v=1.0, r=0.0, gamma_minus=0.0,
                                a0_sq=0.9, t_span=20.0, cfg=FAST)
        assert not run.trapped
        assert oscillation_amplitude(run.p_atom) > 0.4

    def test_negative_loss_keeps_trapping(self):
        run = self_trapping_run(u=1.5, v=1.0, r=0.0, gamma_minus=-0.5,
                                a0_sq=0.9, t_span=20.0, cfg=FAST)
        assert run.trapped
        assert run.min_p_atom > 0.5

    def test_positive_loss_ruins_trapping(self):
        run = self_trapping_run(u=1.5, v=1.0, r=0.0, gamma_minus=0.5,
                                a0_sq=0.9, t_span=20.0, cfg=FAST)
        assert not run.trapped

    def test_zero_loss_reference_is_trapped(self):
        run = self_trapping_run(u=1.5, v=1.0, r=0.0, gamma_minus=0.0,
                                a0_sq=0.9, t_span=20.0, cfg=FAST)
        assert run.trapped

    @pytest.mark.parametrize("s0, r, omega", [
        (0.8, 0.0, 1.0), (0.6, 0.2, 1.0), (0.9, -0.3, 2.0), (0.5, 0.1, 0.5),
        (0.7, -0.1, 1.5)])
    def test_zero_loss_threshold_is_the_energy_barrier(self, s0, r, omega):
        # at Gamma = 0 the flow keeps E = 2 Om (1+S) sqrt(1-S) cos(theta)
        # - 2 C S^2 + 4 R S; from (S0, pi) the orbit reaches S = 0, where
        # E >= -2 Om, iff C < u_c, so runs 1e-3 on either side of u_c
        # are untrapped and trapped
        u_c = (omega * (1.0 - (1.0 + s0) * math.sqrt(1.0 - s0))
               + 2.0 * r * s0) / s0 ** 2
        if (s0, r, omega) == (0.8, 0.0, 1.0):
            assert u_c == pytest.approx(0.30471, abs=5e-6)
        for du, trapped in ((-1e-3, False), (1e-3, True)):
            run = self_trapping_run(u=u_c + du, v=omega, r=r, gamma_minus=0.0,
                                    a0_sq=(1.0 + s0) / 2.0, t_span=5.0)
            assert run.trapped is trapped

    @pytest.mark.parametrize("s0, c, r, omega, theta_far", [
        (0.8, 1.5, 0.0, 1.0, math.pi), (0.8, 0.3, 0.0, 1.0, math.pi),
        (0.6, 1.0, 0.2, 1.0, math.pi), (0.9, 0.5, -0.3, 2.0, math.pi),
        (0.5, 2.0, 0.1, 0.5, 0.0), (-0.5, 1.0, 0.3, 1.0, 0.0),
        (0.95, 0.1, 0.5, 1.0, 0.0)])
    def test_zero_loss_extremes_are_the_turning_points(self, s0, c, r, omega,
                                                       theta_far):
        # at Gamma = 0 the orbit from (S0, pi) sweeps the S interval of
        # oracles.zero_loss_s_range: S0 is one end, and the other solves
        # E(S, theta_far) = E0, with theta_far = pi where the orbit turns
        # back on the phase it started from.  Over t = 20 no sample left the
        # interval by more than 1.7e-16 (bound 1e-9), and the sampled
        # extremes came within 9.3e-6 of its ends (bound 2e-5, a margin
        # of 2x), which is the sampling of the 4(5) steps near a turning
        # point, about S'' (h/2)^2 / 2
        run = self_trapping_run(u=c, v=omega, r=r, gamma_minus=0.0,
                                a0_sq=(1.0 + s0) / 2.0, t_span=20.0)
        lo, hi = zero_loss_s_range(s0, math.pi, c, omega, r)
        far = hi if lo == s0 else lo
        assert s0 in (lo, hi) and abs(far - s0) > 0.05
        q = ReducedParams(c=c, omega=omega, r=r)
        e0 = effective_energy(s0, math.pi, q)
        assert abs(effective_energy(far, theta_far, q) - e0) < 1e-12
        s_min, s_max = float(run.s.min()), float(run.s.max())
        assert lo - 1e-9 <= s_min <= lo + 2e-5
        assert hi - 2e-5 <= s_max <= hi + 1e-9

    @pytest.mark.parametrize("gamma", [-0.5, 0.3])
    def test_energy_balance_under_loss(self, gamma):
        # only dS/dt carries Gamma, as -Gamma (1 - S^2), so along a lossy
        # orbit dE/dt = -Gamma (dE/dS)(1 - S^2) with
        # dE/dS = Om cos(theta) (1 - 3S)/sqrt(1 - S) - 4CS + 4R; the
        # trapezoid rule on the recorded samples gave at most 9.7e-6
        # (Gamma = -0.5) and 6.7e-5 (Gamma = 0.3) against changes of E
        # up to 0.10 and 2.35, so the bound 2e-4 keeps a margin of 3x
        u, v, r = 1.5, 1.0, 0.0
        run = self_trapping_run(u=u, v=v, r=r, gamma_minus=gamma, a0_sq=0.9,
                                t_span=20.0)
        s, cos_theta = run.s, np.cos(run.theta)
        root = np.sqrt(1.0 - s)
        energy = 2.0 * v * (1.0 + s) * root * cos_theta - 2.0 * u * s ** 2 \
            + 4.0 * r * s
        rate = -gamma * (v * cos_theta * (1.0 - 3.0 * s) / root
                         - 4.0 * u * s + 4.0 * r) * (1.0 - s * s)
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (rate[1:] + rate[:-1]) * np.diff(run.times))])
        change = energy - energy[0]
        assert np.max(np.abs(change)) > 0.05
        assert np.max(np.abs(change - integral)) < 2e-4

    def test_amplitude_ordering_under_loss(self):
        amps = {}
        for gamma in (0.0, 0.5, -0.5):
            run = self_trapping_run(u=0.0, v=1.0, r=0.0, gamma_minus=gamma,
                                    a0_sq=0.9, t_span=10.0, cfg=FAST)
            amps[gamma] = oscillation_amplitude(run.p_atom)
        assert amps[0.5] > amps[0.0]
        assert amps[-0.5] < amps[0.0]

    def test_empty_atomic_mode_has_zero_phase(self):
        # a stays exactly 0, so theta takes the empty-mode convention
        run = self_trapping_run(u=1.5, v=1.0, r=0.0, gamma_minus=-0.5,
                                a0_sq=0.0, t_span=2.0)
        assert np.all(run.p_atom == 0.0)
        assert np.all(run.theta == 0.0)

    def test_initial_population_validated(self):
        with pytest.raises(ValueError):
            self_trapping_run(u=0.0, v=1.0, r=0.0, gamma_minus=0.0,
                              a0_sq=1.2, t_span=1.0)


class TestOscillationAmplitude:
    def test_constant_series(self):
        assert oscillation_amplitude([0.7, 0.7, 0.7]) == 0.0

    def test_simple_series(self):
        assert oscillation_amplitude([0.2, 0.9, 0.4]) == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            oscillation_amplitude([])


class TestPhasePortrait:
    def test_oscillation_regime_conserves_energy(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        ics = [(-0.5, 0.5), (0.0, 2.0), (0.6, 4.0)]
        portrait = phase_portrait(q, ic_grid=ics, t_span=20.0, cfg=FAST)
        assert len(portrait.trajectories) == 3
        for tr in portrait.trajectories:
            e = np.array([effective_energy(s, t, q)
                          for s, t in zip(tr.s, tr.theta)])
            assert np.abs(e - e[0]).max() < 1e-6

    def test_orbit_encircles_a_center(self):
        # cumulative winding angle around (1/3, pi) exceeds a full turn
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        portrait = phase_portrait(q, ic_grid=[(0.8, math.pi)], t_span=15.0,
                                  cfg=FAST)
        tr = portrait.trajectories[0]
        ang = np.unwrap(np.arctan2(tr.theta - math.pi, tr.s - 1.0 / 3.0))
        assert abs(ang[-1] - ang[0]) > 2.0 * math.pi

    def test_dissipative_portrait_spirals_into_attractor(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=-0.5)
        ics = [(-0.4, 1.0), (0.1, 4.5), (0.7, 2.5)]
        portrait = phase_portrait(q, ic_grid=ics, t_span=50.0, cfg=FAST)
        targets = [(p.s, p.theta) for p in portrait.fixed_points
                   if not p.on_boundary]
        for tr in portrait.trajectories:
            d = min(math.hypot(tr.s[-1] - s,
                               float(angle_distance(tr.theta[-1], th)))
                    for s, th in targets)
            assert d < 1e-3

    def test_self_trapped_orbit_stays_above_the_saddle(self):
        # region II: the orbit around the phase-locked high-S center
        # cannot cross the saddle level; checked dynamically and against
        # the energy-barrier oracle on the saddle line
        q = ReducedParams(c=2.0, omega=1.0, r=0.0, gamma=0.0)
        portrait = phase_portrait(q, ic_grid=[(0.9, math.pi)], t_span=100.0,
                                  cfg=FAST)
        saddles = [p for p in portrait.fixed_points if p.kind == KIND_SADDLE
                   and not p.on_boundary]
        assert len(saddles) == 1
        s_saddle = saddles[0].s
        tr = portrait.trajectories[0]
        assert tr.s.min() > s_saddle
        # oracle: initial energy below the minimum energy on the saddle
        # line makes the crossing impossible for the conservative flow
        e0 = effective_energy(0.9, math.pi, q)
        barrier_min = min(effective_energy(s_saddle, th, q)
                          for th in np.linspace(0, 2 * math.pi, 721))
        assert e0 < barrier_min

    def test_pole_events_recorded(self):
        # a start heading straight up the pole direction (sin theta < 0)
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        portrait = phase_portrait(q,
                                  ic_grid=[(0.9, 3.0 * math.pi / 2.0),
                                           (0.0, math.pi)],
                                  t_span=10.0, cfg=FAST)
        events = portrait.pole_events
        assert events[0] is not None and events[0].time < 1.0
        assert portrait.trajectories[0].s[-1] <= 1.0 - 1e-12
