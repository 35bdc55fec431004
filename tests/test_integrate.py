"""Integrator: conservation, convergence, events, determinism."""

import cmath
import collections
import functools
import math
import random
import struct
import sys
import types
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomol import experiments, integrate
from atomol.integrate import (
    IntegratorConfig,
    StepBudgetError,
    StepUnderflowError,
    evolve,
    evolve_reduced,
    solve_adaptive,
)
from atomol.model import (
    EPS_POLE,
    Amplitudes,
    CanonicalState,
    Params,
    PoleError,
    ReducedParams,
    amplitudes_from_canonical,
    angle_distance,
    derived_quantities,
    effective_energy,
    gp_deriv,
    reduced_deriv,
)
from oracles import (DOP853_TABLEAU, dop853_norm, dop853_step, error_norm,
                     flat_dop853_step, params_from_gamma, rk4_trajectory,
                     rk45_step, sweep_rhs)
import oracles
from oracles import solve_adaptive as oracle_solve_adaptive


def state_on_shell(s, theta):
    return amplitudes_from_canonical(CanonicalState(s=s, theta=theta, n=1.0))


class TestAmplitudeEvolve:
    def test_linear_phase_evolution(self):
        # V = U = 0, R = 1: a(t) = exp(-i R t) exactly
        p = Params(v=0.0, u=0.0, r=1.0)
        cfg = IntegratorConfig(t_final=10.0, rtol=1e-12, atol=1e-12)
        tr = evolve(Amplitudes(1.0 + 0j, 0j), p, cfg)
        assert abs(tr.states[-1, 0] - np.exp(-1j * 10.0)) < 1e-10
        assert abs(abs(tr.states[-1, 0]) ** 2 - 1.0) < 1e-10

    def test_decoupled_decay(self):
        # only the atomic mode decays; n(t) = |a0|^2 e^{-t} + 2|b0|^2
        p = Params(v=0.0, gamma_a=1.0, gamma_b=0.0)
        x0 = Amplitudes(math.sqrt(0.7) + 0j, math.sqrt(0.15) + 0j)
        tr = evolve(x0, p, IntegratorConfig(t_final=5.0))
        expected = 0.7 * math.exp(-5.0) + 0.3
        assert abs(tr.n[-1] - expected) < 1e-8

    def test_zero_loss_conservation_long_run(self):
        p = Params(v=1.0, u=0.0, r=0.0)
        tr = evolve(state_on_shell(0.9, math.pi), p,
                    IntegratorConfig(t_final=100.0))
        assert np.abs(tr.n - tr.n[0]).max() < 1e-8
        assert np.abs(tr.energy - tr.energy[0]).max() < 1e-8

    def test_closed_orbit_recurrence(self):
        # zero-loss oscillation regime orbit returns to its start
        p = Params(v=1.0, u=0.0, r=0.0)
        s0, th0 = 0.9, math.pi
        x0 = state_on_shell(s0, th0)
        tr = evolve(x0, p, IntegratorConfig(t_final=20.0))
        d = np.hypot(tr.s - s0, angle_distance(tr.theta, th0))
        late = tr.times > 1.0
        t_close = float(tr.times[late][np.argmin(d[late])])
        # refine around the approximate recurrence with fixed rk4 steps:
        # coarse ones up to the window, dense ones across it (the flow is
        # autonomous, so the window's solve starts its clock at 0)

        def f(t, y):
            return gp_deriv(y[0], y[1], p.v, p.u, p.r, p.gamma_a, p.gamma_b)

        _, coarse = oracles.rk4_solve(f, (complex(x0.a), complex(x0.b)),
                                      t_close - 0.02, 1e-3)
        _, fine = oracles.rk4_solve(f, tuple(map(complex, coarse[-1])),
                                    0.04, (t_close + 0.02) / 400000)
        d2 = derived_quantities(fine, p.v, p.u, p.r)
        assert np.hypot(d2["s"] - s0,
                        angle_distance(d2["theta"], th0)).min() < 1e-4
        # energy oracle: recurrence happens on the conserved-energy orbit
        energy = derived_quantities(np.concatenate([coarse, fine]), p.v,
                                    p.u, p.r)["energy"]
        assert np.abs(energy - energy[0]).max() < 1e-7

    def test_trajectory_samples_and_derived(self):
        p = Params(v=1.0, u=2.0, r=0.5, gamma_a=0.1, gamma_b=-0.05)
        tr = evolve(state_on_shell(0.3, 1.0), p, IntegratorConfig(t_final=3.0))
        assert np.all(np.diff(tr.times) > 0)
        recomputed = derived_quantities(tr.states, p.v, p.u, p.r)
        for key in ("s", "theta", "n", "p_atom", "hx", "hy", "hz", "energy"):
            assert np.array_equal(getattr(tr, key), recomputed[key])

    def test_determinism(self):
        p = Params(v=1.0, u=1.5, r=-0.3, gamma_a=0.2, gamma_b=0.1)
        a = evolve(state_on_shell(0.2, 0.7), p, IntegratorConfig(t_final=7.0))
        b = evolve(state_on_shell(0.2, 0.7), p, IntegratorConfig(t_final=7.0))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_convergence_contract_adaptive(self):
        # tightening tolerances x10 changes the final state by less than
        # 10x the change of the next tightening (first-order-in-tol
        # global error), and the sequence is already at the 1e-8 scale
        p = Params(v=1.0, u=2.0, r=0.0)
        x0 = state_on_shell(0.6, 1.0)
        finals = {}
        for tol in (1e-8, 1e-9, 1e-10):
            cfg = IntegratorConfig(t_final=10.0, rtol=tol, atol=tol)
            finals[tol] = evolve(x0, p, cfg).states[-1]
        d_loose = np.abs(finals[1e-8] - finals[1e-9]).max()
        d_tight = np.abs(finals[1e-9] - finals[1e-10]).max()
        assert d_loose < 10.0 * (10.0 * d_tight + 1e-9)
        assert d_loose < 1e-6

    def test_fixed_step_reference_converges_at_fourth_order(self):
        # the dense fixed-step loop that the recurrence and norm-law
        # checks take as their reference: halving dt shrinks the
        # refinement difference ~16x, and it meets the adaptive solve
        p = Params(v=1.0, u=2.0, r=0.0)
        x0 = state_on_shell(0.6, 1.0)
        finals = {dt: rk4_trajectory(x0, p, 10.0, dt).states[-1]
                  for dt in (2e-3, 1e-3, 5e-4)}
        d1 = np.abs(finals[2e-3] - finals[1e-3]).max()
        d2 = np.abs(finals[1e-3] - finals[5e-4]).max()
        assert d1 / d2 > 8.0
        assert d1 < 1e-8
        cfg = IntegratorConfig(t_final=10.0, rtol=1e-12, atol=1e-12)
        assert np.abs(finals[5e-4] - evolve(x0, p, cfg).states[-1]).max() \
            < 1e-9

class TestReducedEvolve:
    def test_stationary_at_analytic_fixed_point(self):
        gamma = 0.9
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        theta_star = math.pi + math.asin(gamma / math.sqrt(6.0))
        tr = evolve_reduced(1.0 / 3.0, theta_star, q,
                            IntegratorConfig(t_final=10.0))
        assert np.abs(tr.s - 1.0 / 3.0).max() < 1e-8
        assert np.abs(tr.theta - theta_star).max() < 1e-8
        assert tr.pole_event is None

    def test_zero_loss_conserves_energy(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        cfg = IntegratorConfig(t_final=100.0, rtol=1e-12, atol=1e-12)
        tr = evolve_reduced(0.6, 2.0, q, cfg)
        e = np.array([effective_energy(s, t, q)
                      for s, t in zip(tr.s, tr.theta)])
        assert np.abs(e - e[0]).max() < 1e-8

    def test_negative_gamma_attracts(self):
        # gamma < 0: the S > 0 fixed points become attractors
        gamma = -0.5
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        sin_star = -gamma * math.sqrt(2.0 / 3.0) / 2.0
        thetas = (math.asin(sin_star), math.pi - math.asin(sin_star))
        rng = np.random.default_rng(23)
        for _ in range(5):
            s0 = rng.uniform(-0.8, 0.8)
            th0 = rng.uniform(0.0, 2.0 * math.pi)
            tr = evolve_reduced(s0, th0, q, IntegratorConfig(t_final=50.0))
            d = min(math.hypot(tr.s[-1] - 1.0 / 3.0,
                               float(angle_distance(tr.theta[-1], th)))
                    for th in thetas)
            assert d < 1e-3

    def test_pole_event_halts_cleanly(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        tr = evolve_reduced(0.9, 3.0 * math.pi / 2.0, q,
                            IntegratorConfig(t_final=10.0))
        assert tr.pole_event is not None
        assert tr.pole_event.time < 1.0
        assert tr.s[-1] <= 1.0 - 1e-12
        assert tr.s[-1] > 1.0 - 1e-9   # halted at the guard, not earlier
        assert np.all(np.diff(tr.times) > 0)

    def test_rejects_start_on_pole(self):
        q = ReducedParams()
        with pytest.raises(ValueError):
            evolve_reduced(1.0, 0.0, q)

    def test_pole_event_matches_the_fixed_step_reference(self):
        # fixed rk4 steps of the chart's right-hand side run until a
        # stage past S = 1 raises PoleError or a step ends past the
        # guard; the adaptive solve's event lies within that last step
        q = ReducedParams()
        dt = 1e-3
        f = chart_rhs(q.c, q.omega, q.r, q.gamma)
        t, y = 0.0, (0.9, 3.0 * math.pi / 2.0)
        while True:
            try:
                y_next = oracles.rk4_step(f, t, y, dt)
            except PoleError:
                break
            if y_next[0] >= 1.0 - EPS_POLE:
                break
            t, y = t + dt, y_next
        tr = evolve_reduced(0.9, 3.0 * math.pi / 2.0, q,
                            IntegratorConfig(t_final=2.0))
        ev = tr.pole_event
        assert ev is not None and tr.times[-1] == ev.time
        assert t <= ev.time <= t + dt
        assert y[0] < ev.s <= 1.0 - EPS_POLE

# one solve of each kind: evolve and trap take the 4(5) pair on
# amplitudes, a sweep its own 8(5,3) step, and the portrait the chart's
# step, here from the pole-event start of the bench portrait
_ONE_SOLVE = {
    "evolve": lambda: evolve(Amplitudes(a=0.8 + 0.1j, b=0.3j),
                             Params(u=2.0, gamma_a=0.2),
                             IntegratorConfig(t_final=2.0)),
    "trap": lambda: experiments.self_trapping_run(
        u=1.5, v=1.0, r=0.0, gamma_minus=-0.5, a0_sq=0.9, t_span=2.0),
    "sweep": lambda: experiments._terminal_efficiency.__wrapped__(
        experiments.SweepProtocol(beta=1.0, r_max=2.0), 0.5, 1.0, 0.3,
        IntegratorConfig()),
    "evolve_reduced": lambda: evolve_reduced(
        0.9, 3.0 * math.pi / 2.0, ReducedParams(),
        IntegratorConfig(t_final=5.0)),
}


@pytest.mark.parametrize("run", sorted(_ONE_SOLVE))
def test_solves_call_no_numpy_between_start_and_results(monkeypatch, run):
    # every magnitude of a solve is Python's, whatever SIMD loops numpy
    # dispatches to: numpy makes the start state and the result arrays,
    # and no integrate.np attribute is read from the first step to the last
    log = []  # (function, numpy name), or ("step", None) per step

    class Numpy:
        def __getattr__(self, name):
            log.append((sys._getframe(1).f_code.co_name, name))
            return getattr(np, name)

    def logged(step):
        def wrapper(*args):
            log.append(("step", None))
            return step(*args)
        return wrapper

    solve = integrate.solve_adaptive

    def logged_solve(*args, step=integrate._rk45_step, **kwargs):
        return solve(*args, step=logged(step), **kwargs)

    monkeypatch.setattr(integrate, "np", Numpy())
    monkeypatch.setattr(integrate, "solve_adaptive", logged_solve)
    _ONE_SOLVE[run]()
    steps = [i for i, entry in enumerate(log) if entry[0] == "step"]
    assert len(steps) > 20
    assert log[:steps[0]] == [("_as_state", "asarray")]
    assert log[steps[0]:steps[-1]] == [("step", None)] * (steps[-1] - steps[0])
    assert set(log[steps[-1] + 1:]) == {("solve_adaptive", "array"),
                                        ("_stacked", "array")}


class TestCrossRepresentation:
    def test_zero_loss_amplitude_vs_reduced(self):
        # each solve ends at t_final exactly, a time the two share
        p = Params(v=1.0, u=1.2, r=0.4)
        s0, th0 = 0.5, 2.2
        for t_final in (7.0, 20.0):
            cfg = IntegratorConfig(t_final=t_final)
            amp = evolve(state_on_shell(s0, th0), p, cfg)
            red = evolve_reduced(s0, th0, p.reduced(1.0), cfg)
            assert amp.times[-1] == red.times[-1] == t_final
            assert abs(amp.s[-1] - red.s[-1]) < 1e-6
            assert angle_distance(amp.theta[-1], red.theta[-1]) < 1e-6

    @pytest.mark.parametrize("gamma_plus", [0.0, 0.2])
    def test_norm_law_of_the_amplitude_flow(self, gamma_plus):
        # n(t) = n0 exp(-int (G+ + G- S) dt), the integral by the trapezoid
        # rule on dense fixed steps of the amplitude equations
        p = params_from_gamma(v=1.0, u=0.8, r=0.1, gamma_minus=0.3,
                              gamma_plus=gamma_plus)
        amp = rk4_trajectory(state_on_shell(0.4, 1.0), p, 20.0, 5e-4)
        rate = p.gamma_plus + p.gamma_minus * amp.s
        decay = np.concatenate(
            ([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(amp.times))))
        assert np.abs(amp.n - amp.n[0] * np.exp(-decay)).max() < 1e-6


class TestGenericSolvers:
    def test_step_underflow_reports_time(self):
        # finite-time blow-up: y' = y^2, y(0)=1 diverges at t = 1
        def f(t, y):
            return (y[0] * y[0], 0.0)

        with pytest.raises(StepUnderflowError) as err:
            solve_adaptive(f, 0.0, np.array([1.0, 0.0]), 2.0, rtol=1e-10,
                           atol=1e-10)
        assert 0.99 < err.value.time <= 1.01

    def test_rhs_past_the_largest_float_is_a_rejected_step(self):
        # products past the largest float give inf: the trial step has
        # an infinite norm and is rejected
        def f(t, y):
            y4 = y[0] * y[0] * y[0] * y[0]
            return (y4 * y4 * y[0], 0.0)

        with pytest.raises(StepUnderflowError):
            solve_adaptive(f, 0.0, (1.0, 0.0), 10.0, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("error", [ValueError, OverflowError])
    def test_error_in_rhs_is_not_masked(self, error):
        # no right-hand side of the package raises OverflowError since
        # they take their squares as products, so the steps no longer
        # catch it: a float power in a caller's f raises out of the solve
        def f(t, y):
            if t > 0.0:
                raise error("bad argument")
            return (1.0, 0.0)

        with pytest.raises(error, match="bad argument"):
            solve_adaptive(f, 0.0, (0.0, 0.0), 1.0)

    def test_non_finite_derivative_under_an_event_is_a_rejected_step(self):
        # a NaN stage cannot tell whether the event was crossed: its step
        # is rejected, not taken as the crossing, and the steps shrink to
        # an underflow at the surface where f turns NaN
        def f(t, y):
            return (math.nan, 0.0) if y[0] > 2.5 else (1.0, 0.0)

        with pytest.raises(StepUnderflowError) as err:
            solve_adaptive(f, 0.0, (0.0, 0.0), 10.0,
                           event=lambda t, y: y[0] - 3.0)
        assert 2.5 - 1e-9 < err.value.time <= 2.5

    def test_exactly_max_steps_attempts_are_within_the_budget(
            self, monkeypatch):
        attempts = []

        def counted(*args):
            attempts.append(args[1])
            return integrate._rk45_step(*args)

        def solve():
            # a chirp, whose quickening forcing rejects steps
            attempts.clear()
            return solve_adaptive(lambda t, y: (math.cos(10.0 * t * t), 0.0),
                                  0.0, (1.0, 0.0), 3.0, rtol=1e-6, atol=1e-6,
                                  step=counted)

        times, states, _ = solve()
        n = len(attempts)
        assert n > len(times) - 1  # some steps were rejected
        monkeypatch.setattr(integrate, "MAX_STEPS", n)
        again, _, _ = solve()
        assert again.tobytes() == times.tobytes()
        monkeypatch.setattr(integrate, "MAX_STEPS", n - 1)
        with pytest.raises(StepBudgetError,
                           match=f"at t = {attempts[-1]!r}"):
            solve()

    def test_adaptive_budget_counts_attempted_steps(self, monkeypatch):
        calls = []

        def f(t, y):
            calls.append(t)
            return (-y[0], 0.0)

        monkeypatch.setattr(integrate, "MAX_STEPS", 50)
        with pytest.raises(StepBudgetError):
            solve_adaptive(f, 0.0, np.array([1.0, 0.0]), 1e9)
        # one initial-step evaluation, then at most 7 per attempted step
        assert len(calls) <= 1 + 7 * 50

    def test_numpy_scalar_times_step_on_python_floats(self):
        # a span read off a numpy array must not turn every step into
        # numpy-scalar arithmetic
        seen = set()

        def f(t, y):
            seen.add((type(t), type(y[0])))
            return (y[1], -y[0])

        solve_adaptive(f, np.float64(0.0), (1.0, 0.0), np.float64(1.0),
                       rtol=1e-6, atol=1e-6)
        integrate._solve(f, (1.0, 0.0), IntegratorConfig(
            rtol=1e-6, atol=1e-6, t_final=np.float64(1.0)))
        assert seen == {(float, float)}

    @pytest.mark.parametrize("run, pair", [
        ("evolve", "rk45"), ("trap", "rk45"), ("sweep", "dop853"),
        ("evolve_reduced", "rk45")])
    def test_each_solve_takes_the_pair_its_caller_names(
            self, monkeypatch, run, pair):
        # the sweep, which reads only its end state, takes the 8(5,3)
        # norm and growth, and every other solve the 4(5) pair's
        pairs = []

        def recording_solve(*args, step=integrate._rk45_step,
                            norm=integrate._float_norm,
                            growth=integrate._rk45_growth, **kwargs):
            pairs.append((norm, growth))
            return solve_adaptive(*args, step=step, norm=norm,
                                  growth=growth, **kwargs)

        monkeypatch.setattr(integrate, "solve_adaptive", recording_solve)
        _ONE_SOLVE[run]()
        assert pairs == [SOLVER_PAIRS[pair][1:]]

    def test_dop853_solve_is_accurate_in_fewer_calls(self):
        # harmonic oscillator over ten periods at the default tolerance
        calls = {"rk45": 0, "dop853": 0}
        end = {}
        for name, (step, norm, growth) in oracles.PAIRS.items():
            def f(t, y, name=name):
                calls[name] += 1
                return y[1], -y[0]

            _, states, _ = oracle_solve_adaptive(
                f, 0.0, (1.0, 0.0), 20 * math.pi, step=step, norm=norm,
                growth=growth)
            end[name] = states[-1]
        for y in end.values():
            assert abs(y[0] - 1.0) < 1e-9 and abs(y[1]) < 1e-9
        assert calls["dop853"] * 3 < calls["rk45"]

    def test_config_validation(self):
        assert [f.name for f in fields(IntegratorConfig)] == [
            "rtol", "atol", "t_final"]
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_final=0.0)


def bits(values):
    """Exact bytes of a sequence of floats or complex numbers."""
    out = []
    for v in values:
        out.append(struct.pack("<dd", v.real, v.imag)
                   if isinstance(v, complex) else struct.pack("<d", v))
    return out


def flat_result(nested):
    """An oracle step's (y_new, err, k_last) in the order of the flat
    result of integrate's steps, (*y_new, *k_last, *err); None stays
    None."""
    if nested is None:
        return None
    y_new, err, k_last = nested
    return (*y_new, *k_last, *flat(err))


def outcome(step, *args):
    """A step's state as exact bytes, or PoleError if it raised that."""
    try:
        return bits(step(*args))
    except PoleError:
        return PoleError


def failing_rk45_step(f, t, y, h, k1):
    """integrate._rk45_step with a stage's PoleError as a failed step,
    None, as the chart's own step fails: the loop's 4(5) step where f
    raises past an event surface."""
    try:
        return integrate._rk45_step(f, t, y, h, k1)
    except PoleError:
        return None


class _Captured(Exception):
    """Carries the right-hand side a solve was handed."""


def chart_rhs(c, omega, r, gamma):
    """The right-hand side that evolve_reduced hands integrate._solve,
    for any coefficients (ReducedParams rejects a negative omega)."""
    def capture(f, *args, **kwargs):
        raise _Captured(f)

    q = types.SimpleNamespace(c=c, omega=omega, r=r, gamma=gamma)
    with mock.patch.object(integrate, "_solve", capture), \
            pytest.raises(_Captured) as caught:
        evolve_reduced(0.0, 0.0, q)
    return caught.value.args[0]


# mostly moderate values, whose rounding the operation order decides;
# magnitudes up to 1e120 make the cube in pair_rhs overflow to inf
_REALS = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-1e120, max_value=1e120, allow_infinity=False))
_COEFFS = st.floats(min_value=-3.0, max_value=3.0)
_COMPLEXES = st.builds(complex, _REALS, _REALS)
_PAIRS = st.one_of(st.tuples(_REALS, _REALS),
                   st.tuples(_COMPLEXES, _COMPLEXES))
_STEPS = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                   st.sampled_from([1e-300, 1e-9, 0.0, 1e30]))
_NORM_VALUES = st.one_of(_REALS, _COMPLEXES,
                         st.sampled_from([0.0, math.nan, math.inf, -math.inf,
                                          complex(math.nan, 1.0)]))
_NORM_PAIRS = st.tuples(_NORM_VALUES, _NORM_VALUES)
# parts from 1e308 to the largest float: a complex of two such parts may
# have a magnitude past the largest float
_HUGE = st.builds(math.copysign,
                  st.floats(min_value=1e308, max_value=sys.float_info.max),
                  st.sampled_from([1.0, -1.0]))
_NEAR_MAX = st.one_of(_HUGE, st.builds(complex, _HUGE, _HUGE),
                      st.builds(complex, _REALS, _HUGE), _REALS, _COMPLEXES)
_NEAR_MAX_PAIRS = st.tuples(_NEAR_MAX, _NEAR_MAX)
# amplitude parts for the sweep's step: mostly moderate; past 1e154,
# products overflow to inf
_SWEEP_PARTS = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                         st.floats(min_value=-2.0, max_value=2.0),
                         st.floats(min_value=-1e160, max_value=1e160))
_SWEEP_AMPLITUDES = st.builds(complex, _SWEEP_PARTS, _SWEEP_PARTS)
_SWEEP_PAIRS = st.tuples(_SWEEP_AMPLITUDES, _SWEEP_AMPLITUDES)
# parts up to 1e300, where squares and their products overflow
_HUGE_SWEEP_PARTS = st.one_of(_SWEEP_PARTS,
                              st.floats(min_value=-1e300, max_value=1e300))
_HUGE_SWEEP_PAIRS = st.tuples(
    st.builds(complex, _HUGE_SWEEP_PARTS, _HUGE_SWEEP_PARTS),
    st.builds(complex, _HUGE_SWEEP_PARTS, _HUGE_SWEEP_PARTS))
PAIR_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
# pair name -> (step, error norm, step-size ratio) that integrate's
# callers hand solve_adaptive; the one 8(5,3) step of src is the
# sweep's, so the loop's 8(5,3) checks step with the oracle's, in the
# flat form
SOLVER_PAIRS = {"rk45": (integrate._rk45_step, integrate._float_norm,
                         integrate._rk45_growth),
                "dop853": (flat_dop853_step, integrate._dop853_norm,
                           integrate._dop853_growth)}


def pair_rhs(p, q, power, limit):
    """Two-component test RHS, p y1^power + t y0 and q y0 y1 - y1, with
    the power written as products, as the package's right-hand sides
    write their squares; past y0.real = limit it raises PoleError, as
    the chart's right-hand side does past S = 1."""
    def f(t, y):
        y0, y1 = y
        if y0.real > limit:
            raise PoleError("past the limit")
        y1_power = y1
        for _ in range(power - 1):
            y1_power = y1_power * y1
        return p * y1_power + t * y0, q * y0 * y1 - y1

    return f


class TestPairSteps:
    """The solvers' written-out pair steps give the bits of the oracle's
    generic steps."""

    @PAIR_PROPERTY
    @given(y=_PAIRS, k1=st.one_of(st.none(), _PAIRS), h=_STEPS,
           t=st.floats(min_value=-100.0, max_value=100.0),
           p=_COEFFS, q=_COEFFS, power=st.sampled_from([1, 2, 3]),
           limit=st.one_of(st.just(math.inf), _REALS))
    @example(y=(1e110, 2.0), k1=None, h=1.0, t=0.0, p=1.0, q=1.0, power=3,
             limit=math.inf)  # a stage overflows to inf
    @example(y=(0.5j, 1 + 0j), k1=None, h=1.0, t=0.0, p=1.0, q=1.0,
             power=1, limit=0.75)  # a later stage is past the event
    @example(y=(0.0, 1.0), k1=(0j, 0.5j), h=1.0, t=0.0, p=1.0, q=1.0,
             power=1, limit=math.inf)  # a float state with complex stages
    def test_dp45_pair_step_is_the_generic_step(self, y, k1, h, t, p, q,
                                                power, limit):
        # a stage past the limit raises out of the step, where the
        # oracle's step gives None
        f = pair_rhs(p, q, power, limit)
        generic = rk45_step(f, t, y, h, k1)
        if generic is None:
            assert outcome(integrate._rk45_step, f, t, y, h, k1) is PoleError
            return
        pair = integrate._rk45_step(f, t, y, h, k1)
        assert bits(pair) == bits(flat_result(generic))
        for rtol, atol in ((1e-11, 1e-11), (1e-3, 0.0)):
            assert bits([integrate._float_norm(pair, y, rtol, atol, h)]) == \
                bits([error_norm(generic[1], y, generic[0], rtol, atol)])

    @PAIR_PROPERTY
    @given(err=_NORM_PAIRS, y=_NORM_PAIRS, y_new=_NORM_PAIRS,
           rtol=st.sampled_from([1e-11, 1e-3, 0.0, 1e300]),
           atol=st.sampled_from([1e-11, 1.0, 0.0, 1e-320]))
    @example(err=(1.0, 1.0), y=(math.nan, 1.0), y_new=(1.0, 1.0),
             rtol=1e-11, atol=1e-11)  # NaN magnitude
    @example(err=(1.0, 1.0), y=(1.0, 0.0), y_new=(1.0, 0.0),
             rtol=1e-11, atol=0.0)  # zero scale
    @example(err=(1e-11, 1e300), y=(1.0, 1.0), y_new=(1.0, 1.0),
             rtol=1e-11, atol=1e-320)  # non-finite ratio
    @example(err=(1e-12 + 3e-12j, -2e-12), y=(0.6 + 0.1j, 0.3j),
             y_new=(0.6 + 0.2j, 0.31j), rtol=1e-11, atol=1e-11)
    @example(err=(1e-12, 2e-12), y=(0.6, 1.5e308 - 1.5e308j),
             y_new=(0.6, 0.3j), rtol=1e-11,
             atol=1e-11)  # a magnitude past the largest float
    # all-float triples
    @example(err=(-1e-12, 2e-12), y=(0.3, -math.nan), y_new=(-0.31, 1.2),
             rtol=1e-11, atol=1e-11)  # NaN magnitude
    @example(err=(-0.0, 1e-12), y=(0.0, -0.0), y_new=(-0.0, 0.0),
             rtol=1e-3, atol=0.0)  # zero scale
    @example(err=(-math.inf, 1e-12), y=(0.3, 1.2), y_new=(0.31, -1.2),
             rtol=1e-11, atol=1e-11)  # infinite ratio
    @example(err=(3e-12j, 1e-12 + 2e-12j), y=(0.0, 1.0),
             y_new=(0.1j, 1.0 + 0.5j), rtol=1e-11,
             atol=1e-11)  # a float state with complex errors
    def test_pair_error_norm_is_the_generic_norm(self, err, y, y_new, rtol,
                                                 atol):
        pair = integrate._float_norm((*y_new, 0.0, 0.0, *err), y, rtol, atol,
                                     1.0)
        assert bits([pair]) == bits([error_norm(err, y, y_new, rtol, atol)])

    @PAIR_PROPERTY
    @given(res=st.lists(_NEAR_MAX, min_size=8, max_size=8), y=_NEAR_MAX_PAIRS,
           rtol=st.sampled_from([1e-11, 1e-3, 0.0]),
           atol=st.sampled_from([1e-11, 1.0, 0.0]),
           pair=st.sampled_from(["rk45", "dop853"]))
    @example(res=[1.5e308 + 1.5e308j] + [0.0] * 7, y=(1.0, 1.0), rtol=1e-11,
             atol=1e-11, pair="rk45")  # the new state
    @example(res=[0.0] * 4 + [1e308 - 1.7e308j] + [0.0] * 3, y=(1.0, 1.0),
             rtol=1e-11, atol=1e-11, pair="rk45")  # an error component
    @example(res=[0.0] * 7 + [-1.3e308 - 1.4e308j], y=(1.0, 1.0),
             rtol=1e-11, atol=1e-11, pair="dop853")  # the 3rd-order error
    @example(res=[1e308] * 8, y=(1e308 + 1e308j, -1e308), rtol=1e-11,
             atol=1e-11, pair="rk45")  # large, but no magnitude overflows
    def test_norm_past_the_largest_float_is_inf(self, res, y, rtol, atol,
                                                pair):
        # Python's abs of a complex whose magnitude is past the largest
        # float raises OverflowError, where numpy's gave inf: the norms
        # read such a step as one of infinite norm, a rejected step
        _, norm, _ = SOLVER_PAIRS[pair]
        res = tuple(res[:6] if pair == "rk45" else res)
        value = norm(res, y, rtol, atol, 1.0)
        read = (*y, res[0], res[1], *res[4:])
        if any(math.isinf(math.hypot(v.real, v.imag)) for v in read):
            assert value == math.inf
        else:
            assert value == math.inf or 0.0 <= value < math.inf

    @PAIR_PROPERTY
    @given(err=st.tuples(_NORM_PAIRS, _NORM_PAIRS), y=_NORM_PAIRS,
           y_new=_NORM_PAIRS, rtol=st.sampled_from([1e-11, 1e-3, 0.0, 1e300]),
           atol=st.sampled_from([1e-11, 1.0, 0.0, 1e-320]), h=_STEPS)
    @example(err=((1.0, 1.0), (1.0, 1.0)), y=(math.nan, 1.0),
             y_new=(1.0, 1.0), rtol=1e-11, atol=1e-11, h=1.0)  # NaN magnitude
    @example(err=((1.0, 1.0), (1.0, 1.0)), y=(1.0, 0.0), y_new=(1.0, 0.0),
             rtol=1e-11, atol=0.0, h=1.0)  # zero scale
    @example(err=((1e-11, 1e300), (1.0, 1.0)), y=(1.0, 1.0),
             y_new=(1.0, 1.0), rtol=1e-11, atol=1e-320, h=1.0)  # overflow
    @example(err=((0.0, 0.0), (0.0, -0.0)), y=(1.0, 1.0), y_new=(1.0, 1.0),
             rtol=1e-11, atol=1e-11, h=1.0)  # both errors zero
    @example(err=((1e-12 + 3e-12j, -2e-12), (4e-12, 1e-11j)),
             y=(0.6 + 0.1j, 0.3j), y_new=(0.6 + 0.2j, 0.31j), rtol=1e-11,
             atol=1e-11, h=-0.3)
    def test_dop853_norm_is_the_generic_norm(self, err, y, y_new, rtol, atol,
                                             h):
        pair = integrate._dop853_norm((*y_new, 0.0, 0.0, *flat(err)), y, rtol,
                                      atol, h)
        assert bits([pair]) == bits([dop853_norm(err, y, y_new, rtol, atol,
                                                 h)])
        assert pair == math.inf or 0.0 <= pair < math.inf

    @PAIR_PROPERTY
    @given(s=st.one_of(st.floats(min_value=-1.0, max_value=1.0),
                       st.floats(min_value=-1e3, max_value=2.0),
                       st.sampled_from([1.0, math.nextafter(1.0, 0.0),
                                        math.inf, -math.inf, math.nan])),
           theta=st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                           st.floats(allow_nan=True, allow_infinity=True)),
           c=_COEFFS, omega=_COEFFS, r=_COEFFS, gamma=_COEFFS)
    @example(s=1.0, theta=0.5, c=1.0, omega=1.0, r=0.0,
             gamma=0.3)  # at the pole: past the event
    @example(s=2.0, theta=0.5, c=1.0, omega=1.0, r=0.0, gamma=0.3)
    @example(s=0.5, theta=math.inf, c=1.0, omega=1.0, r=0.0, gamma=0.3)
    @example(s=0.5, theta=-math.inf, c=1.0, omega=1.0, r=0.0, gamma=0.3)
    def test_chart_rhs_guards_the_pole_and_an_infinite_phase(
            self, s, theta, c, omega, r, gamma):
        # evolve_reduced's right-hand side is reduced_deriv with
        # eps_pole = 0: PoleError at or past S = 1 and no nearer, and a
        # NaN pair where math.sin rejects an infinite phase
        f = chart_rhs(c, omega, r, gamma)
        if s >= 1.0:
            with pytest.raises(PoleError):
                f(0.0, (s, theta))
        elif math.isinf(theta):
            assert all(math.isnan(v) for v in f(0.0, (s, theta)))
        else:
            assert bits(f(0.0, (s, theta))) == bits(
                reduced_deriv(s, theta, c, omega, r, gamma, eps_pole=0.0))

    @PAIR_PROPERTY
    @given(s=st.one_of(st.floats(min_value=-1.0, max_value=1.0,
                                 exclude_max=True),
                       st.floats(min_value=0.9, max_value=1.0,
                                 exclude_max=True),
                       st.floats(min_value=-1e3, max_value=1.0,
                                 exclude_max=True)),
           theta=st.one_of(st.floats(min_value=-50.0, max_value=50.0),
                           st.floats(allow_nan=True, allow_infinity=True)),
           h=st.one_of(_STEPS, st.sampled_from([1e300, 1e307])),
           c=_COEFFS, omega=_COEFFS, r=_COEFFS, gamma=_COEFFS)
    # a stage at or past the pole
    @example(s=0.9, theta=3.0 * math.pi / 2.0, h=1.0, c=0.0, omega=1.0,
             r=0.0, gamma=0.0)
    # theta + h * 6 * _A21 overflows to inf in the second stage
    @example(s=0.5, theta=1.79e308, h=1e307, c=3.0, omega=0.0, r=0.0,
             gamma=0.0)
    @example(s=0.5, theta=-1.79e308, h=-1e307, c=3.0, omega=0.0, r=0.0,
             gamma=0.4)
    # a smooth step with every term of both components at work
    @example(s=-0.3, theta=2.0, h=0.1, c=0.7, omega=1.1, r=-0.4,
             gamma=0.6)
    def test_reduced_step_is_the_generic_step(self, s, theta, h, c, omega,
                                              r, gamma):
        # the chart's step gives the bits of _rk45_step over
        # evolve_reduced's right-hand side, or it fails where that step
        # raises PoleError or gives a state or error of infinite norm,
        # which the loop rejects alike
        f = chart_rhs(c, omega, r, gamma)
        y, t = (s, theta), 0.25
        k1 = f(t, y)
        generic = failing_rk45_step(f, t, y, h, k1)
        written = integrate._reduced_rk45_step(c, omega, r, gamma)(
            None, t, y, h, k1)
        norm = functools.partial(integrate._float_norm, y=y, h=h)
        if written is None:
            assert (generic is None
                    or norm(generic, rtol=1e-11, atol=1e-11) == math.inf)
            return
        assert bits(written) == bits(generic)
        for rtol, atol in ((1e-11, 1e-11), (1e-3, 0.0)):
            assert bits([integrate._float_norm(written, y, rtol, atol, h)]) \
                == bits([norm(generic, rtol=rtol, atol=atol)])

    @PAIR_PROPERTY
    @given(y=_SWEEP_PAIRS, k1=st.one_of(st.none(), _SWEEP_PAIRS),
           h=st.one_of(_STEPS, st.floats(min_value=-1e307, max_value=1e307)),
           t=st.one_of(st.floats(min_value=0.0, max_value=20.0),
                       st.floats(min_value=-1e3, max_value=1e3)),
           c=_COEFFS, omega=_COEFFS, gamma=_COEFFS,
           beta=_COEFFS.filter(lambda v: v != 0.0),
           r_max=st.floats(min_value=0.1, max_value=10.0))
    # a smooth step with every term at work, before T/2 at beta < 0 and
    # after it at beta > 0
    @example(y=(0.8 + 0.1j, 0.3j), k1=None, h=0.1, t=1.0, c=0.7, omega=1.1,
             gamma=0.6, beta=-0.4, r_max=2.0)
    @example(y=(0.6 - 0.3j, 0.2 + 0.4j), k1=None, h=-0.3, t=9.0, c=-1.2,
             omega=0.8, gamma=-0.5, beta=0.7, r_max=1.3)
    # a = 0, the pure molecular mode, stays 0 in every stage: the float
    # parts give -0.0 for Re k_last_a where complex numbers give 0.0
    @example(y=(0j, 0.5 - 0.25j), k1=None, h=0.1, t=2.5, c=1.0, omega=0.8,
             gamma=1.0, beta=0.5, r_max=5.0)
    # a * a overflows to inf in the second stage, and in a later one
    @example(y=(1e155 + 0j, 0j), k1=(0j, 0j), h=0.1, t=1.0, c=1.0,
             omega=1.0, gamma=0.3, beta=1.0, r_max=5.0)
    @example(y=(1.0 + 0j, 0j), k1=None, h=1e307, t=1.0, c=1.0, omega=1.0,
             gamma=0.3, beta=1.0, r_max=5.0)
    @example(y=(1.0 + 0j, 0j), k1=None, h=-1e307, t=1.0, c=1.0, omega=1.0,
             gamma=0.3, beta=-1.0, r_max=5.0)
    # inf products and NaN sums from moderate squares
    @example(y=(1e100 + 1e100j, 1e120j), k1=(0j, 0j), h=0.1, t=0.0, c=1.0,
             omega=1.0, gamma=0.3, beta=1.0, r_max=5.0)
    def test_sweep_step_is_the_generic_step(self, y, k1, h, t, c, omega,
                                            gamma, beta, r_max):
        # the sweep's step gives the bits of the oracle's tableau loop
        # over the sweep's unit_norm_deriv in every part that step gives
        # finite, a zero up to its sign, and the bits of its error norm.
        # Where a part is not finite, the two may differ in a NaN's sign,
        # and a part that is finite on the float parts may be NaN on
        # complex numbers (inf * 0.0); the equal norms make the loop
        # accept or reject both alike
        half = experiments.SweepProtocol(beta=beta, r_max=r_max)._half_duration
        f = sweep_rhs(c, omega, gamma, beta, half)
        if k1 is None:  # the loop's k1, f at the start state
            k1 = f(t, y)
        generic = dop853_step(f, t, y, h, k1)
        written = integrate._sweep_dop853_step(c, omega, gamma, beta, half)(
            None, t, y, h, k1)
        oracle = flat_result(generic)
        for x, z in zip(flat_parts(written), flat_parts(oracle)):
            if math.isfinite(z):
                assert bits([x or 0.0]) == bits([z or 0.0])
        for rtol, atol in ((1e-11, 1e-11), (1e-3, 0.0)):
            assert bits([integrate._dop853_norm(written, y, rtol, atol, h)]) \
                == bits([dop853_norm(generic[1], y, generic[0], rtol, atol,
                                     h)])

    @pytest.mark.parametrize("y, k1, c, omega, gamma, beta, outcome", [
        # a = 0, the pure molecular mode, stays 0 in every stage; the
        # float parts give -0.0 for Re k_last_a where complex numbers
        # give 0.0, and every other bit of the oracle's
        ((0j, 0.5 - 0.25j), None, 1.0, 0.8, 1.0, 0.5, "zero_sign"),
        # a * a past the largest float, in the second stage
        ((1e155 + 0j, 0j), (0j, 0j), 1.0, 1.0, 0.3, 1.0, "overflow"),
        # inf products and NaN sums from moderate squares
        ((1e100 + 1e100j, 1e120j), (0j, 0j), 1.0, 1.0, 0.3, 1.0, "nan")])
    def test_sweep_step_on_zero_and_overflowing_parts(self, y, k1, c, omega,
                                                      gamma, beta, outcome):
        # the kinds of step the sweep's float parts give where complex
        # numbers would not give every bit: a zero's sign, and parts
        # that are not finite, which the norm reads as inf, as it does
        # the oracle's
        half = experiments.SweepProtocol(beta=beta, r_max=5.0)._half_duration
        f = sweep_rhs(c, omega, gamma, beta, half)
        t, h, k1 = 2.5, 0.1, k1 or f(2.5, y)
        oracle = flat_dop853_step(f, t, y, h, k1)
        written = integrate._sweep_dop853_step(c, omega, gamma, beta, half)(
            None, t, y, h, k1)
        if outcome == "overflow":
            for res in (written, oracle):
                assert not all(map(math.isfinite, flat_parts(res)))
                assert integrate._dop853_norm(res, y, 1e-11, 1e-11,
                                              h) == math.inf
        elif outcome == "nan":
            assert all(map(math.isnan, flat_parts(written)))
            assert all(map(math.isnan, flat_parts(oracle)))
            for res in (written, oracle):
                assert integrate._dop853_norm(res, y, 1e-11, 1e-11,
                                              h) == math.inf
        else:
            changed = [k for k, (x, z) in enumerate(zip(
                bits(flat_parts(written)), bits(flat_parts(oracle))))
                if x != z]
            assert changed == [4]  # Re k_last_a
            assert flat_parts(written)[4] == flat_parts(oracle)[4] == 0.0
            assert math.copysign(1.0, flat_parts(written)[4]) == -1.0
            assert bits([integrate._dop853_norm(written, y, 1e-11, 1e-11,
                                                h)]) == \
                bits([integrate._dop853_norm(oracle, y, 1e-11, 1e-11, h)])

    @PAIR_PROPERTY
    @given(y=_HUGE_SWEEP_PAIRS, k1=st.one_of(st.none(), _HUGE_SWEEP_PAIRS),
           h=st.one_of(_STEPS, st.floats(min_value=-1e300, max_value=1e300)),
           t=st.floats(min_value=-1e300, max_value=1e300),
           c=_COEFFS, omega=_COEFFS, gamma=_COEFFS,
           beta=_COEFFS.filter(lambda v: v != 0.0))
    @example(y=(1e300 + 1e300j, -1e300j), k1=None, h=1e300, t=1e300, c=3.0,
             omega=3.0, gamma=3.0, beta=3.0)
    def test_sweep_step_never_fails(self, y, k1, h, t, c, omega, gamma, beta):
        # the step takes no float power, so no part up to 1e300 makes it
        # raise or return None: a step past the largest float has inf or
        # NaN parts instead, and a norm the loop can compare with 1
        if k1 is None:
            k1 = sweep_rhs(c, omega, gamma, beta, 0.0)(t, y)
        res = integrate._sweep_dop853_step(c, omega, gamma, beta, 0.0)(
            None, t, y, h, k1)
        assert isinstance(res, tuple) and len(res) == 8
        norm = integrate._dop853_norm(res, y, 1e-11, 1e-11, h)
        assert norm == norm  # never NaN: the loop compares it with 1

    def test_sweep_step_is_the_generic_step_on_uniform_draws(self):
        # hypothesis favours simple floats, whose products are often
        # exact; on 300 uniform draws every float part must still round
        # as the oracle's tableau loop over complex numbers does
        rng = random.Random(30)
        for _ in range(300):
            c, omega, gamma, beta = (rng.uniform(-3.0, 3.0) for _ in "1234")
            y = tuple(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                      for _ in "12")
            pr = experiments.SweepProtocol(beta=beta, r_max=5.0)
            t, h = rng.uniform(0.0, pr.duration), rng.uniform(-0.05, 0.05)
            f = sweep_rhs(c, omega, gamma, beta,
                                          pr._half_duration)
            k1 = f(t, y)
            written = integrate._sweep_dop853_step(
                c, omega, gamma, beta, pr._half_duration)(None, t, y, h, k1)
            assert bits(written) == bits(flat_dop853_step(f, t, y, h, k1))

    def test_dop853_one_step_error_is_ninth_order(self):
        # at C = Omega = Gamma = 0 the sweep's flow is a = a0 e^(-i Phi),
        # b = b0 e^(2i Phi), Phi = beta ((t - T/2)^2 - (t0 - T/2)^2) / 2:
        # an 8th-order step errs by O(h^9), 2^9 = 512 times less per
        # halving of h, from h = 0.5 down to where rounding sets in.  At
        # t0 = 5, R = -2: the ratios are 2^9.04 and 2^8.99
        pr = experiments.SweepProtocol(beta=0.1, r_max=2.5)
        half = pr._half_duration
        a0, b0, t0 = 0.6 + 0.8j, 0.3 - 0.4j, 5.0
        step = integrate._sweep_dop853_step(0.0, 0.0, 0.0, pr.beta, half)
        k1 = sweep_rhs(0.0, 0.0, 0.0, pr.beta, half)(
            t0, (a0, b0))
        errors = []
        for h in (0.5, 0.25, 0.125):
            a, b = step(None, t0, (a0, b0), h, k1)[:2]
            phi = pr.beta * ((t0 + h - half) ** 2 - (t0 - half) ** 2) / 2.0
            errors.append(max(abs(a - a0 * cmath.exp(-1j * phi)),
                              abs(b - b0 * cmath.exp(2j * phi))))
        for coarse, fine in zip(errors, errors[1:]):
            assert abs(math.log2(coarse / fine) - 9.0) < 0.2

    @PAIR_PROPERTY
    @given(e=st.one_of(st.floats(min_value=1e-30, max_value=1.0),
                       st.floats(min_value=0.0, exclude_min=True)))
    @example(e=math.inf)
    @example(e=5e-324)
    @example(e=256.0)
    def test_dop853_growth_is_the_eighth_root(self, e):
        # three correctly rounded square roots and a division stay within
        # 3 ulp of libm's e ** -0.125 (a power of 2 exactly), and inf
        # gives 0.0, the _MIN_FACTOR clamp, as the power does
        growth, power = integrate._dop853_growth(e), e ** -0.125
        assert abs(growth - power) <= 3.0 * math.ulp(power)
        if e == 256.0 or math.isinf(e):
            assert growth == power

    def test_growth_is_nan_at_nan(self):
        # a NaN factor takes the _MIN_FACTOR clamp, as a NaN power did
        for growth in (integrate._rk45_growth, integrate._dop853_growth):
            assert math.isnan(growth(math.nan))

    def test_dop853_tableau_is_scipys(self):
        coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        c, a, b, e5, bhh = DOP853_TABLEAU
        n = coeffs.N_STAGES
        assert c == coeffs.C[:n].tolist()
        assert ([row + [0.0] * (n - len(row)) for row in a]
                == coeffs.A[:n, :n].tolist())
        assert b == coeffs.B.tolist()
        assert e5 + [0.0] == coeffs.E5.tolist()
        assert [bi - hi for bi, hi in zip(b, bhh)] + [0.0] == \
            coeffs.E3.tolist()

    @pytest.mark.parametrize("y0, pair", [((1.0, 0.5), True),
                                          ((0.9 + 0.1j, 0.2j), True),
                                          ((1.0,), False),
                                          ((1.0, 0.5, 0.25), False)])
    def test_solvers_take_pairs_only(self, y0, pair):
        calls = []

        def f(t, y):
            calls.append(t)
            return tuple([-yi for yi in y])

        def event(t, y):
            return t - 0.5

        if pair:
            _, states, _ = solve_adaptive(f, 0.0, y0, 1.0, event=event)
            assert states.shape[1] == 2
        else:
            with pytest.raises(ValueError, match=f"got {len(y0)} comp"):
                solve_adaptive(f, 0.0, y0, 1.0, event=event)
            assert calls == []


def flat_parts(res):
    """The real and imaginary parts of a flat step result, in order."""
    return [x for v in res for x in (v.real, v.imag)]


def flat(parts):
    """The numbers of nested tuples and lists, in order."""
    if isinstance(parts, (tuple, list)):
        return [v for part in parts for v in flat(part)]
    return [parts]


def test_pair_steps_keep_the_bits_on_full_precision_states():
    # hypothesis favours short floats, whose products and sums are
    # often exact, so a regrouped stage sum can pass the properties of
    # TestPairSteps; one regrouped 8(5,3) stage changed about one step
    # in six of these full-precision draws
    rng = np.random.default_rng(20)
    for _ in range(300):
        parts = rng.uniform(-2.0, 2.0, 4).tolist()
        y = ((complex(*parts[:2]), complex(*parts[2:]))
             if rng.random() < 0.5 else tuple(parts[:2]))
        p, q, h, t = rng.uniform(-2.0, 2.0, 4).tolist()
        f = pair_rhs(p, q, int(rng.integers(1, 4)), math.inf)
        pair = integrate._rk45_step(f, t, y, h)
        generic = flat_result(rk45_step(f, t, y, h))
        assert (pair is None) == (generic is None)
        if pair is not None:
            assert bits(pair) == bits(generic)


def test_chart_step_keeps_the_bits_on_full_precision_states():
    # as above, for the chart's own 4(5) step: full-precision states,
    # coefficients and steps, away from the pole and the phase overflow
    # that test_reduced_step_is_the_generic_step draws
    rng = np.random.default_rng(21)
    failed = 0
    for _ in range(300):
        y = (rng.uniform(-0.95, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        c, omega, r, gamma = rng.uniform(-2.0, 2.0, 4).tolist()
        h, t = rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0)
        f = chart_rhs(c, omega, r, gamma)
        k1 = f(t, y)
        written = integrate._reduced_rk45_step(c, omega, r, gamma)(
            None, t, y, h, k1)
        generic = failing_rk45_step(f, t, y, h, k1)
        if written is None:
            failed += 1
            assert (generic is None or integrate._float_norm(
                generic, y, 1e-11, 1e-11, h) == math.inf)
        else:
            assert bits(written) == bits(generic)
    assert failed < 100


def solve_outcome(solve, f, y0, t0, span, tols, level, pair):
    """A solve's times, states and event as exact bytes, or the type and
    message of what it raised.  level, when not None, is an event at
    y0.real = level."""
    step, norm, growth = (SOLVER_PAIRS if solve is solve_adaptive
                          else oracles.PAIRS)[pair]
    if step is integrate._rk45_step:
        # a stage past the limit is a failed step, as in the chart's own
        # step, where _rk45_step would raise
        step = failing_rk45_step
    event = None if level is None else (lambda t, y: y[0].real - level)
    try:
        times, states, hit = solve(f, t0, y0, t0 + span, rtol=tols[0],
                                   atol=tols[1], event=event, step=step,
                                   norm=norm, growth=growth)
    except Exception as exc:  # compared with the oracle's
        return type(exc), str(exc)
    return (times.tobytes(), states.dtype.str, states.tobytes(),
            None if hit is None else (bits([hit[0]]), bits(hit[1])))


_MODERATE = st.floats(min_value=-2.0, max_value=2.0)
_MODERATE_COMPLEX = st.builds(complex, _MODERATE, _MODERATE)


class TestSolveLoop:
    """solve_adaptive gives the times, states and event bits of the
    oracle's loop, which keeps builtin min/max step control and
    evaluates every first stage afresh."""

    @PAIR_PROPERTY
    @given(y0=st.one_of(st.tuples(_MODERATE, _MODERATE),
                        st.tuples(_MODERATE_COMPLEX, _MODERATE_COMPLEX),
                        _PAIRS),
           t0=st.floats(min_value=-3.0, max_value=3.0),
           span=st.floats(min_value=1e-3, max_value=3.0),
           tols=st.tuples(st.sampled_from([1e-3, 1e-6, 1e-9]),
                          st.sampled_from([1e-3, 1e-6, 1e-9])),
           p=_COEFFS, q=_COEFFS, power=st.sampled_from([1, 2, 3]),
           gap=st.one_of(st.just(math.inf), st.floats(0.0, 2.0)),
           rise=st.one_of(st.none(), st.floats(-0.5, 2.0)),
           pair=st.sampled_from(["rk45", "dop853"]))
    # stages past y0.real = limit raise PoleError: rejected steps at
    # the _MIN_FACTOR clamp, and a bisection of the event step
    @example(y0=(0.5, 1.0), t0=0.0, span=2.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=1, gap=0.25, rise=0.2,
             pair="rk45")
    @example(y0=(0.5j, 1 + 0j), t0=0.0, span=2.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=1, gap=0.75, rise=0.7,
             pair="dop853")
    # no event below the limit: every step is rejected, step underflow
    @example(y0=(0.5, 1.0), t0=0.0, span=2.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=1, gap=0.25, rise=None,
             pair="rk45")
    # f = 0: err_norm == 0 and the _MAX_FACTOR growth, then the last
    # step cut to t_final
    @example(y0=(0.0, 0.0), t0=0.0, span=3.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=2, gap=math.inf, rise=None,
             pair="rk45")
    @example(y0=(0j, 0j), t0=1.0, span=3.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=2, gap=math.inf, rise=None,
             pair="dop853")
    # a smooth orbit: accepted steps at the _MAX_FACTOR clamp and below
    # it, rejected steps, the last step cut to t_final
    @example(y0=(0.5, 1.0), t0=0.0, span=3.0, tols=(1e-3, 1e-9),
             p=1.0, q=-1.0, power=1, gap=math.inf,
             rise=None, pair="rk45")
    @example(y0=(0.5 + 0.1j, 1.0 - 0.2j), t0=-2.0, span=3.0,
             tols=(1e-9, 1e-9), p=1.0, q=-1.0, power=2,
             gap=math.inf, rise=None, pair="dop853")
    # stages overflow to inf: NaN steps, rejected down to a step
    # underflow
    @example(y0=(1e100, 1e100), t0=0.0, span=1.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=3, gap=math.inf, rise=None,
             pair="dop853")
    # the derivative at the start overflows to inf: every step from
    # there is rejected, down to a step underflow
    @example(y0=(2.0, 1e110), t0=0.0, span=1.0, tols=(1e-6, 1e-6),
             p=1.0, q=1.0, power=3, gap=math.inf, rise=None,
             pair="rk45")
    def test_solve_is_the_oracle_loop(self, y0, t0, span, tols, p, q, power,
                                      gap, rise, pair):
        f = pair_rhs(p, q, power, y0[0].real + gap)
        level = None if rise is None else y0[0].real + rise
        args = (f, y0, t0, span, tols, level, pair)
        # a small step budget bounds the solves that blow up slowly; its
        # StepBudgetError is compared too
        with mock.patch.object(integrate, "MAX_STEPS", 1000), \
                mock.patch.object(oracles, "MAX_STEPS", 1000):
            assert solve_outcome(solve_adaptive, *args) == \
                solve_outcome(oracle_solve_adaptive, *args)

    @pytest.mark.parametrize("s0, theta0, q, cfg", [
        # the pole-event start of the bench portrait
        (0.9, 3.0 * math.pi / 2.0, ReducedParams(),
         IntegratorConfig(t_final=5.0)),
        (-0.6, 3.0 * math.pi / 2.0, ReducedParams(gamma=-0.4),
         IntegratorConfig(t_final=10.0)),
        (0.2, 1.0, ReducedParams(c=1.3, omega=0.8, r=0.3, gamma=-0.4),
         IntegratorConfig(t_final=10.0, rtol=1e-8, atol=1e-9)),
        (0.6, 2.0, ReducedParams(gamma=0.6),
         IntegratorConfig(t_final=10.0))])
    def test_reduced_solve_is_the_oracle_loop(self, s0, theta0, q, cfg):
        # evolve_reduced steps with the chart's own step; the oracle loop
        # steps evolve_reduced's right-hand side with the generic 4(5)
        # step, which gives None where a stage raises PoleError
        tr = evolve_reduced(s0, theta0, q, cfg)
        s_max = 1.0 - EPS_POLE
        times, states, hit = oracle_solve_adaptive(
            chart_rhs(q.c, q.omega, q.r, q.gamma), 0.0,
            (s0, theta0), cfg.t_final, rtol=cfg.rtol, atol=cfg.atol,
            event=lambda t, y: y[0] - s_max)
        assert tr.times.tobytes() == times.tobytes()
        assert tr.s.tobytes() == states[:, 0].tobytes()
        assert tr.theta.tobytes() == states[:, 1].tobytes()
        assert (tr.pole_event is None) == (hit is None)
        if hit is not None:
            ev = tr.pole_event
            assert bits([ev.time, ev.s, ev.theta]) == bits([hit[0], *hit[1]])

    @pytest.mark.parametrize("pair", ["rk45", "dop853"])
    def test_start_states_are_evaluated_once(self, pair):
        # the initial step's derivative is the first step's first stage,
        # and the event bisection reuses the event step's first stage
        calls = collections.Counter()

        def f(t, y):
            calls[t, y] += 1
            return y[1], -y[0]

        step, norm, growth = SOLVER_PAIRS[pair]
        times, states, hit = solve_adaptive(
            f, 0.0, (0.0, 1.0), 10.0, rtol=1e-6, atol=1e-6,
            event=lambda t, y: y[0] - 0.9, step=step, norm=norm,
            growth=growth)
        assert hit is not None and 1.0 < hit[0] < 1.2
        event_step_start = (float(times[-2]), tuple(states[-2].tolist()))
        assert hit[0] > event_step_start[0]  # the bisection moved
        assert calls[0.0, (0.0, 1.0)] == 1
        assert calls[event_step_start] == 1


def grid_rows(tr, t_span, n_t):
    """The rows of a portrait orbit on its time grid, from evolve_reduced's
    solve tr: at each t_k = t_span k / (n_t - 1), the last t_span
    exactly, the accepted state there, or the generic step (_rk45_step
    over evolve_reduced's right-hand side) from the last accepted state
    before t_k, left out where that step fails.  A pole-event orbit ends
    on its event state, with no row past its last accepted state."""
    q = tr.params
    f = chart_rhs(q.c, q.omega, q.r, q.gamma)
    times = tr.times.tolist()
    states = list(zip(tr.s.tolist(), tr.theta.tolist()))
    ev = tr.pole_event
    n = len(times) - (ev is not None)
    rows = []
    for k in range(n_t):
        t_k = t_span if k == n_t - 1 else t_span * k / (n_t - 1)
        if ev is not None and not (t_k <= times[n - 1] and t_k < ev.time):
            break
        j = max(i for i in range(n) if times[i] <= t_k)
        y, h = states[j], t_k - times[j]
        if h == 0.0:
            rows.append((t_k, *y))
            continue
        res = failing_rk45_step(f, times[j], y, h, f(times[j], y))
        if res is None:
            continue
        rows.append((t_k, *res[:2]))
    if ev is not None:
        rows.append((ev.time, ev.s, ev.theta))
    return rows


class TestPortraitTimeGrid:
    """phase_portrait writes each orbit on a fixed time grid of the
    solve's own steps (integrate._on_time_grid)."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(s0=st.floats(min_value=-0.95, max_value=0.95),
           theta0=st.floats(min_value=0.0, max_value=2.0 * math.pi),
           c=st.floats(min_value=-1.5, max_value=1.5),
           r=st.floats(min_value=-1.5, max_value=1.5),
           omega=st.floats(min_value=0.3, max_value=1.5),
           gamma=st.one_of(st.floats(min_value=-0.8, max_value=-0.05),
                           st.just(0.0),
                           st.floats(min_value=0.05, max_value=0.8)),
           t_span=st.floats(min_value=0.5, max_value=4.0),
           n_t=st.integers(min_value=2, max_value=60))
    # the pole-event start of the bench portrait
    @example(s0=0.9, theta0=3.0 * math.pi / 2.0, c=0.0, r=0.0, omega=1.0,
             gamma=0.0, t_span=3.0, n_t=41)
    @example(s0=0.9, theta0=3.0 * math.pi / 2.0, c=0.0, r=0.0, omega=1.0,
             gamma=0.4, t_span=3.0, n_t=41)
    def test_grid_rows_are_steps_from_the_accepted_states(
            self, s0, theta0, c, r, omega, gamma, t_span, n_t):
        # each row has the bits of the step from the accepted state
        # before it, and a row at an accepted time is that state
        q = ReducedParams(c=c, omega=omega, r=r, gamma=gamma)
        cfg = IntegratorConfig(rtol=1e-8, atol=1e-8, t_final=t_span)
        solve = evolve_reduced(s0, theta0, q, cfg)
        got = integrate._on_time_grid(solve, t_span, n_t)
        want = grid_rows(solve, t_span, n_t)
        assert got.pole_event == solve.pole_event
        assert len(got.times) <= n_t + (solve.pole_event is not None)
        assert bits(got.times) == bits([row[0] for row in want])
        assert bits(got.s) == bits([row[1] for row in want])
        assert bits(got.theta) == bits([row[2] for row in want])
        accepted = dict(zip(solve.times.tolist(),
                            zip(solve.s.tolist(), solve.theta.tolist())))
        for t, s, theta in zip(got.times, got.s, got.theta):
            if t in accepted:
                assert bits(accepted[t]) == bits([s, theta])

    @pytest.mark.parametrize("t_span, tol, capped", [
        (2.0, 1e-8, False),  # short and loose
        (20.0, 1e-11, True),  # the bench's length
        (0.1, 1e-3, False),  # four states an orbit: the floor of 2
    ])
    def test_default_grid_is_a_quarter_of_the_mean_states(
            self, t_span, tol, capped):
        # n_t is the cap, or the solves' mean recorded states per orbit
        # over four and at least 2, so the grid writes at most a quarter
        # of the accepted states and the pole-event rows
        q = ReducedParams(gamma=0.2)
        starts = [(0.5, 0.0), (-0.3, 2.0), (0.9, 3.0 * math.pi / 2.0)]
        cfg = IntegratorConfig(rtol=tol, atol=tol, t_final=t_span)
        solves = [evolve_reduced(s0, theta0, q, cfg)
                  for s0, theta0 in starts]
        states = sum(len(tr.times) for tr in solves)
        portrait = experiments.phase_portrait(q, ic_grid=starts,
                                              t_span=t_span, cfg=cfg)
        mean = states // len(starts) // experiments.PORTRAIT_THINNING
        assert portrait.n_t == min(experiments.PORTRAIT_N_T, max(2, mean))
        assert (portrait.n_t == experiments.PORTRAIT_N_T) is capped
        rows = sum(len(tr.times) for tr in portrait.trajectories)
        events = sum(tr.pole_event is not None for tr in solves)
        assert rows <= max(states // experiments.PORTRAIT_THINNING,
                           2 * len(starts)) + events
        assert bits(portrait.trajectories[0].times) == bits(
            [t_span * k / (portrait.n_t - 1)
             for k in range(portrait.n_t - 1)] + [t_span])

    def test_a_row_whose_step_fails_is_left_out(self):
        # from S = 1 - 1e-9 heading up, every step of length 1 has a
        # stage past S = 1: the row at t = 1 is dropped, and the rows at
        # the recorded times 0 and 2 are the recorded states
        q = ReducedParams()
        tr = integrate.ReducedTrajectory(
            times=np.array([0.0, 2.0]), s=np.array([1.0 - 1e-9, 0.25]),
            theta=np.array([3.0 * math.pi / 2.0, 1.0]), params=q)
        got = integrate._on_time_grid(tr, 2.0, 3)
        assert bits(got.times) == bits([0.0, 2.0])
        assert bits(got.s) == bits([1.0 - 1e-9, 0.25])
        assert bits(got.theta) == bits([3.0 * math.pi / 2.0, 1.0])

    def test_no_row_past_the_last_accepted_step(self):
        # a hand-made pole-event orbit, accepted at t = 0 and 1 and
        # halted at 1.5: the solve records the event state after the
        # last accepted step, so the grid time 1.25 has no row
        q = ReducedParams()
        tr = integrate.ReducedTrajectory(
            times=np.array([0.0, 1.0, 1.5]), s=np.array([0.1, 0.2, 0.3]),
            theta=np.array([1.0, 2.0, 3.0]), params=q,
            pole_event=integrate.PoleEvent(time=1.5, s=0.3, theta=3.0))
        got = integrate._on_time_grid(tr, 2.0, 9)
        assert got.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
        assert got.s.tolist()[-1] == 0.3 and got.theta.tolist()[-1] == 3.0
