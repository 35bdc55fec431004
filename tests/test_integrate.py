"""Integrator: conservation, convergence, events, determinism."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomol import integrate
from atomol.integrate import (
    IntegratorConfig,
    StepBudgetError,
    StepUnderflowError,
    evolve,
    evolve_reduced,
    solve_adaptive,
    solve_fixed,
)
from atomol.model import (
    Amplitudes,
    CanonicalState,
    NumericalError,
    Params,
    ReducedParams,
    amplitudes_from_canonical,
    angle_distance,
    derived_quantities,
    effective_energy,
    params_from_gamma,
)
from oracles import error_norm, rk4_step, rk45_step


# sha256 of the recorded arrays (and the pole event, when one fires),
# recorded with this numpy; see digest()
DIGEST_NUMPY = "2.4.6"


def digest(tr, names):
    h = hashlib.sha256()
    for name in names:
        h.update(np.ascontiguousarray(getattr(tr, name)).tobytes())
    ev = tr.pole_event
    if ev is not None:
        h.update(np.array([ev.time, ev.s, ev.theta]).tobytes())
    return h.hexdigest()


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
        tr = evolve(state_on_shell(s0, th0), p, IntegratorConfig(t_final=20.0))
        d = np.hypot(tr.s - s0, angle_distance(tr.theta, th0))
        late = tr.times > 1.0
        t_close = tr.times[late][np.argmin(d[late])]
        # refine around the approximate recurrence with dense fixed steps
        cfg = IntegratorConfig(method="rk4", dt=(t_close + 0.02) / 400000,
                               t_final=t_close + 0.02)
        tr2 = evolve(state_on_shell(s0, th0), p, cfg)
        d2 = np.hypot(tr2.s - s0, angle_distance(tr2.theta, th0))
        window = tr2.times > t_close - 0.02
        assert d2[window].min() < 1e-4
        # energy oracle: recurrence happens on the conserved-energy orbit
        assert np.abs(tr2.energy - tr2.energy[0]).max() < 1e-7

    def test_trajectory_samples_and_derived(self):
        p = Params(v=1.0, u=2.0, r=0.5, gamma_a=0.1, gamma_b=-0.05)
        tr = evolve(state_on_shell(0.3, 1.0), p, IntegratorConfig(t_final=3.0))
        assert np.all(np.diff(tr.times) > 0)
        recomputed = derived_quantities(tr.states, p.v, p.u, p.r)
        for key in ("s", "theta", "n", "p_atom", "hx", "hy", "hz", "energy"):
            assert np.array_equal(getattr(tr, key), recomputed[key])

    def test_record_every_decimates_output_only(self):
        p = Params(v=1.0)
        x0 = state_on_shell(0.4, 2.0)
        full = evolve(x0, p, IntegratorConfig(t_final=5.0))
        thin = evolve(x0, p, IntegratorConfig(t_final=5.0, record_every=7))
        assert len(thin.times) < len(full.times)
        assert thin.times[-1] == full.times[-1]
        # decimation does not change the solution
        assert np.abs(thin.states[-1] - full.states[-1]).max() == 0.0

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

    def test_convergence_contract_fixed_step(self):
        p = Params(v=1.0, u=2.0, r=0.0)
        x0 = state_on_shell(0.6, 1.0)
        finals = {}
        for dt in (2e-3, 1e-3, 5e-4):
            cfg = IntegratorConfig(method="rk4", dt=dt, t_final=10.0)
            finals[dt] = evolve(x0, p, cfg).states[-1]
        d1 = np.abs(finals[2e-3] - finals[1e-3]).max()
        d2 = np.abs(finals[1e-3] - finals[5e-4]).max()
        # 4th order: halving dt shrinks the refinement difference ~16x
        assert d1 / d2 > 8.0
        assert d1 < 1e-8


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

    def test_fixed_step_pole_event_matches_adaptive(self):
        # an rk4 stage past S = 1 raises in the guarded right-hand side;
        # the fixed stepper cannot reject it, so it stops with a pole event
        q = ReducedParams()
        dt = 1e-3
        rk4 = evolve_reduced(0.9, 3.0 * math.pi / 2.0, q,
                             IntegratorConfig(method="rk4", dt=dt, t_final=2.0))
        rk45 = evolve_reduced(0.9, 3.0 * math.pi / 2.0, q,
                              IntegratorConfig(t_final=2.0))
        assert rk4.pole_event is not None and rk45.pole_event is not None
        assert np.all(np.isfinite(rk4.s)) and np.all(np.isfinite(rk4.theta))
        assert abs(rk4.pole_event.time - rk45.pole_event.time) <= dt
        assert rk4.times[-1] == rk4.pole_event.time


class TestTrajectoryDigests:
    """Bit-for-bit guards of the paths no CLI fingerprint covers."""

    @pytest.fixture(autouse=True)
    def same_numpy(self):
        if np.__version__ != DIGEST_NUMPY:
            pytest.skip(f"digests recorded with numpy {DIGEST_NUMPY}, "
                        f"installed {np.__version__}")

    def test_reduced_rk4_pole_event(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_final=2.0)
        tr = evolve_reduced(0.9, 3.0 * math.pi / 2.0, q, cfg, eps_pole=1e-3)
        assert tr.pole_event is not None and tr.pole_event.time == 0.145
        assert len(tr.times) == 146
        assert digest(tr, ("times", "s", "theta")) == (
            "223dbd20b4799e883446d5cf0510c61c2a72b0d51e64bb312d91aa22d154a42e")


class TestCrossRepresentation:
    def test_zero_loss_amplitude_vs_reduced(self):
        # common fixed-step grid so the trajectories share sample times
        p = Params(v=1.0, u=1.2, r=0.4)
        s0, th0 = 0.5, 2.2
        cfg = IntegratorConfig(method="rk4", dt=1e-3, t_final=20.0)
        amp = evolve(state_on_shell(s0, th0), p, cfg)
        red = evolve_reduced(s0, th0, p.reduced(1.0), cfg)
        assert np.array_equal(amp.times, red.times)
        assert np.abs(amp.s - red.s).max() < 1e-6
        assert np.max(angle_distance(amp.theta, red.theta)) < 1e-6

    @pytest.mark.parametrize("gamma_plus", [0.0, 0.2])
    def test_norm_law_along_evolve(self, gamma_plus):
        # n(t) = n0 exp(-int (G+ + G- S) dt), the integral by the trapezoid
        # rule on the recorded samples
        p = params_from_gamma(v=1.0, u=0.8, r=0.1, gamma_minus=0.3,
                              gamma_plus=gamma_plus)
        cfg = IntegratorConfig(method="rk4", dt=5e-4, t_final=20.0)
        amp = evolve(state_on_shell(0.4, 1.0), p, cfg)
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

    def test_overflowing_rhs_is_a_nan_step(self):
        # a float power raises OverflowError where a numpy scalar gave
        # inf: the adaptive trial step is rejected and the fixed-step
        # state turns NaN, as before, instead of the error escaping
        def f(t, y):
            return (y[0] ** 9, 0.0)

        with pytest.raises(StepUnderflowError):
            solve_adaptive(f, 0.0, (1.0, 0.0), 10.0, rtol=1e-3, atol=1e-3)
        _, states, _ = solve_fixed(lambda t, y: (y[0] ** 3, 0.0), 0.0,
                                   (1.0, 0.0), 5.0, 1.0)
        assert np.isnan(states[-1, 0])

    def test_fixed_step_stage_past_the_event_is_the_crossing(self):
        # the last stage of the step from t = 2 lies past the surface:
        # the solve ends at the last grid state
        def f(t, y):
            if y[0] > 2.5:
                raise integrate._PastEvent
            return (1.0, 0.0)

        times, states, hit = solve_fixed(f, 0.0, (0.0, 0.0), 10.0, 1.0,
                                         event=lambda t, y: y[0] - 100.0)
        assert hit == (2.0, (2.0, 0.0))
        assert times[-1] == 2.0 and np.all(np.isfinite(states))

    def test_fixed_step_non_finite_state_under_an_event_raises(self):
        # a NaN state cannot tell whether the event was crossed: a
        # failure, not an event (without an event it is carried on)
        def f(t, y):
            return (math.nan, 0.0) if y[0] > 2.5 else (1.0, 0.0)

        with pytest.raises(NumericalError, match="t = 3.0"):
            solve_fixed(f, 0.0, (0.0, 0.0), 10.0, 1.0,
                        event=lambda t, y: y[0] - 100.0)

    def test_value_error_in_rhs_is_not_masked(self):
        def f(t, y):
            if t > 0.0:
                raise ValueError("bad argument")
            return (1.0, 0.0)

        with pytest.raises(ValueError, match="bad argument"):
            solve_adaptive(f, 0.0, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="bad argument"):
            solve_fixed(f, 0.0, (0.0, 0.0), 1.0, 0.1)

    def test_fixed_step_budget_is_checked_before_stepping(self, monkeypatch):
        def f(t, y):
            raise AssertionError("a step was taken over the budget")

        # the step count overflows an int: rejected, not an OverflowError
        with pytest.raises(StepBudgetError):
            solve_fixed(f, 0.0, np.array([1.0, 0.0]), 1e300, 1e-300)
        monkeypatch.setattr(integrate, "MAX_STEPS", 10)
        with pytest.raises(StepBudgetError):
            solve_fixed(f, 0.0, np.array([1.0, 0.0]), 1.0, 0.09)
        # exactly MAX_STEPS steps is within the budget
        times, _, _ = solve_fixed(lambda t, y: (-y[0], 0.0), 0.0,
                                  np.array([1.0, 0.0]), 1.0, 0.1)
        assert len(times) == 11

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

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_numpy_scalar_times_step_on_python_floats(self, method):
        # a span read off a numpy array must not turn every step into
        # numpy-scalar arithmetic
        seen = set()

        def f(t, y):
            seen.add((type(t), type(y[0])))
            return (y[1], -y[0])

        cfg = IntegratorConfig(method=method, rtol=1e-6, atol=1e-6,
                               dt=np.float64(0.1), t_final=np.float64(1.0))
        integrate._solve(f, np.float64(0.0), (1.0, 0.0), cfg)
        assert seen == {(float, float)}

    def test_fixed_step_grid(self):
        times, states, _ = solve_fixed(lambda t, y: (-y[0], 0.0), 0.0,
                                       np.array([1.0, 0.0]), 1.0, 0.1)
        assert times[-1] == 1.0
        assert len(times) == 11
        assert states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(t_final=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(record_every=0)


def bits(values):
    """Exact bytes of a sequence of floats or complex numbers."""
    out = []
    for v in values:
        out.append(struct.pack("<dd", v.real, v.imag)
                   if isinstance(v, complex) else struct.pack("<d", v))
    return out


def outcome(step, *args):
    """A step's state as exact bytes, or _PastEvent if it raised that."""
    try:
        return bits(step(*args))
    except integrate._PastEvent:
        return integrate._PastEvent


# mostly moderate values, whose rounding the operation order decides;
# magnitudes up to 1e120 make the cube in pair_rhs overflow a float
# power, which raises OverflowError instead of giving inf
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
PAIR_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)


def pair_rhs(p, q, power, limit):
    """Two-component test RHS; past y0.real = limit it raises _PastEvent."""
    def f(t, y):
        y0, y1 = y
        if y0.real > limit:
            raise integrate._PastEvent
        return p * y1 ** power + t * y0, q * y0 * y1 - y1

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
             limit=math.inf)  # a stage overflows a float power
    @example(y=(0.5j, 1 + 0j), k1=None, h=1.0, t=0.0, p=1.0, q=1.0,
             power=1, limit=0.75)  # a later stage is past the event
    def test_dp45_pair_step_is_the_generic_step(self, y, k1, h, t, p, q,
                                                power, limit):
        f = pair_rhs(p, q, power, limit)
        pair = integrate._rk45_step(f, t, y, h, k1)
        generic = rk45_step(f, t, y, h, k1)
        assert [bits(part) for part in pair] == [bits(part) for part in generic]
        for rtol, atol in ((1e-11, 1e-11), (1e-3, 0.0)):
            assert bits([integrate._error_norm(pair[1], y, pair[0],
                                               rtol, atol)]) == \
                bits([error_norm(generic[1], y, generic[0], rtol, atol)])

    @PAIR_PROPERTY
    @given(y=_PAIRS, h=_STEPS, t=st.floats(min_value=-100.0, max_value=100.0),
           p=_COEFFS, q=_COEFFS, power=st.sampled_from([1, 2, 3]),
           limit=st.one_of(st.just(math.inf), _REALS))
    @example(y=(1e110, 2.0), h=1.0, t=0.0, p=1.0, q=1.0, power=3,
             limit=math.inf)
    @example(y=(0.5, 1.0), h=1.0, t=0.0, p=1.0, q=1.0, power=1, limit=0.75)
    def test_rk4_pair_step_is_the_generic_step(self, y, h, t, p, q, power,
                                               limit):
        f = pair_rhs(p, q, power, limit)
        assert (outcome(integrate._rk4_step, f, t, y, h)
                == outcome(rk4_step, f, t, y, h))

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
    def test_pair_error_norm_is_the_generic_norm(self, err, y, y_new, rtol,
                                                 atol):
        pair = integrate._error_norm(err, y, y_new, rtol, atol)
        assert bits([pair]) == bits([error_norm(err, y, y_new, rtol, atol)])

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

        for solve in (lambda: solve_adaptive(f, 0.0, y0, 1.0, event=event),
                      lambda: solve_fixed(f, 0.0, y0, 1.0, 0.1)):
            if pair:
                assert solve()[1].shape[1] == 2
            else:
                with pytest.raises(ValueError, match=f"got {len(y0)} comp"):
                    solve()
                assert calls == []
