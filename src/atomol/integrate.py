"""Deterministic ODE propagation for the conversion model.

Two steppers are provided: an embedded Dormand-Prince 4/5 pair with
proportional step-size control (default), and a fixed-step classical
4th-order method kept for reproducibility experiments.  Both are plain
float arithmetic with no hidden state, so identical inputs give
bit-identical trajectories on the same build.

A state is a tuple of Python floats or complex numbers, and a
right-hand side f(t, y) gets that tuple and returns a sequence of the
same length (the tuples of the model's *_deriv functions).  The steppers
combine stages component by component in the order of the vector form
(y + h * (a21 * k1) and so on), so the trajectories keep the bits they
had when the states were numpy arrays.  One numpy call remains per
attempted step: the error norm takes every magnitude from a single
np.abs on the packed [*err, *y, *y_new], because numpy's complex abs
and Python's abs(complex) can differ in the last bit, and that bit
steers the step-size controller.

Every state the CLI integrates has two components: the amplitude pair
(a, b) or the reduced (S, theta).  A two-component solve takes the pair
steps (_rk45_pair_step, _pair_error_norm, _rk4_pair_step), which write
the stages out for y = (y0, y1) with the expressions and operation
order of the generic steps, so they give the same bits without the
per-stage comprehensions and zips.  Other lengths, like the
(S, theta, n) of evolve_canonical, take the generic steps, which are
also the reference the pair steps are tested against.

The reduced (S, theta) flow is singular at S = 1; its integration halts
cleanly with a pole event when S reaches 1 - eps_pole instead of stepping
over the singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .model import (
    EPS_POLE,
    Amplitudes,
    CanonicalState,
    NumericalError,
    Params,
    ReducedParams,
    canonical_deriv,
    derived_quantities,
    gp_deriv,
    reduced_deriv,
)

# Dormand-Prince 5(4) tableau: seven stages with first-same-as-last,
# 5th-order propagation, 4th/5th difference as the local error estimate.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0

# Most steps one solve may take: 2.5x the longest solve of the test
# suite, so a finite but huge span fails instead of running for hours.
MAX_STEPS = 10 ** 6


class StepUnderflowError(NumericalError):
    """Adaptive stepper could not meet the tolerance at any step size."""

    def __init__(self, time: float):
        super().__init__(f"step size underflow at t = {time!r}")
        self.time = time


class StepBudgetError(NumericalError):
    """A solve needs more than MAX_STEPS steps."""


class _PastEvent(NumericalError):
    """Raised by a right-hand side at a trial state past the event surface.

    The adaptive solver rejects such a trial step; the fixed-step solver,
    which cannot reject one, takes it as the event crossing.
    """


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control and recording settings.

    method: "rk45" (adaptive embedded 4/5 pair) or "rk4" (fixed step).
    rtol/atol apply to rk45, dt to rk4.  record_every decimates the
    recorded samples only; internal steps are never coarsened.

    The default tolerance of 1e-11 keeps zero-loss drift of the
    conserved quantities below 1e-8 over spans of order 100 even on
    strongly nonlinear orbits.
    """

    method: str = "rk45"
    rtol: float = 1e-11
    atol: float = 1e-11
    dt: float = 1e-3
    t_final: float = 10.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("rtol", "atol", "dt", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("rtol and atol must be > 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not self.t_final > 0:
            raise ValueError("t_final must be > 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class PoleEvent:
    """Reduced-flow integration hit the S = 1 pole guard."""

    time: float
    s: float
    theta: float


def _nan_state(y):
    """NaN in every component, complex NaN where the state is complex.

    Stands for the inf/NaN a numpy scalar gave where a Python float
    power raises OverflowError.
    """
    return tuple([math.nan * yi for yi in y])


def _rk45_step(f, t, y, h, k1=None):
    """One Dormand-Prince step on a tuple state.

    Returns the 5th-order state, the error components, and the last
    stage derivative (first-same-as-last: reusable as k1 of the next
    step).  A right-hand side that overflows a float power or raises
    _PastEvent gives a NaN step, which the step controller rejects.
    """
    try:
        if k1 is None:
            k1 = f(t, y)
        k2 = f(t + _C2 * h, tuple([yi + h * (_A21 * a)
                                   for yi, a in zip(y, k1)]))
        k3 = f(t + _C3 * h, tuple([yi + h * (_A31 * a + _A32 * b)
                                   for yi, a, b in zip(y, k1, k2)]))
        k4 = f(t + _C4 * h, tuple([yi + h * (_A41 * a + _A42 * b + _A43 * c)
                                   for yi, a, b, c in zip(y, k1, k2, k3)]))
        k5 = f(t + _C5 * h, tuple([
            yi + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]))
        k6 = f(t + h, tuple([
            yi + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for yi, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
        y_new = tuple([
            yi + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * g)
            for yi, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)])
        k7 = f(t + h, y_new)
    except (OverflowError, _PastEvent):
        nan = _nan_state(y)
        return nan, nan, nan
    err = [h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g + _E7 * k)
           for a, c, d, e, g, k in zip(k1, k3, k4, k5, k6, k7)]
    return y_new, err, k7


def _rk45_pair_step(f, t, y, h, k1=None):
    """_rk45_step written out for a two-component state, same bits."""
    y0, y1 = y
    try:
        if k1 is None:
            k1 = f(t, y)
        a0, a1 = k1
        b0, b1 = f(t + _C2 * h, (y0 + h * (_A21 * a0), y1 + h * (_A21 * a1)))
        c0, c1 = f(t + _C3 * h, (y0 + h * (_A31 * a0 + _A32 * b0),
                                 y1 + h * (_A31 * a1 + _A32 * b1)))
        d0, d1 = f(t + _C4 * h, (
            y0 + h * (_A41 * a0 + _A42 * b0 + _A43 * c0),
            y1 + h * (_A41 * a1 + _A42 * b1 + _A43 * c1)))
        e0, e1 = f(t + _C5 * h, (
            y0 + h * (_A51 * a0 + _A52 * b0 + _A53 * c0 + _A54 * d0),
            y1 + h * (_A51 * a1 + _A52 * b1 + _A53 * c1 + _A54 * d1)))
        g0, g1 = f(t + h, (
            y0 + h * (_A61 * a0 + _A62 * b0 + _A63 * c0 + _A64 * d0
                      + _A65 * e0),
            y1 + h * (_A61 * a1 + _A62 * b1 + _A63 * c1 + _A64 * d1
                      + _A65 * e1)))
        y_new = (
            y0 + h * (_B1 * a0 + _B3 * c0 + _B4 * d0 + _B5 * e0 + _B6 * g0),
            y1 + h * (_B1 * a1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * g1))
        k7 = f(t + h, y_new)
        p0, p1 = k7
    except (OverflowError, _PastEvent):
        nan = _nan_state(y)
        return nan, nan, nan
    err = (h * (_E1 * a0 + _E3 * c0 + _E4 * d0 + _E5 * e0 + _E6 * g0
                + _E7 * p0),
           h * (_E1 * a1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * g1
                + _E7 * p1))
    return y_new, err, k7


def _error_norm(err, y, y_new, rtol, atol):
    """RMS of |err| / (atol + rtol max(|y|, |y_new|)); inf if not finite.

    The magnitudes come from one np.abs call on the packed components
    (see the module docstring); the squares are summed left to right,
    as numpy sums a short array, so the norm keeps its bits.
    """
    n = len(y)
    mags = np.abs(np.array([*err, *y, *y_new])).tolist()
    total = 0.0
    for e, a, b in zip(mags[:n], mags[n:2 * n], mags[2 * n:]):
        # a NaN magnitude or a zero scale made numpy's ratio non-finite
        scale = atol + rtol * (a if a >= b else b)
        if a != a or not scale > 0.0:
            return math.inf
        ratio = e / scale
        if not math.isfinite(ratio):
            return math.inf
        total += ratio * ratio
    return math.sqrt(total / n)


def _pair_error_norm(err, y, y_new, rtol, atol):
    """_error_norm written out for a two-component state, same bits."""
    e0, e1, a0, a1, b0, b1 = np.abs(np.array([*err, *y, *y_new])).tolist()
    scale0 = atol + rtol * (a0 if a0 >= b0 else b0)
    if a0 != a0 or not scale0 > 0.0:
        return math.inf
    ratio0 = e0 / scale0
    if not math.isfinite(ratio0):
        return math.inf
    scale1 = atol + rtol * (a1 if a1 >= b1 else b1)
    if a1 != a1 or not scale1 > 0.0:
        return math.inf
    ratio1 = e1 / scale1
    if not math.isfinite(ratio1):
        return math.inf
    return math.sqrt((ratio0 * ratio0 + ratio1 * ratio1) / 2)


def _as_state(y0):
    """Initial state as a tuple of Python floats or complex numbers."""
    return tuple(np.asarray(y0).tolist())


def _initial_step(f, t0, y0, rtol, atol, t_final):
    """Conservative first step from the size of the initial derivative."""
    f0 = np.asarray(f(t0, y0))
    scale = atol + rtol * np.abs(y0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        d0 = float(np.sqrt(np.mean((np.abs(y0) / scale) ** 2)))
        d1 = float(np.sqrt(np.mean((np.abs(f0) / scale) ** 2)))
    if (d0 < 1e-5 or d1 < 1e-5
            or not math.isfinite(d0) or not math.isfinite(d1)):
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, 0.1 * (t_final - t0))


def solve_adaptive(f: Callable, t0: float, y0, t_final: float,
                   rtol: float = 1e-11, atol: float = 1e-11,
                   record_every: int = 1,
                   event: Optional[Callable] = None):
    """Integrate dy/dt = f(t, y) with the embedded 4(5) pair.

    f(t, y) gets the state as a tuple and returns a sequence of its
    derivatives.  event, when given, is a scalar function g(t, y);
    integration halts at the first accepted step with g >= 0, with the
    crossing localized by bisection on the step size.  Returns
    (times, states, event_state) where event_state is None or the
    (t, y) pair at the halt.

    Raises StepUnderflowError when no acceptable step size remains and
    StepBudgetError after MAX_STEPS attempted steps.
    """
    # a numpy scalar here would make every step numpy-scalar arithmetic
    t0, t_final = float(t0), float(t_final)
    y = _as_state(y0)
    t = t0
    times = [t0]
    states = [y]
    h = _initial_step(f, t0, y, rtol, atol, t_final)
    attempted = 0
    accepted = 0
    event_state = None
    k1 = None
    tiny = 16.0 * np.finfo(float).eps
    if len(y) == 2:
        step, error_norm = _rk45_pair_step, _pair_error_norm
    else:
        step, error_norm = _rk45_step, _error_norm

    while t < t_final:
        h = min(h, t_final - t)
        if h < tiny * max(1.0, abs(t)):
            raise StepUnderflowError(t)
        if attempted == MAX_STEPS:
            raise StepBudgetError(
                f"step budget of {MAX_STEPS} steps exceeded at t = {t!r}")
        attempted += 1
        y_new, err, k_last = step(f, t, y, h, k1)
        norm = error_norm(err, y, y_new, rtol, atol)
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
            continue
        # step accepted
        if event is not None and event(t + h, y_new) >= 0.0:
            t, y = _locate_event(f, event, t, y, h)
            event_state = (t, y)
            times.append(t)
            states.append(y)
            break
        t += h
        y = y_new
        k1 = k_last
        accepted += 1
        if accepted % record_every == 0 or t >= t_final:
            times.append(t)
            states.append(y)
        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
        h *= factor

    if times[-1] != t:
        times.append(t)
        states.append(y)
    return np.array(times), np.array(states), event_state


def _locate_event(f, event, t, y, h):
    """Bisect the step size to land just before the event crossing."""
    lo, hi = 0.0, h
    y_lo = y
    step = _rk45_pair_step if len(y) == 2 else _rk45_step
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        y_mid, _, _ = step(f, t, y, mid)
        if event(t + mid, y_mid) < 0.0:
            lo, y_lo = mid, y_mid
        else:
            hi = mid
    return t + lo, y_lo


def _rk4_step(f, t, y, h):
    """One classical 4th-order step on a tuple state (NaN on overflow)."""
    try:
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, tuple([yi + 0.5 * h * a for yi, a in zip(y, k1)]))
        k3 = f(t + 0.5 * h, tuple([yi + 0.5 * h * b for yi, b in zip(y, k2)]))
        k4 = f(t + h, tuple([yi + h * c for yi, c in zip(y, k3)]))
    except OverflowError:
        return _nan_state(y)
    return tuple([yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for yi, a, b, c, d in zip(y, k1, k2, k3, k4)])


def _rk4_pair_step(f, t, y, h):
    """_rk4_step written out for a two-component state, same bits."""
    y0, y1 = y
    try:
        a0, a1 = f(t, y)
        b0, b1 = f(t + 0.5 * h, (y0 + 0.5 * h * a0, y1 + 0.5 * h * a1))
        c0, c1 = f(t + 0.5 * h, (y0 + 0.5 * h * b0, y1 + 0.5 * h * b1))
        d0, d1 = f(t + h, (y0 + h * c0, y1 + h * c1))
    except OverflowError:
        return _nan_state(y)
    w = h / 6.0
    return (y0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            y1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1))


def solve_fixed(f: Callable, t0: float, y0, t_final: float,
                dt: float, record_every: int = 1,
                event: Optional[Callable] = None):
    """Classical fixed-step 4th-order integration on a uniform grid.

    f follows the solve_adaptive contract.  A fixed step cannot be
    rejected, so with an event a step whose stage f answers with
    _PastEvent is the crossing, and a step to a state where the event
    function is NaN, so the crossing cannot be told, raises
    NumericalError.  Without an event a NaN state is carried on.  Raises StepBudgetError, before
    any step, when the grid would need more than MAX_STEPS steps.
    """
    t0, t_final, dt = float(t0), float(t_final), float(dt)
    span = (t_final - t0) / dt - 1e-12
    if not span <= MAX_STEPS:
        raise StepBudgetError(f"step budget of {MAX_STEPS} steps exceeded: "
                              f"t_final/dt needs {span:.6g} steps")
    n_steps = max(1, int(math.ceil(span)))
    y = _as_state(y0)
    step = _rk4_pair_step if len(y) == 2 else _rk4_step
    times = [t0]
    states = [y]
    event_state = None
    t = t0
    for i in range(n_steps):
        t_next = t0 + (i + 1) * (t_final - t0) / n_steps
        try:
            y_new = step(f, t, y, t_next - t)
        except _PastEvent:
            if event is None:
                raise
            y_new = None
        if event is not None:
            g = 0.0 if y_new is None else event(t_next, y_new)
            if g >= 0.0:
                event_state = (t, y)
                break
            if math.isnan(g):
                raise NumericalError(
                    f"fixed step to t = {t_next!r} gave a non-finite state")
        t = t_next
        y = y_new
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            times.append(t)
            states.append(y)
    if times[-1] != t:
        times.append(t)
        states.append(y)
    return np.array(times), np.array(states), event_state


def _solve(f, t0, y0, cfg: IntegratorConfig, event=None):
    if cfg.method == "rk4":
        return solve_fixed(f, t0, y0, cfg.t_final, cfg.dt,
                           record_every=cfg.record_every, event=event)
    return solve_adaptive(f, t0, y0, cfg.t_final, rtol=cfg.rtol,
                          atol=cfg.atol, record_every=cfg.record_every,
                          event=event)


@dataclass
class Trajectory:
    """Recorded amplitude trajectory with per-sample observables."""

    times: np.ndarray
    states: np.ndarray  # (n_samples, 2) complex
    params: Params
    s: np.ndarray = field(init=False)
    theta: np.ndarray = field(init=False)
    n: np.ndarray = field(init=False)
    p_atom: np.ndarray = field(init=False)
    hx: np.ndarray = field(init=False)
    hy: np.ndarray = field(init=False)
    hz: np.ndarray = field(init=False)
    energy: np.ndarray = field(init=False)

    def __post_init__(self):
        p = self.params
        for key, val in derived_quantities(self.states, p.v, p.u,
                                           p.r).items():
            setattr(self, key, val)


@dataclass
class ReducedTrajectory:
    """Recorded (S, theta) trajectory of the autonomous reduced flow."""

    times: np.ndarray
    s: np.ndarray
    theta: np.ndarray  # unwrapped integration variable
    params: ReducedParams
    pole_event: Optional[PoleEvent] = None


@dataclass
class CanonicalTrajectory:
    """Recorded (S, theta, n) trajectory with floating couplings."""

    times: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    n: np.ndarray
    params: Params
    pole_event: Optional[PoleEvent] = None


def evolve(x0: Amplitudes, p: Params,
           cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Propagate the amplitude equations from x0."""
    v, u, r, ga, gb = p.v, p.u, p.r, p.gamma_a, p.gamma_b

    def f(t, y):
        return gp_deriv(y[0], y[1], v, u, r, ga, gb)

    times, states, _ = _solve(f, 0.0, (complex(x0.a), complex(x0.b)), cfg)
    return Trajectory(times=times, states=states, params=p)


def _guarded_reduced_f(c, omega, r, gamma):
    """Reduced RHS safe for trial stages that overshoot the pole.

    Values at or past S = 1 raise _PastEvent, a rejected step for the
    adaptive solver and the crossing for the fixed-step one; the event
    guard halts before the pole itself.  A phase that overflowed to inf
    gives NaN, as the overflow itself would in numpy.
    """
    def f(t, y):
        s = y[0]
        if s >= 1.0:
            raise _PastEvent
        try:
            return reduced_deriv(s, y[1], c, omega, r, gamma, eps_pole=0.0)
        except ValueError:  # math.sin(inf)
            return math.nan, math.nan

    return f


def _solve_to_pole(f, y0: tuple, cfg: IntegratorConfig, eps_pole: float):
    """Solve from y0 = (S, theta, ...) under the S = 1 pole guard.

    Returns (times, states, PoleEvent or None); S reaching 1 - eps_pole
    halts the solve with a pole event.
    """
    if not abs(y0[0]) <= 1.0 - eps_pole:
        raise ValueError(f"|s0| must be <= 1 - eps_pole, got {y0[0]}")
    s_max = 1.0 - eps_pole

    def pole(t, y):
        return y[0] - s_max

    times, states, hit = _solve(f, 0.0, y0, cfg, event=pole)
    event = None
    if hit is not None:
        t_ev, y_ev = hit
        event = PoleEvent(time=t_ev, s=float(y_ev[0]), theta=float(y_ev[1]))
    return times, states, event


def evolve_reduced(s0: float, theta0: float, q: ReducedParams,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   eps_pole: float = EPS_POLE) -> ReducedTrajectory:
    """Propagate the autonomous reduced flow from (s0, theta0).

    Halts with a pole event (recorded, not fatal) if S reaches
    1 - eps_pole.
    """
    f = _guarded_reduced_f(q.c, q.omega, q.r, q.gamma)
    times, states, event = _solve_to_pole(
        f, (float(s0), float(theta0)), cfg, eps_pole)
    return ReducedTrajectory(times=times, s=states[:, 0], theta=states[:, 1],
                             params=q, pole_event=event)


def evolve_canonical(c0: CanonicalState, p: Params,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     eps_pole: float = EPS_POLE) -> CanonicalTrajectory:
    """Propagate (S, theta, n) with couplings floating with n."""
    v, u, r, gp, gm = p.v, p.u, p.r, p.gamma_plus, p.gamma_minus

    def f(t, y):
        s, theta, n = y
        if s >= 1.0:
            raise _PastEvent
        if n < 0.0:
            return math.nan, math.nan, math.nan
        try:
            return canonical_deriv(s, theta, n, v, u, r, gp, gm, eps_pole=0.0)
        except ValueError:  # math.sin(inf), as in _guarded_reduced_f
            return math.nan, math.nan, math.nan

    times, states, event = _solve_to_pole(
        f, (float(c0.s), float(c0.theta), float(c0.n)), cfg, eps_pole)
    return CanonicalTrajectory(times=times, s=states[:, 0], theta=states[:, 1],
                               n=states[:, 2], params=p, pole_event=event)
