"""Deterministic ODE propagation for the conversion model.

Three steppers are provided: two embedded Dormand-Prince pairs with
proportional step-size control, 4(5) and 8(5,3), and a fixed-step
classical 4th-order method kept for reproducibility experiments.  All
are plain float arithmetic with no hidden state, so identical inputs
give bit-identical trajectories on the same build.

The default method, "adaptive", picks the pair per solve.  A solve
whose only output is its end state (a sweep's terminal efficiency)
takes 8(5,3), which at the default tolerance of 1e-11 needs about four
times fewer steps.  Its caller passes _solve the pair's step, and the
one 8(5,3) step is the sweep's own, _sweep_dop853_step.  Every other
solve takes 4(5): its accepted steps are the recorded samples, so the
4(5) pair keeps those outputs as they were, and on the reduced
(S, theta) chart, whose right-hand side carries sqrt(1 - S), orbits
that graze S = 1 cost the 8(5,3) pair several times more.  "rk45"
takes 4(5) for every solve.

A state is a pair (y0, y1) of Python floats or complex numbers: the
amplitude pair (a, b) or the reduced (S, theta).  A right-hand side
f(t, y) gets that tuple and returns a pair.  Every solve's f is a
closure over one of the model's *_deriv functions: gp_deriv for
evolve, reduced_deriv for evolve_reduced, and unit_norm_deriv for the
sweep and trap runs of atomol.experiments.  A step returns one flat
tuple, (y_new0, y_new1, k_last0, k_last1, *err), or None where it
fails: a stage of the chart's step lay at or past S = 1.  A right-hand
side past the largest float gives inf or NaN parts, which the norms
read as an infinite norm.  The loop rejects a failed step as one of
infinite norm.  The steps write the stages out for the two components
in the operation order of the vector form (y + h * (a21 * k1) and so
on), so the trajectories keep the bits they had when the states were
numpy arrays.  Two steps write their right-hand side into the stages
instead of calling f: the (S, theta) chart's own 4(5) step and the
sweep's 8(5,3) step.  Property tests pin each to the generic step over
its solve's f, bit for bit.

Every product of a float and a stage is written complex-first
(y + k1 * a21 * h): on a float-first product CPython 3.11 first calls
float.__mul__, which declines a complex, and only then multiplies.  The
bits are the same either way.  CPython multiplies a float and a complex
as two complex numbers, (ac - bd, ad + bc), and IEEE products and sums
commute exactly, up to the sign or payload of a NaN, which no output
shows; 3.14 uses one mixed rule for both orders.  On a float pair both
orders are the same float product.  The sweep's step runs instead on
the float parts Re a, Im a, Re b, Im b, which CPython 3.11 adds and
multiplies with its specialized float operations and no complex object
per operation, and each float expression takes the operations CPython
takes for the complex one it stands for: z * f is (x * f, y * f),
z * w is (x u - y v, x v + y u), -1j * z is (y, -x) and z.conjugate()
is (x, -y).  CPython forms z * f as (x * f - y * 0.0, x * 0.0 + y * f),
and its extra terms are zeros, which leave a nonzero finite sum as it
is.  So each part has the bits of the same step on complex numbers
unless it is a zero, whose sign may differ, or an inf or NaN.  A zero
keeps the sign its float expression gives, which no output sees: a
sweep reads its amplitudes only through abs.  Where a part is inf or
NaN, the two forms may differ in a NaN's sign, and a part that is
finite on the floats may be NaN on complex numbers (inf * 0.0), but
their error norms agree, so the loop accepts or rejects both alike
(test_sweep_step_is_the_generic_step).  Every square of an
amplitude part is a product, x * x, here and in the model's right-hand
sides: CPython 3.11 hands x ** 2 to libm's pow, which takes about three
times as long, need not round as x * x does, and raises OverflowError
past the largest float.

No numpy call runs between _as_state and the result arrays.  The norms
that steer the step size take their magnitudes from Python's abs,
libm's hypot on a complex, whose bits, unlike those of numpy's complex
abs, do not depend on the CPU's SIMD dispatch target.  One 4(5) norm,
_float_norm, serves the amplitude pairs and the (S, theta) chart.
glibc picks FMA variants of sin, cos, atan2, exp, log and pow at load
time by the CPU's features (GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2
switches them off), and those variants round differently; hypot and
sqrt gave the same bits either way.  So a sweep's 8(5,3) solve, whose
step takes only products, sums and, in _dop853_growth, square roots,
gives the same bits with those variants on or off, while the 4(5)
pair's err ** -0.2 and the chart's sin and cos still follow them.

The adaptive loop evaluates f once at the start state of each step:
the derivative that the first step size is estimated from is the first
step's first stage, each accepted step's last stage is the next step's
first, and the pole-event bisection gives every trial step the event
step's first stage k1: on the chart and in a sweep's 8(5,3) solve that
is the solve's only call of f, for the first step size.
Its step-size control uses plain comparisons with the results of min
and max: a tie keeps the first argument, and a NaN growth factor gives
the lower clamp, _MIN_FACTOR.

The reduced (S, theta) flow is singular at S = 1; its integration halts
cleanly with a pole event when S reaches 1 - eps_pole instead of stepping
over the singularity.  A trial stage at or past S = 1 raises
model.PoleError in evolve_reduced's right-hand side: the chart's own
step fails there, a rejected step, and a fixed step takes it as the
crossing.

A portrait orbit is written on a fixed time grid after its solve
(_on_time_grid, called by experiments.phase_portrait): each grid time
takes the solve's own step, the chart's 4(5) step or the rk4 step, from
the last recorded state at or before it, so a sample at an accepted
time is that state, and the solve, its accepted steps and its pole
event keep their bits.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .model import (
    EPS_POLE,
    Amplitudes,
    NumericalError,
    Params,
    PoleError,
    ReducedParams,
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

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# section II.10): twelve stages, 8th-order propagation, and 5th- and
# 3rd-order embedded errors; the derivative at the new state is the
# first stage of the next step.  The twelfth stage sits at t + h.
_DC2, _DC3, _DC4, _DC5, _DC6 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333)
_DC7, _DC8, _DC9, _DC10, _DC11 = (
    0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571)
_DA2_1 = 0.05260015195876773
_DA3_1, _DA3_2 = 0.0197250569845379, 0.0591751709536137
_DA4_1, _DA4_3 = 0.02958758547680685, 0.08876275643042054
_DA5_1, _DA5_3, _DA5_4 = (
    0.2413651341592667, -0.8845494793282861, 0.924834003261792)
_DA6_1, _DA6_4, _DA6_5 = (
    0.037037037037037035, 0.17082860872947386, 0.12546768756682242)
_DA7_1, _DA7_4, _DA7_5, _DA7_6 = (
    0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125)
_DA8_1, _DA8_4, _DA8_5, _DA8_6, _DA8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
    -0.015319437748624402, 0.008273789163814023)
_DA9_1, _DA9_4, _DA9_5, _DA9_6, _DA9_7, _DA9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996)
_DA10_1, _DA10_4, _DA10_5, _DA10_6, _DA10_7, _DA10_8, _DA10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627)
(_DA11_1, _DA11_4, _DA11_5, _DA11_6, _DA11_7, _DA11_8, _DA11_9,
 _DA11_10) = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196)
(_DA12_1, _DA12_4, _DA12_5, _DA12_6, _DA12_7, _DA12_8, _DA12_9,
 _DA12_10, _DA12_11) = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
_DB1, _DB6, _DB7, _DB8, _DB9, _DB10, _DB11, _DB12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
# 5th-order error weights; the 3rd-order error is the propagation
# weights minus these three
_DE1, _DE6, _DE7, _DE8, _DE9, _DE10, _DE11, _DE12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
_DBHH1, _DBHH9, _DBHH12 = (
    0.2440944881889764, 0.7338466882816118, 0.022058823529411766)

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


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control and recording settings.

    method: "adaptive" (default: an embedded pair chosen per solve, see
    the module docstring), "rk45" (the embedded 4(5) pair for every
    solve) or "rk4" (fixed step).  rtol/atol apply to the adaptive
    methods, dt to rk4.  record_every decimates the recorded samples
    only; internal steps are never coarsened.

    The default tolerance of 1e-11 keeps zero-loss drift of the
    conserved quantities below 1e-8 over spans of order 100 even on
    strongly nonlinear orbits.
    """

    method: str = "adaptive"
    rtol: float = 1e-11
    atol: float = 1e-11
    dt: float = 1e-3
    t_final: float = 10.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in ("adaptive", "rk45", "rk4"):
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


def _rk45_step(f, t, y, h, k1=None):
    """One Dormand-Prince step.

    Returns the flat result (y_new0, y_new1, k_last0, k_last1, err0,
    err1): the 5th-order state, the last stage derivative
    (first-same-as-last: the next step's k1) and the error components.
    It never returns None: what f raises, the step raises.
    """
    y0, y1 = y
    if k1 is None:
        k1 = f(t, y)
    a0, a1 = k1
    b0, b1 = f(t + _C2 * h, (y0 + a0 * _A21 * h, y1 + a1 * _A21 * h))
    c0, c1 = f(t + _C3 * h, (y0 + (a0 * _A31 + b0 * _A32) * h,
                             y1 + (a1 * _A31 + b1 * _A32) * h))
    d0, d1 = f(t + _C4 * h, (
        y0 + (a0 * _A41 + b0 * _A42 + c0 * _A43) * h,
        y1 + (a1 * _A41 + b1 * _A42 + c1 * _A43) * h))
    e0, e1 = f(t + _C5 * h, (
        y0 + (a0 * _A51 + b0 * _A52 + c0 * _A53 + d0 * _A54) * h,
        y1 + (a1 * _A51 + b1 * _A52 + c1 * _A53 + d1 * _A54) * h))
    g0, g1 = f(t + h, (
        y0 + (a0 * _A61 + b0 * _A62 + c0 * _A63 + d0 * _A64 + e0 * _A65) * h,
        y1 + (a1 * _A61 + b1 * _A62 + c1 * _A63 + d1 * _A64 + e1 * _A65) * h))
    n0 = y0 + (a0 * _B1 + c0 * _B3 + d0 * _B4 + e0 * _B5 + g0 * _B6) * h
    n1 = y1 + (a1 * _B1 + c1 * _B3 + d1 * _B4 + e1 * _B5 + g1 * _B6) * h
    p0, p1 = f(t + h, (n0, n1))
    return (n0, n1, p0, p1,
            (a0 * _E1 + c0 * _E3 + d0 * _E4 + e0 * _E5 + g0 * _E6
             + p0 * _E7) * h,
            (a1 * _E1 + c1 * _E3 + d1 * _E4 + e1 * _E5 + g1 * _E6
             + p1 * _E7) * h)


def _scales(res, y, rtol, atol):
    """The error scales atol + rtol max(|y|, |y_new|) of the two
    components of a flat step result, from Python's abs (see the module
    docstring): NaN, which makes every ratio to it NaN, where a magnitude
    of y is NaN or a scale is not positive.  abs raises OverflowError on
    a complex magnitude past the largest float.
    """
    a0, a1, b0, b1 = abs(y[0]), abs(y[1]), abs(res[0]), abs(res[1])
    scale0 = atol + rtol * (a0 if a0 >= b0 else b0)
    scale1 = atol + rtol * (a1 if a1 >= b1 else b1)
    if a0 != a0 or a1 != a1 or not (scale0 > 0.0 and scale1 > 0.0):
        return math.nan, math.nan
    return scale0, scale1


def _float_norm(res, y, rtol, atol, h):
    """The one 4(5) error norm: the RMS of |e| / scale over the error
    components res[4], res[5] (see _scales); h is unused, as they
    already carry it.  inf where a ratio is not finite or abs raises.
    """
    try:
        scale0, scale1 = _scales(res, y, rtol, atol)
        ratio0, ratio1 = abs(res[4]) / scale0, abs(res[5]) / scale1
    except OverflowError:
        return math.inf
    total = ratio0 * ratio0 + ratio1 * ratio1
    return math.sqrt(total / 2) if total == total else math.inf


def _dop853_norm(res, y, rtol, atol, h):
    """|h| e5^2 / sqrt((e5^2 + 0.01 e3^2) 2) for the 8(5,3) pair.

    e5^2 and e3^2 are the sums of (|e| / scale)^2 over the 5th- and
    3rd-order error components, with the scales of _scales, taken once
    for both.  inf if anything is not finite or abs raises; 0 when both
    errors are 0.
    """
    try:
        scale0, scale1 = _scales(res, y, rtol, atol)
        ratio0, ratio1 = abs(res[4]) / scale0, abs(res[5]) / scale1
        ratio2, ratio3 = abs(res[6]) / scale0, abs(res[7]) / scale1
    except OverflowError:
        return math.inf
    e5 = ratio0 * ratio0 + ratio1 * ratio1
    denom = (e5 + 0.01 * (ratio2 * ratio2 + ratio3 * ratio3)) * 2.0
    if not math.isfinite(denom):
        return math.inf
    if denom == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt(denom)


def _rk45_growth(err_norm):
    """err_norm ** -1/5, the 4(5) pair's step-size ratio."""
    return err_norm ** -0.2


def _dop853_growth(err_norm):
    """err_norm ** -1/8, the 8(5,3) pair's step-size ratio, from three
    square roots and a division: each is correctly rounded, so, unlike
    libm's pow, their bits do not depend on glibc's FMA dispatch (see
    the module docstring).  0.0 at inf and NaN at NaN, as the power
    gives.
    """
    return 1.0 / math.sqrt(math.sqrt(math.sqrt(err_norm)))


def _as_state(y0):
    """Initial state as a pair of Python floats or complex numbers."""
    y = tuple(np.asarray(y0).tolist())
    if len(y) != 2:
        raise ValueError(f"the solvers step two-component states, "
                         f"got {len(y)} components")
    return y


def _stacked(states):
    """The recorded pairs as an (n, 2) array, by way of one flat list."""
    return np.array(list(chain.from_iterable(states))).reshape(-1, 2)


def _initial_step(f, t0, y0, rtol, atol, t_final):
    """Conservative first step from the size of the initial derivative.

    Returns the step and that derivative, f(t0, y0), which is the first
    step's first stage.  The sizes of y0 and f(t0, y0) are _float_norm
    of a step that stays at y0 with that error.
    """
    k1 = f(t0, y0)
    d0 = _float_norm((*y0, None, None, *y0), y0, rtol, atol, None)
    d1 = _float_norm((*y0, None, None, *k1), y0, rtol, atol, None)
    # a norm is never NaN, and an infinite one takes the fallback
    if 1e-5 <= d0 < math.inf and 1e-5 <= d1 < math.inf:
        h0 = 0.01 * d0 / d1
    else:
        h0 = 1e-6
    return min(h0, 0.1 * (t_final - t0)), k1


def solve_adaptive(f: Callable, t0: float, y0, t_final: float,
                   rtol: float = 1e-11, atol: float = 1e-11,
                   record_every: int = 1,
                   event: Optional[Callable] = None,
                   step: Callable = _rk45_step,
                   norm: Callable = _float_norm,
                   growth: Callable = _rk45_growth):
    """Integrate dy/dt = f(t, y) with an embedded pair, 4(5) by default.

    f(t, y) gets the state as a pair and returns a pair of its
    derivatives.  event, when given, is a scalar function g(t, y);
    integration halts at the first accepted step with g >= 0, with the
    crossing localized by bisection on the step size.  Returns
    (times, states, event_state) where event_state is None or the
    (t, y) pair at the halt.

    step(f, t, y, h, k1) -> flat result or None (see the module
    docstring), norm(res, y, rtol, atol, h) and growth(norm) are the
    pair's step, error norm and step-size ratio, norm ** -1/order:
    _rk45_step, _float_norm and _rk45_growth, or a _sweep_dop853_step
    step, _dop853_norm and _dop853_growth.  The first step's k1 is the
    derivative _initial_step took at (t0, y0), and each bisection step
    takes the event step's k1; a failed step is not below the event.
    The growth factor _SAFETY * growth(norm) is clamped as
    min(_MAX_FACTOR, max(_MIN_FACTOR, factor)) would clamp it: a NaN
    factor gives _MIN_FACTOR, and a tie keeps the first argument; a
    norm of 0 grows the step by _MAX_FACTOR without a growth call.

    Raises ValueError when y0 is not a pair, StepUnderflowError when no
    acceptable step size remains and StepBudgetError after MAX_STEPS
    attempted steps.
    """
    # a numpy scalar here would make every step numpy-scalar arithmetic
    t0, t_final = float(t0), float(t_final)
    y = _as_state(y0)
    t = t0
    times = [t0]
    states = [y]
    h, k1 = _initial_step(f, t0, y, rtol, atol, t_final)
    attempted = 0
    accepted = 0
    event_state = None
    tiny = 16.0 * sys.float_info.epsilon

    while t < t_final:
        rest = t_final - t
        if rest < h:
            h = rest
        if h < tiny * (t if t > 1.0 else -t if t < -1.0 else 1.0):
            raise StepUnderflowError(t)
        if attempted == MAX_STEPS:
            raise StepBudgetError(
                f"step budget of {MAX_STEPS} steps exceeded at t = {t!r}")
        attempted += 1
        res = step(f, t, y, h, k1)
        err_norm = math.inf if res is None else norm(res, y, rtol, atol, h)
        if err_norm > 1.0:
            factor = _SAFETY * growth(err_norm)
            h *= factor if factor > _MIN_FACTOR else _MIN_FACTOR
            continue
        # step accepted
        y_new = res[0], res[1]
        if event is not None and event(t + h, y_new) >= 0.0:
            t, y = _locate_event(f, event, t, y, h, step, k1)
            event_state = (t, y)
            times.append(t)
            states.append(y)
            break
        t += h
        y = y_new
        k1 = res[2], res[3]
        accepted += 1
        if accepted % record_every == 0 or t >= t_final:
            times.append(t)
            states.append(y)
        factor = (_MAX_FACTOR if err_norm == 0.0
                  else _SAFETY * growth(err_norm))
        h *= (factor if factor < _MAX_FACTOR else _MAX_FACTOR) \
            if factor > _MIN_FACTOR else _MIN_FACTOR

    if times[-1] != t:
        times.append(t)
        states.append(y)
    return np.array(times), _stacked(states), event_state


def _locate_event(f, event, t, y, h, step, k1):
    """Bisect the step size to land just before the event crossing.

    k1 is f(t, y), the first stage of every trial step.
    """
    lo, hi = 0.0, h
    y_lo = y
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        res = step(f, t, y, mid, k1)
        if res is not None and event(t + mid, res[:2]) < 0.0:
            lo, y_lo = mid, res[:2]
        else:
            hi = mid
    return t + lo, y_lo


def _rk4_step(f, t, y, h):
    """One classical 4th-order step."""
    y0, y1 = y
    a0, a1 = f(t, y)
    b0, b1 = f(t + 0.5 * h, (y0 + a0 * (0.5 * h), y1 + a1 * (0.5 * h)))
    c0, c1 = f(t + 0.5 * h, (y0 + b0 * (0.5 * h), y1 + b1 * (0.5 * h)))
    d0, d1 = f(t + h, (y0 + c0 * h, y1 + c1 * h))
    w = h / 6.0
    return (y0 + (a0 + b0 * 2.0 + c0 * 2.0 + d0) * w,
            y1 + (a1 + b1 * 2.0 + c1 * 2.0 + d1) * w)


def solve_fixed(f: Callable, t0: float, y0, t_final: float,
                dt: float, record_every: int = 1,
                event: Optional[Callable] = None):
    """Classical fixed-step 4th-order integration on a uniform grid.

    f follows the solve_adaptive contract.  A fixed step cannot be
    rejected, so with an event a step whose stage f answers with
    PoleError (a stage at or past the S = 1 pole) is the crossing, and a
    step to a state where the event function is NaN, so the crossing
    cannot be told, raises NumericalError.  Without an event a NaN state
    is carried on.

    Raises ValueError when y0 is not a pair and StepBudgetError, before
    any step, when the grid would need more than MAX_STEPS steps.
    """
    y = _as_state(y0)
    t0, t_final, dt = float(t0), float(t_final), float(dt)
    span = (t_final - t0) / dt - 1e-12
    if not span <= MAX_STEPS:
        raise StepBudgetError(f"step budget of {MAX_STEPS} steps exceeded: "
                              f"t_final/dt needs {span:.6g} steps")
    n_steps = max(1, int(math.ceil(span)))
    times = [t0]
    states = [y]
    event_state = None
    t = t0
    for i in range(n_steps):
        t_next = t0 + (i + 1) * (t_final - t0) / n_steps
        try:
            y_new = _rk4_step(f, t, y, t_next - t)
        except PoleError:
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
    return np.array(times), _stacked(states), event_state


def _solve(f, t0, y0, cfg: IntegratorConfig, event=None, rk45=_rk45_step,
           dop853=None):
    """Solve with cfg's method.

    rk45 is the 4(5) step, and dop853, when given, an 8(5,3) step, which
    a caller that reads only the end state passes: "adaptive" takes it,
    and otherwise the 4(5) step, as "rk45" always does.
    """
    if cfg.method == "rk4":
        return solve_fixed(f, t0, y0, cfg.t_final, cfg.dt,
                           record_every=cfg.record_every, event=event)
    if cfg.method == "adaptive" and dop853 is not None:
        step, norm, growth = dop853, _dop853_norm, _dop853_growth
    else:
        step, norm, growth = rk45, _float_norm, _rk45_growth
    return solve_adaptive(f, t0, y0, cfg.t_final, rtol=cfg.rtol,
                          atol=cfg.atol, record_every=cfg.record_every,
                          event=event, step=step, norm=norm,
                          growth=growth)


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


def evolve(x0: Amplitudes, p: Params,
           cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Propagate the amplitude equations from x0."""
    v, u, r, ga, gb = p.v, p.u, p.r, p.gamma_a, p.gamma_b

    def f(t, y):
        return gp_deriv(y[0], y[1], v, u, r, ga, gb)

    times, states, _ = _solve(f, 0.0, (complex(x0.a), complex(x0.b)), cfg)
    return Trajectory(times=times, states=states, params=p)


def _reduced_rk45_step(c, omega, r, gamma):
    """_rk45_step over evolve_reduced's right-hand side, that right-hand
    side written into each stage: the same bits, or None where that step
    raises PoleError (a stage at or past S = 1) or a phase overflowed to
    inf (test_reduced_step_is_the_generic_step).  The flow is
    autonomous; the stage times and f go unused.
    """
    m2omega, c4, r4 = -2.0 * omega, 4.0 * c, 4.0 * r
    sqrt, sin, cos = math.sqrt, math.sin, math.cos

    def step(f, t, y, h, k1):
        y0, y1 = y
        a0, a1 = k1
        # the pole guard: sqrt raises past S = 1, the division by root at
        # it; sin(inf) raises too
        try:
            s = y0 + a0 * _A21 * h
            root = sqrt(1.0 - s)
            th = y1 + a1 * _A21 * h
            b0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            b1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
            s = y0 + (a0 * _A31 + b0 * _A32) * h
            root = sqrt(1.0 - s)
            th = y1 + (a1 * _A31 + b1 * _A32) * h
            c0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            c1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
            s = y0 + (a0 * _A41 + b0 * _A42 + c0 * _A43) * h
            root = sqrt(1.0 - s)
            th = y1 + (a1 * _A41 + b1 * _A42 + c1 * _A43) * h
            d0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            d1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
            s = y0 + (a0 * _A51 + b0 * _A52 + c0 * _A53 + d0 * _A54) * h
            root = sqrt(1.0 - s)
            th = y1 + (a1 * _A51 + b1 * _A52 + c1 * _A53 + d1 * _A54) * h
            e0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            e1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
            s = y0 + (a0 * _A61 + b0 * _A62 + c0 * _A63 + d0 * _A64
                      + e0 * _A65) * h
            root = sqrt(1.0 - s)
            th = y1 + (a1 * _A61 + b1 * _A62 + c1 * _A63 + d1 * _A64
                       + e1 * _A65) * h
            g0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            g1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
            s = y0 + (a0 * _B1 + c0 * _B3 + d0 * _B4 + e0 * _B5 + g0 * _B6) * h
            root = sqrt(1.0 - s)
            th = y1 + (a1 * _B1 + c1 * _B3 + d1 * _B4 + e1 * _B5 + g1 * _B6) * h
            p0 = m2omega * (1.0 + s) * root * sin(th) - gamma * (1.0 - s * s)
            p1 = c4 * s - r4 - omega * (1.0 - 3.0 * s) / root * cos(th)
        except (ValueError, ZeroDivisionError):
            return None
        return (s, th, p0, p1,
                (a0 * _E1 + c0 * _E3 + d0 * _E4 + e0 * _E5 + g0 * _E6
                 + p0 * _E7) * h,
                (a1 * _E1 + c1 * _E3 + d1 * _E4 + e1 * _E5 + g1 * _E6
                 + p1 * _E7) * h)

    return step


def _sweep_dop853_step(c, omega, gamma, beta, half):
    """The Dormand-Prince 8(5,3) step over model.unit_norm_deriv for the
    sweep R(t) = beta (t - half), that right-hand side written into each
    stage on the four float parts Re a, Im a, Re b, Im b (see the module
    docstring), with the contract of _rk45_step: the error part of the
    flat result is e5_a, e5_b, e3_a, e3_b, the 5th- and 3rd-order error
    components, not yet multiplied by h, which _dop853_norm combines.
    It takes no float power and never returns None: a product past the
    largest float gives inf or NaN parts, which _dop853_norm reads as an
    infinite norm, and the loop rejects that step.  f goes unused
    (test_sweep_step_is_the_generic_step pins it to the tableau loop of
    the tests' oracle).
    """
    omega2, gamma_half, c2 = 2.0 * omega, 0.5 * gamma, 2.0 * c

    def step(f, t, y, h, k1):
        y0r, y0i, y1r, y1i = y[0].real, y[0].imag, y[1].real, y[1].imag
        u1r, u1i, v1r, v1i = k1[0].real, k1[0].imag, k1[1].real, k1[1].imag
        ar = y0r + u1r * _DA2_1 * h
        ai = y0i + u1i * _DA2_1 * h
        br = y1r + v1r * _DA2_1 * h
        bi = y1i + v1i * _DA2_1 * h
        r = beta * (t + _DC2 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u2r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u2i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v2r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v2i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA3_1 + u2r * _DA3_2) * h
        ai = y0i + (u1i * _DA3_1 + u2i * _DA3_2) * h
        br = y1r + (v1r * _DA3_1 + v2r * _DA3_2) * h
        bi = y1i + (v1i * _DA3_1 + v2i * _DA3_2) * h
        r = beta * (t + _DC3 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u3r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u3i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v3r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v3i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA4_1 + u3r * _DA4_3) * h
        ai = y0i + (u1i * _DA4_1 + u3i * _DA4_3) * h
        br = y1r + (v1r * _DA4_1 + v3r * _DA4_3) * h
        bi = y1i + (v1i * _DA4_1 + v3i * _DA4_3) * h
        r = beta * (t + _DC4 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u4r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u4i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v4r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v4i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA5_1 + u3r * _DA5_3 + u4r * _DA5_4) * h
        ai = y0i + (u1i * _DA5_1 + u3i * _DA5_3 + u4i * _DA5_4) * h
        br = y1r + (v1r * _DA5_1 + v3r * _DA5_3 + v4r * _DA5_4) * h
        bi = y1i + (v1i * _DA5_1 + v3i * _DA5_3 + v4i * _DA5_4) * h
        r = beta * (t + _DC5 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u5r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u5i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v5r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v5i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA6_1 + u4r * _DA6_4 + u5r * _DA6_5) * h
        ai = y0i + (u1i * _DA6_1 + u4i * _DA6_4 + u5i * _DA6_5) * h
        br = y1r + (v1r * _DA6_1 + v4r * _DA6_4 + v5r * _DA6_5) * h
        bi = y1i + (v1i * _DA6_1 + v4i * _DA6_4 + v5i * _DA6_5) * h
        r = beta * (t + _DC6 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u6r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u6i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v6r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v6i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA7_1 + u4r * _DA7_4 + u5r * _DA7_5
              + u6r * _DA7_6) * h
        ai = y0i + (u1i * _DA7_1 + u4i * _DA7_4 + u5i * _DA7_5
              + u6i * _DA7_6) * h
        br = y1r + (v1r * _DA7_1 + v4r * _DA7_4 + v5r * _DA7_5
              + v6r * _DA7_6) * h
        bi = y1i + (v1i * _DA7_1 + v4i * _DA7_4 + v5i * _DA7_5
              + v6i * _DA7_6) * h
        r = beta * (t + _DC7 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u7r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u7i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v7r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v7i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA8_1 + u4r * _DA8_4 + u5r * _DA8_5
              + u6r * _DA8_6 + u7r * _DA8_7) * h
        ai = y0i + (u1i * _DA8_1 + u4i * _DA8_4 + u5i * _DA8_5
              + u6i * _DA8_6 + u7i * _DA8_7) * h
        br = y1r + (v1r * _DA8_1 + v4r * _DA8_4 + v5r * _DA8_5
              + v6r * _DA8_6 + v7r * _DA8_7) * h
        bi = y1i + (v1i * _DA8_1 + v4i * _DA8_4 + v5i * _DA8_5
              + v6i * _DA8_6 + v7i * _DA8_7) * h
        r = beta * (t + _DC8 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u8r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u8i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v8r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v8i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA9_1 + u4r * _DA9_4 + u5r * _DA9_5
              + u6r * _DA9_6 + u7r * _DA9_7 + u8r * _DA9_8) * h
        ai = y0i + (u1i * _DA9_1 + u4i * _DA9_4 + u5i * _DA9_5
              + u6i * _DA9_6 + u7i * _DA9_7 + u8i * _DA9_8) * h
        br = y1r + (v1r * _DA9_1 + v4r * _DA9_4 + v5r * _DA9_5
              + v6r * _DA9_6 + v7r * _DA9_7 + v8r * _DA9_8) * h
        bi = y1i + (v1i * _DA9_1 + v4i * _DA9_4 + v5i * _DA9_5
              + v6i * _DA9_6 + v7i * _DA9_7 + v8i * _DA9_8) * h
        r = beta * (t + _DC9 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u9r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u9i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v9r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v9i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA10_1 + u4r * _DA10_4 + u5r * _DA10_5
              + u6r * _DA10_6 + u7r * _DA10_7 + u8r * _DA10_8
              + u9r * _DA10_9) * h
        ai = y0i + (u1i * _DA10_1 + u4i * _DA10_4 + u5i * _DA10_5
              + u6i * _DA10_6 + u7i * _DA10_7 + u8i * _DA10_8
              + u9i * _DA10_9) * h
        br = y1r + (v1r * _DA10_1 + v4r * _DA10_4 + v5r * _DA10_5
              + v6r * _DA10_6 + v7r * _DA10_7 + v8r * _DA10_8
              + v9r * _DA10_9) * h
        bi = y1i + (v1i * _DA10_1 + v4i * _DA10_4 + v5i * _DA10_5
              + v6i * _DA10_6 + v7i * _DA10_7 + v8i * _DA10_8
              + v9i * _DA10_9) * h
        r = beta * (t + _DC10 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u10r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u10i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v10r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v10i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA11_1 + u4r * _DA11_4 + u5r * _DA11_5
              + u6r * _DA11_6 + u7r * _DA11_7 + u8r * _DA11_8
              + u9r * _DA11_9 + u10r * _DA11_10) * h
        ai = y0i + (u1i * _DA11_1 + u4i * _DA11_4 + u5i * _DA11_5
              + u6i * _DA11_6 + u7i * _DA11_7 + u8i * _DA11_8
              + u9i * _DA11_9 + u10i * _DA11_10) * h
        br = y1r + (v1r * _DA11_1 + v4r * _DA11_4 + v5r * _DA11_5
              + v6r * _DA11_6 + v7r * _DA11_7 + v8r * _DA11_8
              + v9r * _DA11_9 + v10r * _DA11_10) * h
        bi = y1i + (v1i * _DA11_1 + v4i * _DA11_4 + v5i * _DA11_5
              + v6i * _DA11_6 + v7i * _DA11_7 + v8i * _DA11_8
              + v9i * _DA11_9 + v10i * _DA11_10) * h
        r = beta * (t + _DC11 * h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u11r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u11i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v11r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v11i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        ar = y0r + (u1r * _DA12_1 + u4r * _DA12_4 + u5r * _DA12_5
              + u6r * _DA12_6 + u7r * _DA12_7 + u8r * _DA12_8
              + u9r * _DA12_9 + u10r * _DA12_10 + u11r * _DA12_11) * h
        ai = y0i + (u1i * _DA12_1 + u4i * _DA12_4 + u5i * _DA12_5
              + u6i * _DA12_6 + u7i * _DA12_7 + u8i * _DA12_8
              + u9i * _DA12_9 + u10i * _DA12_10 + u11i * _DA12_11) * h
        br = y1r + (v1r * _DA12_1 + v4r * _DA12_4 + v5r * _DA12_5
              + v6r * _DA12_6 + v7r * _DA12_7 + v8r * _DA12_8
              + v9r * _DA12_9 + v10r * _DA12_10 + v11r * _DA12_11) * h
        bi = y1i + (v1i * _DA12_1 + v4i * _DA12_4 + v5i * _DA12_5
              + v6i * _DA12_6 + v7i * _DA12_7 + v8i * _DA12_8
              + v9i * _DA12_9 + v10i * _DA12_10 + v11i * _DA12_11) * h
        # the twelfth stage and the new state's derivative share t + h
        r = beta * (t + h - half)
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        u12r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        u12i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        v12r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        v12i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        s0r = (u1r * _DB1 + u6r * _DB6 + u7r * _DB7 + u8r * _DB8
              + u9r * _DB9 + u10r * _DB10 + u11r * _DB11 + u12r * _DB12)
        s0i = (u1i * _DB1 + u6i * _DB6 + u7i * _DB7 + u8i * _DB8
              + u9i * _DB9 + u10i * _DB10 + u11i * _DB11 + u12i * _DB12)
        s1r = (v1r * _DB1 + v6r * _DB6 + v7r * _DB7 + v8r * _DB8
              + v9r * _DB9 + v10r * _DB10 + v11r * _DB11 + v12r * _DB12)
        s1i = (v1i * _DB1 + v6i * _DB6 + v7i * _DB7 + v8i * _DB8
              + v9i * _DB9 + v10i * _DB10 + v11i * _DB11 + v12i * _DB12)
        ar, ai = y0r + s0r * h, y0i + s0i * h
        br, bi = y1r + s1r * h, y1i + s1i * h
        s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
        q, g = r - c * s, gamma_half * (1.0 - s)
        p0r = ai * q + (ar * omega2 * bi - ai * omega2 * br) - ar * g
        p0i = -(ar * q + (ar * omega2 * br + ai * omega2 * bi)) - ai * g
        q, g = -2.0 * r + c2 * s, gamma_half * (1.0 + s)
        p1r = ar * omega * ai + ai * omega * ar + bi * q + br * g
        p1i = -(ar * omega * ar - ai * omega * ai + br * q) + bi * g
        e0r = (u1r * _DE1 + u6r * _DE6 + u7r * _DE7 + u8r * _DE8 + u9r * _DE9
               + u10r * _DE10 + u11r * _DE11 + u12r * _DE12)
        e0i = (u1i * _DE1 + u6i * _DE6 + u7i * _DE7 + u8i * _DE8 + u9i * _DE9
               + u10i * _DE10 + u11i * _DE11 + u12i * _DE12)
        e1r = (v1r * _DE1 + v6r * _DE6 + v7r * _DE7 + v8r * _DE8 + v9r * _DE9
               + v10r * _DE10 + v11r * _DE11 + v12r * _DE12)
        e1i = (v1i * _DE1 + v6i * _DE6 + v7i * _DE7 + v8i * _DE8 + v9i * _DE9
               + v10i * _DE10 + v11i * _DE11 + v12i * _DE12)
        d0r, d0i = (s0r - u1r * _DBHH1 - u9r * _DBHH9 - u12r * _DBHH12,
                    s0i - u1i * _DBHH1 - u9i * _DBHH9 - u12i * _DBHH12)
        d1r, d1i = (s1r - v1r * _DBHH1 - v9r * _DBHH9 - v12r * _DBHH12,
                    s1i - v1i * _DBHH1 - v9i * _DBHH9 - v12i * _DBHH12)
        return (complex(ar, ai), complex(br, bi), complex(p0r, p0i),
                complex(p1r, p1i), complex(e0r, e0i), complex(e1r, e1i),
                complex(d0r, d0i), complex(d1r, d1i))

    return step


def _reduced_f(c, omega, r, gamma):
    """evolve_reduced's right-hand side f(t, y) at (C, Omega, R, Gamma):
    model.reduced_deriv with eps_pole = 0, so a state at or past S = 1
    raises PoleError, and NaN for a phase that overflowed to inf."""

    def f(t, y):
        try:
            return reduced_deriv(y[0], y[1], c, omega, r, gamma, 0.0)
        except ValueError:  # math.sin(inf)
            return math.nan, math.nan

    return f


def evolve_reduced(s0: float, theta0: float, q: ReducedParams,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   eps_pole: float = EPS_POLE) -> ReducedTrajectory:
    """Propagate the autonomous reduced flow from (s0, theta0).

    Halts with a pole event (recorded, not fatal) if S reaches
    1 - eps_pole.  The right-hand side is model.reduced_deriv with
    eps_pole = 0: a trial stage at or past S = 1 raises PoleError, the
    crossing of a fixed step (solve_fixed), and a phase that overflowed
    to inf gives NaN, as the overflow itself would in numpy.  The
    adaptive methods step with _reduced_rk45_step, which calls f once.
    """
    s0, theta0 = float(s0), float(theta0)
    s_max = 1.0 - eps_pole
    if not abs(s0) <= s_max:
        raise ValueError(f"|s0| must be <= 1 - eps_pole, got {s0}")
    c, omega, r, gamma = q.c, q.omega, q.r, q.gamma
    f = _reduced_f(c, omega, r, gamma)

    def pole(t, y):
        return y[0] - s_max

    times, states, hit = _solve(
        f, 0.0, (s0, theta0), cfg, event=pole,
        rk45=_reduced_rk45_step(c, omega, r, gamma))
    event = None
    if hit is not None:
        t_ev, (s_ev, theta_ev) = hit
        event = PoleEvent(time=t_ev, s=float(s_ev), theta=float(theta_ev))
    return ReducedTrajectory(times=times, s=states[:, 0], theta=states[:, 1],
                             params=q, pole_event=event)


def _on_time_grid(tr: ReducedTrajectory, cfg: IntegratorConfig,
                  n_t: int) -> ReducedTrajectory:
    """tr, an evolve_reduced solve under cfg that recorded every
    accepted step, sampled at t_k = t_final k / (n_t - 1), k = 0 .. n_t - 1,
    the last time t_final exactly.

    Row k is the solve's own step from the last recorded state at or
    before t_k to t_k: under the adaptive methods the chart's
    _reduced_rk45_step, with k1 = reduced_deriv at that state, and
    under rk4 _rk4_step; a row at a recorded time is that state, and a
    row whose step fails (a stage at or past S = 1) is left out.  An
    orbit with a pole event keeps its event state as its last row and
    has no row past its last accepted step: the adaptive methods record
    the event state after it, rk4 records it as that step.
    """
    q = tr.params
    c, omega, r, gamma = q.c, q.omega, q.r, q.gamma
    f = _reduced_f(c, omega, r, gamma)
    rk4 = cfg.method == "rk4"
    step = None if rk4 else _reduced_rk45_step(c, omega, r, gamma)
    times, s, theta = tr.times.tolist(), tr.s.tolist(), tr.theta.tolist()
    t_final = cfg.t_final
    grid = [t_final * k / (n_t - 1) for k in range(n_t - 1)] + [t_final]
    event = tr.pole_event
    n_base = len(times)
    if event is not None:
        if not rk4:
            n_base -= 1
        grid = [t for t in grid if t <= times[n_base - 1] and t < event.time]
    rows_t, rows_s, rows_theta = [], [], []
    for t_k in grid:
        j = bisect_right(times, t_k, 0, n_base) - 1
        t_j, y = times[j], (s[j], theta[j])
        if t_k != t_j:
            if rk4:
                try:
                    y = _rk4_step(f, t_j, y, t_k - t_j)
                except PoleError:
                    continue
            else:
                res = step(f, t_j, y, t_k - t_j, f(t_j, y))
                if res is None:
                    continue
                y = res[0], res[1]
        rows_t.append(t_k)
        rows_s.append(y[0])
        rows_theta.append(y[1])
    if event is not None:
        rows_t.append(event.time)
        rows_s.append(event.s)
        rows_theta.append(event.theta)
    return ReducedTrajectory(times=np.array(rows_t), s=np.array(rows_s),
                             theta=np.array(rows_theta), params=q,
                             pole_event=event)
