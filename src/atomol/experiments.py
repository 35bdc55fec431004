"""Dynamical experiments: portraits, conversion sweeps, self-trapping.

The sweep and trapping runs probe how the relative loss rate
Gamma = (gamma_a - gamma_b)/2 reshapes the dynamics.  They integrate the
unit-norm amplitude lift of the autonomous reduced flow (constant
effective couplings C, Omega and total rate zero), which realizes the
(S, theta) dynamics that depends only on Gamma while staying regular at
the pure-mode poles; normalized observables like |b|^2/n are read off
directly.  Raw amplitude evolution with number-floating couplings is
available through the integrator for comparison runs.

The sweep and trapping solves call model.unit_norm_deriv through a
closure, at R(t) = beta (t - T/2) for a sweep and at a constant R for a
trapping run.  A sweep reads only the end state of each solve and
integrates with the Dormand-Prince 8(5,3) pair, on the sweep's own
float-part step, which writes that flow into its stages and calls f
once per solve; trapping runs and portraits record every accepted step
and take the 4(5) pair (see atomol.integrate).  A trapping run's
rows and summary are its accepted steps.  A portrait writes each orbit
at n_t evenly spaced times, each the chart's 4(5) step from the last
accepted state at or before it, so the rows keep the solver's accuracy.
n_t is at most PORTRAIT_N_T and at most the solves' mean recorded
states per orbit over PORTRAIT_THINNING, so a portrait writes about a
quarter of the rows, or fewer, that one per accepted step would, and
its grid steps cost less than the rows they save.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fixed_points import FixedPoint, all_fixed_points
from .integrate import (
    IntegratorConfig,
    PoleEvent,
    ReducedTrajectory,
    _dop853_growth,
    _dop853_norm,
    _on_time_grid,
    _solve,
    _sweep_dop853_step,
    evolve_reduced,
)
from .model import Params, ReducedParams, derived_quantities, unit_norm_deriv

# Below this, a baseline conversion efficiency cannot normalize the
# relative efficiency and m is reported as undefined.
MIN_BASELINE_W = 1e-12

# A portrait orbit is written at n_t evenly spaced times: at most
# PORTRAIT_N_T, and at most the solves' mean recorded states per orbit
# over PORTRAIT_THINNING.  A grid row costs a 4(5) step and a written
# row, up to 2.7 times what writing an accepted state costs (2.8 us a
# step, 1.4 to 6 us a row; CPython 3.11, x86-64), so a grid of a
# quarter of the states costs less than the rows it replaces, on short
# and loose-tolerance portraits too.  The bench portrait's solves
# average about 1,250 states per orbit, so it takes the cap.
PORTRAIT_N_T = 201
PORTRAIT_THINNING = 4


@dataclass(frozen=True)
class SweepProtocol:
    """Linear detuning sweep across the conversion resonance.

    The energy difference follows R(t) = beta * (t - T/2) over t in
    [0, T], crossing R = 0 exactly once at mid-protocol, with
    T = 2 * r_max / |beta| so the sweep starts and ends a distance r_max
    from resonance.  The initial state is the pure atomic mode,
    |a(0)|^2 = 1.
    """

    beta: float
    r_max: float = 5.0

    def __post_init__(self):
        for name in ("beta", "r_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.beta == 0.0:
            raise ValueError("sweeping rate beta must be nonzero")
        if not self.r_max > 0:
            raise ValueError("r_max must be > 0")

    @property
    def duration(self) -> float:
        return 2.0 * self.r_max / abs(self.beta)

    @functools.cached_property
    def _half_duration(self) -> float:
        return self.duration / 2.0

    def r_at(self, t: float) -> float:
        return self.beta * (t - self._half_duration)


@dataclass(frozen=True)
class EfficiencyReport:
    """Terminal conversion efficiency of one sweep.

    w = |b(T)|^2 / n(T); m = (w - w_baseline)/w_baseline against the
    zero-loss baseline with an identical protocol, or None when the
    baseline efficiency is too small to normalize.
    """

    w: float
    m: Optional[float]
    beta: float
    gamma: float
    w_baseline: float


@dataclass
class TrapRun:
    """Normalized atomic population P(a) = |a|^2/n along one run.

    The rows, and the summary (trapped, min_p_atom,
    oscillation_amplitude), are the solve's accepted states.
    """

    times: np.ndarray
    p_atom: np.ndarray
    s: np.ndarray
    theta: np.ndarray
    trapped: bool
    min_p_atom: float
    oscillation_amplitude: float
    gamma: float
    u: float


@dataclass
class PhasePortrait:
    """Bundle of reduced trajectories with the fixed points overlaid."""

    trajectories: list[ReducedTrajectory]
    fixed_points: list[FixedPoint]
    params: ReducedParams
    n_t: int  # the number of times on each orbit's grid

    @property
    def pole_events(self) -> list[Optional[PoleEvent]]:
        return [tr.pole_event for tr in self.trajectories]


@functools.lru_cache(maxsize=1024)
def _terminal_efficiency(protocol: SweepProtocol, u: float, v: float,
                         gamma: float, cfg: IntegratorConfig) -> float:
    """w = |b(T)|^2 / n(T) of one sweep from the pure atomic mode.

    Memoised on its frozen arguments, so the zero-loss baseline is
    integrated once per protocol however many rates share it.  f is
    unit_norm_deriv at R(t) = beta (t - T/2), SweepProtocol.r_at written
    inline.  Only the end state is read, so the solve takes the 8(5,3)
    pair, whose step is integrate._sweep_dop853_step: the flow written
    into the stages on the float parts of a and b (see
    atomol.integrate), so f is called once, for the first step size.
    """
    beta, half = protocol.beta, protocol._half_duration

    def f(t, y):
        return unit_norm_deriv(y[0], y[1], u, v, beta * (t - half), gamma)

    _, states, _ = _solve(f, (1.0 + 0j, 0j),
                          replace(cfg, t_final=protocol.duration),
                          step=_sweep_dop853_step(u, v, gamma, beta, half),
                          norm=_dop853_norm, growth=_dop853_growth)
    mod_a, mod_b = map(abs, states[-1])
    b_sq = mod_b * mod_b
    return float(b_sq / (mod_a * mod_a + 2.0 * b_sq))


def sweep_conversion(protocol: SweepProtocol, p: Params,
                     cfg: IntegratorConfig = IntegratorConfig()) -> EfficiencyReport:
    """Conversion efficiency of a linear sweep, with zero-loss baseline.

    Drives the amplitude pair from the pure atomic mode through the
    resonance with R(t) from the protocol; the loss enters through the
    relative rate Gamma = p.gamma_minus only (the unit-norm convention
    keeps the total rate out of the normalized efficiency).  The
    baseline run repeats the identical protocol with both loss rates
    zero; m is None when the baseline efficiency is below 1e-12.  Runs
    are memoised, so the baseline of a protocol is integrated once.
    """
    gamma = p.gamma_minus
    w = _terminal_efficiency(protocol, p.u, p.v, gamma, cfg)
    if p.gamma_a == 0.0 and p.gamma_b == 0.0:
        w_baseline = w
        m = 0.0
    else:
        w_baseline = _terminal_efficiency(protocol, p.u, p.v, 0.0, cfg)
        m = (w - w_baseline) / w_baseline if w_baseline > MIN_BASELINE_W else None
    return EfficiencyReport(w=w, m=m, beta=protocol.beta, gamma=gamma,
                            w_baseline=w_baseline)


def self_trapping_run(u: float, v: float, r: float, gamma_minus: float,
                      a0_sq: float, t_span: float,
                      theta0: float = math.pi,
                      cfg: IntegratorConfig = IntegratorConfig()) -> TrapRun:
    """Population dynamics of an atom-heavy initial state.

    Starts from |a(0)|^2 = a0_sq at unit norm with relative phase theta0
    (default pi, the phase of the nonlinearly locked lobe where the
    trapped orbits of the self-trapping regime live) and total loss rate
    zero, so the effective couplings are pinned at C = u, Omega = v and
    only the relative rate gamma_minus acts on (S, theta).  The run is
    trapped when the normalized atomic population P(a) = |a|^2/n stays
    above 1/2 at every accepted step, each of which is a returned row.
    The solve runs to t_span, whatever cfg.t_final holds.
    """
    for name, value in (("u", u), ("v", v), ("r", r),
                        ("gamma_minus", gamma_minus), ("theta0", theta0)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if not 0.0 <= a0_sq <= 1.0:
        raise ValueError(f"a0_sq must be in [0, 1], got {a0_sq}")
    a0 = math.sqrt(a0_sq)
    b0 = math.sqrt((1.0 - a0_sq) / 2.0) * cmath.exp(-1j * theta0)
    r = float(r)

    def f(t, y):
        return unit_norm_deriv(y[0], y[1], u, v, r, gamma_minus)

    times, states, _ = _solve(f, (a0 + 0j, b0), replace(cfg, t_final=t_span))
    d = derived_quantities(states, v, u, r)
    p_atom = d["p_atom"]
    min_p = float(p_atom.min())
    return TrapRun(times=times, p_atom=p_atom, s=d["s"], theta=d["theta"],
                   trapped=min_p > 0.5, min_p_atom=min_p,
                   oscillation_amplitude=oscillation_amplitude(p_atom),
                   gamma=gamma_minus, u=u)


def oscillation_amplitude(series) -> float:
    """Peak-to-peak excursion (max - min) of a population series."""
    arr = np.asarray(series, dtype=float)
    if arr.size == 0:
        raise ValueError("series must be non-empty")
    return float(arr.max() - arr.min())


def default_ic_grid(n_s: int = 5, n_theta: int = 8):
    """Rectangular grid of reduced-flow initial conditions."""
    s_vals = np.linspace(-0.9, 0.9, n_s)
    t_vals = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return [(float(s), float(t)) for s in s_vals for t in t_vals]


def phase_portrait(q: ReducedParams, ic_grid=None, t_span: float = 20.0,
                   cfg: Optional[IntegratorConfig] = None) -> PhasePortrait:
    """Reduced-flow trajectories from a grid of starts, plus fixed points.

    Each orbit is solved by evolve_reduced to t_span, whatever
    cfg.t_final holds, recording every accepted step, and is returned
    at the n_t evenly spaced times t_span k / (n_t - 1), each the
    chart's step from the last accepted state at or before it
    (integrate._on_time_grid).  n_t is the smaller of PORTRAIT_N_T and
    the solves' mean recorded states per orbit over PORTRAIT_THINNING,
    and at least 2.  Pole events terminate individual trajectories
    cleanly and are kept on the returned trajectories, the event state
    as the last sample.
    """
    if ic_grid is None:
        ic_grid = default_ic_grid()
    cfg = replace(cfg or IntegratorConfig(), t_final=t_span)
    solves = [evolve_reduced(s0, theta0, q, cfg) for s0, theta0 in ic_grid]
    states = sum(len(tr.times) for tr in solves) // max(len(solves), 1)
    n_t = min(PORTRAIT_N_T, max(2, states // PORTRAIT_THINNING))
    return PhasePortrait(
        trajectories=[_on_time_grid(tr, t_span, n_t) for tr in solves],
        fixed_points=all_fixed_points(q), params=q, n_t=n_t)
