"""Mean-field model of a dissipative atom-molecule conversion dimer.

Two condensate modes, atomic (a) and molecular (b), exchange particle
pairs at conversion rate V while each mode loses particles at rate
gamma_a / gamma_b.  The complex amplitudes obey the non-Hermitian
nonlinear Schrodinger pair

    i da/dt = (R - U z - i gamma_a/2) a + 2 V conj(a) b
    i db/dt = V a^2 + (-2R + 2 U z - i gamma_b/2) b

with z = |a|^2 - 2|b|^2 and all rates in units of V.  On the projective
(tear-drop shaped) phase space the state is described by

    n = |a|^2 + 2|b|^2,    S = z/n,    theta = 2 arg(a) - arg(b),

and for fixed effective couplings C = U*n, Omega = V*sqrt(n) the reduced
flow reads

    dS/dt     = -2 Omega (1+S) sqrt(1-S) sin(theta) - Gamma (1 - S^2)
    dtheta/dt = 4 C S - 4 R - Omega (1-3S)/sqrt(1-S) cos(theta)

where Gamma = (gamma_a - gamma_b)/2 is the relative loss rate.  The total
rate (gamma_a + gamma_b)/2 enters only through the norm,
dn/dt = -(Gamma_plus + Gamma_minus * S) n.

Evolve, sweep and trap runs integrate in amplitude coordinates, which
are regular everywhere; (S, theta) is singular at S = 1 and the chart
degenerates at S = -1, so their canonical quantities are derived from
amplitudes after the fact.  Phase portraits integrate the (S, theta)
chart itself (evolve_reduced), and an orbit that reaches the pole ends
there with a pole event.

gp_deriv, reduced_deriv and unit_norm_deriv are the one copy of each
right-hand side: every solve calls one of them through a closure.  Three
places write a flow inline instead, for speed, and tests pin each to
these functions bit for bit: the (S, theta) chart's 4(5) step and the
sweep's 8(5,3) step in atomol.integrate, and the Newton polish of
fixed_points._polish_point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Guard for the 1/sqrt(1-S) pole of the reduced flow.
EPS_POLE = 1e-12

TWO_PI = 2.0 * math.pi


class NumericalError(ArithmeticError):
    """A computation left the range where it is defined (not bad input)."""


class PoleError(NumericalError):
    """Reduced-flow evaluation requested too close to the S = 1 pole."""


def wrap_angle(theta):
    """Wrap an angle (scalar or array) into [0, 2*pi)."""
    return np.mod(theta, TWO_PI)


def angle_distance(t1, t2):
    """Shortest angular distance between two angles."""
    d = np.mod(np.abs(np.asarray(t1) - np.asarray(t2)), TWO_PI)
    return np.minimum(d, TWO_PI - d)


@dataclass(frozen=True)
class BareParams:
    """Single-mode energies and collision strengths, in units of V."""

    mu_a: float = 0.0
    mu_b: float = 0.0
    u_aa: float = 0.0
    u_bb: float = 0.0
    u_ab: float = 0.0

    def __post_init__(self):
        for name in ("mu_a", "mu_b", "u_aa", "u_bb", "u_ab"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def reduce_bare_params(p: BareParams) -> tuple[float, float]:
    """Collapse bare mode parameters to the effective (R, U) pair.

    R = (2 mu_a - mu_b + 2 u_aa - u_bb/2) / 4 is the mode energy
    difference, U = u_ab/4 - u_aa/2 - u_bb/8 the effective coupling.
    """
    r = (2.0 * p.mu_a - p.mu_b + 2.0 * p.u_aa - 0.5 * p.u_bb) / 4.0
    u = 0.25 * p.u_ab - 0.5 * p.u_aa - 0.125 * p.u_bb
    return r, u


@dataclass(frozen=True)
class Params:
    """Physical constants of the two-mode model.

    v: conversion rate (the rate unit; v = 0 switches conversion off)
    u: effective coupling
    r: energy difference between the modes
    gamma_a, gamma_b: mode loss rates (signed)
    """

    v: float = 1.0
    u: float = 0.0
    r: float = 0.0
    gamma_a: float = 0.0
    gamma_b: float = 0.0

    def __post_init__(self):
        if self.v < 0:
            raise ValueError(f"conversion rate v must be >= 0, got {self.v}")
        for name in ("v", "u", "r", "gamma_a", "gamma_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def gamma_plus(self) -> float:
        """Total decoherence rate (gamma_a + gamma_b)/2."""
        return 0.5 * (self.gamma_a + self.gamma_b)

    @property
    def gamma_minus(self) -> float:
        """Relative decoherence rate (gamma_a - gamma_b)/2."""
        return 0.5 * (self.gamma_a - self.gamma_b)

    def reduced(self, n: float = 1.0) -> "ReducedParams":
        """Effective reduced parameters at particle number n."""
        return ReducedParams(c=self.u * n, omega=self.v * math.sqrt(n),
                             r=self.r, gamma=self.gamma_minus)


@dataclass(frozen=True)
class ReducedParams:
    """Constants of the autonomous reduced (S, theta) flow.

    c: effective nonlinearity C = U*n
    omega: effective conversion amplitude Omega = V*sqrt(n), >= 0
    r: energy difference
    gamma: relative decoherence rate (signed)
    """

    c: float = 0.0
    omega: float = 1.0
    r: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        isfinite = math.isfinite
        if not (isfinite(self.c) and isfinite(self.omega) and isfinite(self.r)
                and isfinite(self.gamma)):
            name = next(name for name in ("c", "omega", "r", "gamma")
                        if not isfinite(getattr(self, name)))
            raise ValueError(f"{name} must be finite")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")


@dataclass(frozen=True)
class Amplitudes:
    """Complex mode amplitudes (a atomic, b molecular)."""

    a: complex
    b: complex


@dataclass(frozen=True)
class CanonicalState:
    """Canonical coordinates (S, theta, n) on the tear-drop surface.

    theta is wrapped to [0, 2*pi).
    """

    s: float
    theta: float
    n: float

    def __post_init__(self):
        for name in ("theta", "n"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (-1.0 <= self.s <= 1.0):
            raise ValueError(f"population difference S out of [-1, 1]: {self.s}")
        if self.n < 0:
            raise ValueError(f"particle number must be >= 0, got {self.n}")
        if not 0.0 <= self.theta < TWO_PI:
            object.__setattr__(self, "theta", float(wrap_angle(self.theta)))


def amplitudes_from_canonical(c: CanonicalState, theta_a: float = 0.0) -> Amplitudes:
    """Invert the canonical map up to the gauge angle theta_a.

    |a|^2 = n(1+S)/2 and |b|^2 = n(1-S)/4; arg(a) = theta_a fixes the
    gauge and arg(b) = 2*theta_a - theta.
    """
    ra = math.sqrt(c.n * (1.0 + c.s) / 2.0)
    rb = math.sqrt(c.n * (1.0 - c.s) / 4.0)
    a = ra * cmath.exp(1j * theta_a)
    b = rb * cmath.exp(1j * (2.0 * theta_a - c.theta))
    return Amplitudes(a=a, b=b)


def gp_deriv(a, b, v, u, r, gamma_a, gamma_b):
    """Right-hand side of the amplitude equations (low-level form).

    Regular everywhere, including the pure-mode poles.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    z = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
    da = -1j * ((r - u * z - 0.5j * gamma_a) * a + 2.0 * v * a.conjugate() * b)
    db = -1j * (v * a * a + (-2.0 * r + 2.0 * u * z - 0.5j * gamma_b) * b)
    return da, db


def reduced_deriv(s, theta, c, omega, r, gamma, eps_pole=EPS_POLE):
    """Reduced-flow derivatives (dS/dt, dtheta/dt) at constant C, Omega."""
    if s >= 1.0 - eps_pole:
        raise PoleError(f"reduced flow evaluated at S = {s} (pole at S = 1)")
    root = math.sqrt(1.0 - s)
    ds = -2.0 * omega * (1.0 + s) * root * math.sin(theta) - gamma * (1.0 - s * s)
    dtheta = 4.0 * c * s - 4.0 * r - omega * (1.0 - 3.0 * s) / root * math.cos(theta)
    return ds, dtheta


def unit_norm_deriv(a, b, c, omega, r, gamma):
    """Reduced flow lifted to amplitude coordinates on the unit-norm shell.

    Adds the norm-restoring counterterm to the loss part so that
    |a|^2 + 2|b|^2 = 1 is preserved exactly while (S, theta) follow the
    autonomous reduced equations with constant C, Omega and relative rate
    gamma.  Regular at both poles, unlike the (S, theta) chart.

    The right-hand side of the sweep's and the trap's solves.  Every
    float-by-complex product is written complex-first, as the steps'
    stages are (see atomol.integrate): the bits of the float-first form,
    without the float.__mul__ call that declines a complex.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    s = (ar * ar + ai * ai) - 2.0 * (br * br + bi * bi)
    da = -1j * (a * (r - c * s) + a.conjugate() * (2.0 * omega) * b) \
        - a * (0.5 * gamma * (1.0 - s))
    db = -1j * (a * omega * a + b * (-2.0 * r + 2.0 * c * s)) \
        + b * (0.5 * gamma * (1.0 + s))
    return da, db


def _energy(s, theta, c, omega, r):
    """2*Omega*(1+S)sqrt(1-S)cos(theta) - 2CS^2 + 4RS, elementwise."""
    return (2.0 * omega * (1.0 + s) * np.sqrt(np.maximum(1.0 - s, 0.0))
            * np.cos(theta) - 2.0 * c * s * s + 4.0 * r * s)


def effective_energy(s, theta, q: ReducedParams) -> float:
    """Energy 2*Omega*(1+S)sqrt(1-S)cos(theta) - 2CS^2 + 4RS.

    Conserved along gamma = 0 reduced trajectories.
    """
    return float(_energy(s, theta, q.c, q.omega, q.r))


def _mapped(fn, *arrays) -> np.ndarray:
    """fn of Python floats over 1-D arrays, for the bits of CPython's math.

    numpy's +, -, *, /, sqrt, sin, cos and mod give Python's bits, but
    its complex abs, arctan2 and powers differed from them in the last
    bit on 1% to 35% of inputs (numpy 2.4.6), which ones depending on
    the SIMD loops it dispatches to on the CPU.
    """
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def derived_quantities(states: np.ndarray, v: float, u: float, r: float):
    """Per-sample observables of an amplitude trajectory.

    The one map from amplitudes to observables.  states has shape
    (n_samples, 2) complex.  Returns a dict of arrays s, theta, n,
    p_atom, hx, hy, hz, energy: S = (|a|^2 - 2|b|^2)/n,
    theta = 2 arg(a) - arg(b) wrapped to [0, 2*pi) and 0 by convention
    where either mode is empty, P(a) = |a|^2/n, the Bloch components
    (2*sqrt2 Re[(a*)^2 b], 2*sqrt2 Im[(a*)^2 b], |a|^2 - 2|b|^2), and
    the energy at the instantaneous effective couplings C = U*n,
    Omega = V*sqrt(n).  S, P(a) and the energy are 0 where n = 0.  The
    squares and (a*)^2 b are real arithmetic, and the phases math.atan2
    (_mapped).  The energy takes no cosine: with |a|^2 = n(1+S)/2 and
    |b|^2 = n(1-S)/4, its term 2 Omega (1+S) sqrt(1-S) cos(theta) is
    8 V Re[(a*)^2 b] / n, so it calls no libm function that glibc
    dispatches on the CPU's FMA support.
    """
    x, y = states[:, 0].real, states[:, 0].imag
    bx, by = states[:, 1].real, states[:, 1].imag
    pa = x * x + y * y
    pb = 2.0 * (bx * bx + by * by)
    n = pa + pb
    safe_n = np.where(n == 0.0, 1.0, n)
    s = (pa - pb) / safe_n
    theta = wrap_angle(2.0 * _mapped(math.atan2, y, x)
                       - _mapped(math.atan2, by, bx))
    degenerate = (pa == 0.0) | (pb == 0.0)
    theta = np.where(degenerate, 0.0, theta)
    # (a*)^2 = (x^2 - y^2) - 2ixy, times b = bx + i by
    wr, wi = x * x - y * y, -2.0 * x * y
    re = wr * bx - wi * by
    f = 2.0 * math.sqrt(2.0)
    energy = 8.0 * v * re / safe_n - 2.0 * (u * n) * s * s + 4.0 * r * s
    return {"s": s, "theta": theta, "n": n, "p_atom": pa / safe_n,
            "hx": f * re, "hy": f * (wr * by + wi * bx),
            "hz": pa - pb, "energy": energy}
