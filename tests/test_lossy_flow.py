"""The regime census checked by the lossy flow.

With loss (Gamma != 0) the fixed-point census names where orbits end:
each orbit of the reduced flow settles at one of its spiral or node
attractors, or, for Gamma > 0, at S = -1, the pure molecular mode.
Orbits run on the unit-norm lift (model.unit_norm_deriv), which is
regular at both poles, all the orbits of one test as one vectorized
scipy DOP853 solve to T_END at rtol = atol = RTOL.

The ends are compared in (S, theta), by hypot(dS, angular distance),
and at S = -1, where theta is undefined, by 1 + S.  Measured on these
draws, every end lay within 5.4e-7 of an attractor at Gamma = -0.6 and
-1.0, within 1.1e-5 of an attractor or of S = -1 at Gamma = 1.0 (40
of its 56 orbits end at S = -1), and within 1.7e-5 of the attractor it
started near in the two-attractor cell, whose attractors lie 2.9
apart: END_TOL = 1e-3 leaves a margin of 60 or more.

Not every cell of Gamma > 0 has a fixed-point end: at Gamma = 0.6,
C = 1.3077, R = -0.0513 (a II cell whose census has no attractor and no
S = -1 point) the orbits settle on a cycle.  Gamma = 1.0 is chosen as a
loss rate whose drawn cells all end at a point.
"""

import math

import numpy as np
import pytest

from atomol.fixed_points import all_fixed_points
from atomol.model import ReducedParams, angle_distance, unit_norm_deriv
from atomol.regimes import REGIME_LABELS, classify_regime, scan_plane

from oracles import ATTRACTOR_KINDS

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

OMEGA = 1.0
T_END = 200.0
RTOL = 1e-7
END_TOL = 1e-3


def lossy_ends(c, r, gamma, s0, theta0):
    """(S, theta) at T_END of the orbits from (s0, theta0), one per
    entry of the equal-length arrays, under the reduced flow at
    (c, OMEGA, r, gamma), integrated on the unit-norm lift."""
    n = len(s0)
    a = np.sqrt((1.0 + s0) / 2.0) + 0j
    b = np.sqrt((1.0 - s0) / 4.0) * np.exp(-1j * theta0)

    def f(t, y):
        da, db = unit_norm_deriv(y[:n] + 1j * y[n:2 * n],
                                 y[2 * n:3 * n] + 1j * y[3 * n:],
                                 c, OMEGA, r, gamma)
        return np.concatenate([da.real, da.imag, db.real, db.imag])

    sol = solve_ivp(f, (0.0, T_END), np.concatenate(
        [a.real, a.imag, b.real, b.imag]), method="DOP853", rtol=RTOL,
        atol=RTOL)
    assert sol.success, sol.message
    y = sol.y[:, -1]
    a, b = y[:n] + 1j * y[n:2 * n], y[2 * n:3 * n] + 1j * y[3 * n:]
    pa, pb = np.abs(a) ** 2, 2.0 * np.abs(b) ** 2
    return (pa - pb) / (pa + pb), 2.0 * np.angle(a) - np.angle(b)


def attractors(q):
    return [(p.s, p.theta) for p in all_fixed_points(q)
            if p.kind in ATTRACTOR_KINDS]


def distance(s, theta, point):
    return math.hypot(s - point[0], float(angle_distance(theta, point[1])))


def drawn_orbits(gammas, seed, cells_per_label=2, starts_per_cell=4):
    """Columns (label, c, r, gamma, s0, theta0): at each gamma, cells
    drawn from a 40x40 default map, cells_per_label of each label it
    holds, and starts_per_cell starts drawn in each."""
    rng = np.random.default_rng(seed)
    rows = []
    for gamma in gammas:
        rmap = scan_plane(resolution=40, omega=OMEGA, gamma=gamma)
        for code, label in enumerate(rmap.table):
            cells = np.argwhere(rmap.codes == code)
            picked = rng.choice(len(cells), min(cells_per_label, len(cells)),
                                replace=False)
            for i, j in cells[picked]:
                rows += [(label.label, float(rmap.c_axis[i]),
                          float(rmap.r_axis[j]), gamma,
                          rng.uniform(-0.95, 0.95), rng.uniform(0.0, 2 * math.pi))
                         for _ in range(starts_per_cell)]
    return [np.array(col) for col in zip(*rows)]


@pytest.mark.parametrize("gammas, seed", [((-0.6, -1.0), 1), ((1.0,), 2)])
def test_every_drawn_orbit_ends_where_the_census_says(gammas, seed):
    labels, c, r, gamma, s0, theta0 = drawn_orbits(gammas, seed)
    for g in gammas:
        assert set(labels[gamma == g]) == set(REGIME_LABELS)
    s, theta = lossy_ends(c, r, gamma, s0, theta0)
    for k in range(len(s)):
        q = ReducedParams(c=c[k], omega=OMEGA, r=r[k], gamma=gamma[k])
        ends = [distance(s[k], theta[k], p) for p in attractors(q)]
        if gamma[k] > 0.0:  # tr J = 2 Gamma S: S = -1 may attract
            ends.append(1.0 + s[k])
        assert min(ends, default=math.inf) < END_TOL, (
            labels[k], q, (s0[k], theta0[k]), (s[k], theta[k]))


def test_each_of_two_attractors_keeps_the_starts_near_it():
    q = ReducedParams(c=2.75, omega=OMEGA, r=0.0, gamma=-0.6)
    assert classify_regime(q).label == "II"
    points = attractors(q)
    assert len(points) == 2 and distance(*points[0], points[1]) > 0.1
    # four starts 0.05 off each attractor, toward lower S and either side
    offsets = [(-0.05, -0.05), (-0.05, 0.05), (0.0, -0.05), (0.0, 0.05)]
    s0 = np.array([ps + ds for ps, _ in points for ds, _ in offsets])
    theta0 = np.array([pt + dt for _, pt in points for _, dt in offsets])
    n = len(s0)
    s, theta = lossy_ends(np.full(n, q.c), np.full(n, q.r),
                          np.full(n, q.gamma), s0, theta0)
    for k in range(n):
        home = points[k // len(offsets)]
        assert distance(s[k], theta[k], home) < END_TOL, (home, s[k], theta[k])
