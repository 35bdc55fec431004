"""Acceptance gate: the release-blocking checks, tolerances pinned.

One test per criterion, printing one PASS line on success (run with -s
to see them all); a failing criterion shows up as an ordinary pytest
failure.
"""

import json
import math

import numpy as np
import pytest

from atomol.cli import main as cli_main
from atomol.experiments import (
    SweepProtocol,
    oscillation_amplitude,
    self_trapping_run,
    sweep_conversion,
)
from atomol.fixed_points import (
    KIND_CENTER,
    KIND_SADDLE,
    all_fixed_points,
    cubic_coefficients,
    interior_fixed_points,
    real_cubic_roots,
    residual,
    threshold_gamma,
)
from atomol.integrate import IntegratorConfig, evolve
from atomol.model import (
    CanonicalState,
    Params,
    ReducedParams,
    amplitudes_from_canonical,
    angle_distance,
    reduced_deriv,
)
from atomol.regimes import classify_regime, scan_plane

from oracles import (ATTRACTOR_KINDS, REPELLER_KINDS, bisect_roots,
                     cubic_derivative, jacobian, newton_survey,
                     params_from_gamma, rk4_solve, rk4_trajectory,
                     threshold_by_bisection)

SQRT6 = math.sqrt(6.0)


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_analytic_fixed_points():
    for gamma in (0.3, 0.9, 1.5):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        pts = [p for p in interior_fixed_points(q)
               if abs(p.s - 1.0 / 3.0) < 1e-6]
        assert len(pts) == 2
        expected = sorted([math.pi + math.asin(gamma / SQRT6),
                           2.0 * math.pi - math.asin(gamma / SQRT6)])
        got = sorted(p.theta for p in pts)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9
        for p in pts:
            assert abs(p.s - 1.0 / 3.0) < 1e-9
    report(1, "analytic fixed-point pair at S=1/3 with the arcsin phases "
              "for gamma in {0.3, 0.9, 1.5}, to 1e-9")


def test_criterion_02_threshold():
    assert abs(threshold_gamma(0.0, 0.0, 1.0) - math.sqrt(2.0)) < 1e-6
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 50:
        c = rng.uniform(-1.5, 1.5)
        r = rng.uniform(-1.5, 1.5)
        om = rng.uniform(0.2, 2.5)
        closed_sq = 2.0 * om * om - 4.0 * (c + r) ** 2
        if closed_sq <= 1e-6:
            continue
        closed = math.sqrt(closed_sq)
        bisected = threshold_by_bisection(c, r, om)
        assert bisected is not None and abs(closed - bisected) < 1e-6
        checked += 1
    report(2, "threshold gamma* = sqrt2 at the origin; closed form vs "
              "bisection within 1e-6 on 50 random draws")


def test_criterion_03_trace_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        s = rng.uniform(-1.0, 0.999)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        q = ReducedParams(c=rng.uniform(-3, 3), omega=rng.uniform(0.2, 3),
                          r=rng.uniform(-2, 2), gamma=rng.uniform(-2, 2))
        j = jacobian(s, theta, q)
        worst = max(worst, abs(j[0, 0] + j[1, 1] - 2.0 * q.gamma * s))
    assert worst < 1e-12
    for _ in range(100):
        q = ReducedParams(c=rng.uniform(-3, 3), omega=rng.uniform(0.2, 3),
                          r=rng.uniform(-2, 2), gamma=0.0)
        for p in interior_fixed_points(q):
            assert p.kind not in ATTRACTOR_KINDS + REPELLER_KINDS
    report(3, "trace(J) = 2*gamma*S to 1e-12 at 1000 random points; no "
              "attractor/repeller at gamma = 0")


def test_criterion_04_sudden_transition():
    for gamma in (1e-3, -1e-3, 1e-2, 0.1):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=gamma)
        for p in interior_fixed_points(q):
            max_re = max(ev.real for ev in p.eigenvalues)
            assert max_re != 0.0
            assert math.copysign(1.0, max_re) == math.copysign(1.0, gamma)
    report(4, "fixed point destabilizes for every nonzero gamma down to "
              "|gamma| = 1e-3, with sign(max Re eig) = sign(gamma)")


def test_criterion_05_conservation_and_cross_representation():
    cfg = IntegratorConfig(t_final=100.0)  # default tolerances
    for (s0, th0, u, r) in ((0.9, math.pi, 0.0, 0.0), (0.5, 2.0, 1.2, 0.4)):
        p = Params(v=1.0, u=u, r=r)
        x0 = amplitudes_from_canonical(CanonicalState(s0, th0, 1.0))
        tr = evolve(x0, p, cfg)
        assert np.abs(tr.n - tr.n[0]).max() < 1e-8
        assert np.abs(tr.energy - tr.energy[0]).max() < 1e-8
    # the two flows on one fixed-step grid, so that they share times
    p = Params(v=1.0, u=1.2, r=0.4)
    q = p.reduced(1.0)
    amp = rk4_trajectory(
        amplitudes_from_canonical(CanonicalState(0.5, 2.2, 1.0)), p, 20.0,
        1e-3)
    times, red = rk4_solve(
        lambda t, y: reduced_deriv(y[0], y[1], q.c, q.omega, q.r, q.gamma),
        (0.5, 2.2), 20.0, 1e-3)
    assert np.array_equal(amp.times, times)
    assert np.abs(amp.s - red[:, 0]).max() < 1e-6
    assert np.max(angle_distance(amp.theta, red[:, 1])) < 1e-6
    report(5, "n and E conserved to 1e-8 over t in [0, 100] at default "
              "tolerances; amplitude vs reduced agree to 1e-6 over [0, 20]")


def test_criterion_06_census_anchors():
    expected = {(0.0, 1.0): 1, (2.0, 0.0): 3, (0.0, 0.0): 2, (0.0, -1.0): 1}
    for (c, r), n in expected.items():
        pts = interior_fixed_points(ReducedParams(c=c, omega=1.0, r=r,
                                                  gamma=0.0))
        assert len(pts) == n, f"census at (C={c}, R={r})"
    kinds = sorted(p.kind for p in interior_fixed_points(
        ReducedParams(c=2.0, omega=1.0, r=0.0, gamma=0.0)))
    assert kinds == [KIND_CENTER, KIND_CENTER, KIND_SADDLE]
    report(6, "fixed-point census 1/3/2/1 at the four anchor parameters; "
              "kinds {center, saddle, center} at (C, R) = (2, 0)")


def test_criterion_07_root_finder_oracle_equivalence():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        q = ReducedParams(c=rng.uniform(-3, 3), omega=rng.uniform(0.2, 3),
                          r=rng.uniform(-2, 2), gamma=rng.uniform(-2.5, 2.5))
        cc = cubic_coefficients(q)
        bracketed = real_cubic_roots(cc)
        oracle = bisect_roots(cc.evaluate, lo=-1.25, hi=1.25, n_grid=801)
        for s_ref in oracle:
            assert min(abs(s_ref - s) for s, _ in bracketed) < 1e-8
        deriv_scale = max(abs(3 * cc.c3), abs(2 * cc.c2), abs(cc.c1), 1e-30)
        for s, _ in bracketed:
            if not -1.25 < s < 1.25:
                continue
            if abs(cubic_derivative(cc, s)) < 1e-3 * deriv_scale:
                continue  # near-degenerate root: sign-change oracle blind
            assert min(abs(s_ref - s) for s_ref in oracle) < 1e-8
    rng2 = np.random.default_rng(109)
    for _ in range(300):
        q = ReducedParams(c=rng2.uniform(-3, 3), omega=rng2.uniform(0.2, 3),
                          r=rng2.uniform(-2, 2), gamma=rng2.uniform(-2.5, 2.5))
        for p in interior_fixed_points(q):
            assert residual(p.s, p.theta, q) < 1e-9
    for q in (ReducedParams(c=0.0, omega=1.0, r=1.0, gamma=0.0),
              ReducedParams(c=2.0, omega=1.0, r=0.0, gamma=0.0),
              ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0),
              ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.9),
              ReducedParams(c=0.0, omega=1.0, r=-1.0, gamma=0.0)):
        reported = all_fixed_points(q)
        for s_f, t_f in newton_survey(q, n_s=400, n_theta=400):
            d = min(math.hypot(s_f - p.s,
                               float(angle_distance(t_f, p.theta)))
                    for p in reported)
            assert d < 1e-3
    report(7, "bracketed Newton roots match bisection to 1e-8 on 1000 "
              "draws; residuals < 1e-9; 400x400 grid scan finds no "
              "unreported fixed point")


def test_criterion_08_regime_three_shrinkage():
    window = dict(c_range=(0.0, 3.0), r_range=(-2.0, 2.0))
    counts = []
    for gamma in (0.0, 0.6, 1.2, 2.4):
        rmap = scan_plane(resolution=(121, 161), omega=1.0, gamma=gamma,
                          **window)
        counts.append(rmap.count("III"))
    assert counts[0] > counts[1] > counts[2] > counts[3] == 0

    def r_intercept(gamma):
        lo, hi = 0.0, 1.2
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lab = classify_regime(ReducedParams(c=0.0, omega=1.0, r=-mid,
                                                gamma=gamma)).label
            if lab == "III":
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intercepts = [r_intercept(g) for g in (0.0, 0.6, 1.2)]
    assert intercepts[0] > intercepts[1] > intercepts[2]
    assert abs(intercepts[0] - 1.0 / math.sqrt(2.0)) < 1e-6
    report(8, "regime III area strictly shrinks across gamma in "
              "{0, 0.6, 1.2, 2.4}; its R-intercept at C = 0 decreases")


def test_criterion_09_conversion_efficiency_ordering():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-10)
    for beta in (0.1, 0.2, 0.5, 1.0):
        protocol = SweepProtocol(beta=beta)
        reports = {g: sweep_conversion(protocol,
                                       params_from_gamma(gamma_minus=g), cfg)
                   for g in (0.5, 0.0, -0.5)}
        assert reports[0.5].w > reports[0.0].w > reports[-0.5].w
        assert reports[0.5].m > 0.0
        assert reports[0.0].m == 0.0
        assert reports[-0.5].m < 0.0
    report(9, "W(+0.5) > W(0) > W(-0.5) at every sweeping rate in "
              "{0.1, 0.2, 0.5, 1.0}; M carries the sign of gamma")


def test_criterion_10_self_trapping_flip():
    runs = {g: self_trapping_run(u=1.5, v=1.0, r=0.0, gamma_minus=g,
                                 a0_sq=0.9, t_span=20.0)
            for g in (-0.5, 0.5)}
    assert runs[-0.5].trapped is True
    assert runs[0.5].trapped is False
    amps = {g: oscillation_amplitude(
        self_trapping_run(u=0.0, v=1.0, r=0.0, gamma_minus=g, a0_sq=0.9,
                          t_span=10.0).p_atom)
        for g in (0.0, 0.5, -0.5)}
    assert amps[0.5] > amps[0.0]
    assert amps[-0.5] < amps[0.0]
    report(10, "self-trapping kept at gamma = -0.5 and ruined at +0.5; "
               "oscillation amplitude ordered by the loss sign at U = 0")


def test_criterion_11_jacobian_vs_finite_differences():
    rng = np.random.default_rng(111)
    h = 1e-6
    for _ in range(100):
        s = rng.uniform(-0.95, 0.95)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        q = ReducedParams(c=rng.uniform(-3, 3), omega=rng.uniform(0.2, 3),
                          r=rng.uniform(-2, 2), gamma=rng.uniform(-2, 2))
        j = jacobian(s, theta, q)
        fd = np.empty((2, 2))
        for col, (ds, dth) in enumerate(((h, 0.0), (0.0, h))):
            f_p = reduced_deriv(s + ds, theta + dth, q.c, q.omega, q.r, q.gamma)
            f_m = reduced_deriv(s - ds, theta - dth, q.c, q.omega, q.r, q.gamma)
            fd[0, col] = (f_p[0] - f_m[0]) / (2.0 * h)
            fd[1, col] = (f_p[1] - f_m[1]) / (2.0 * h)
        assert np.max(np.abs(j - fd) / np.maximum(np.abs(j), 1.0)) < 1e-5
    report(11, "analytic Jacobian matches central differences to 1e-5 "
               "relative at 100 random points")


def test_criterion_12_manifest_reproducibility(tmp_path):
    quick = {
        "evolve": ["evolve", "--t-final", "2", "--u", "1.5",
                   "--a0-sq", "0.7"],
        "fixed-points": ["fixed-points", "--c", "2", "--omega", "1",
                         "--gamma", "0.4"],
        "regimes": ["regimes", "--window", "0,1.5,-1,1",
                    "--resolution", "9,11"],
        "sweep": ["sweep", "--beta", "1.0", "--gamma", "0.5",
                  "--r-max", "2", "--rtol", "1e-9", "--atol", "1e-9"],
        "trap": ["trap", "--u", "1.5", "--gamma=-0.5", "--t-span", "5",
                 "--rtol", "1e-9", "--atol", "1e-9"],
        "portrait": ["portrait", "--n-s", "2", "--n-theta", "2",
                     "--t-span", "2", "--rtol", "1e-8", "--atol", "1e-8"],
    }
    for command, argv in quick.items():
        first = tmp_path / command / "first"
        second = tmp_path / command / "second"
        assert cli_main(argv + ["--output", str(first)]) == 0
        assert cli_main([command, "--from-manifest",
                         str(first / "manifest.json"),
                         "--output", str(second)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        for name in manifest["outputs"]:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                f"{command}/{name} not byte-identical"
    report(12, "all six commands rerun byte-identically from their "
               "manifests")
