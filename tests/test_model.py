"""Core model: representations, right-hand sides, algebraic identities."""

import cmath
import math

import numpy as np
import pytest

from atomol.model import (
    Amplitudes,
    BareParams,
    CanonicalState,
    Params,
    PoleError,
    ReducedParams,
    amplitudes_from_canonical,
    derived_quantities,
    effective_energy,
    gp_deriv,
    reduce_bare_params,
    reduced_deriv,
    unit_norm_deriv,
    wrap_angle,
)

from oracles import params_from_gamma


def random_amplitudes(rng, allow_zero=False):
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    return Amplitudes(a=a, b=b)


class TestReduceBareParams:
    def test_zero(self):
        assert reduce_bare_params(BareParams()) == (0.0, 0.0)

    def test_mode_energies_cancel(self):
        # 2*mu_a - mu_b = 0 and no collisions
        assert reduce_bare_params(BareParams(mu_a=1.0, mu_b=2.0)) == (0.0, 0.0)

    def test_atom_atom_collision_only(self):
        assert reduce_bare_params(BareParams(u_aa=2.0)) == (1.0, -1.0)


def derived(*xs, v=1.0, u=0.0, r=0.0):
    """derived_quantities on amplitude rows, one row per Amplitudes."""
    states = np.array([[x.a, x.b] for x in xs], dtype=complex)
    return derived_quantities(states, v, u, r)


class TestCanonicalMap:
    def test_pure_atomic(self):
        d = derived(Amplitudes(1.0 + 0j, 0j))
        assert d["s"][0] == 1.0 and d["n"][0] == 1.0
        assert d["theta"][0] == 0.0

    def test_pure_molecular(self):
        d = derived(Amplitudes(0j, 1.0 / math.sqrt(2) + 0j))
        assert d["s"][0] == pytest.approx(-1.0, abs=1e-15)
        assert d["n"][0] == pytest.approx(1.0, abs=1e-15)
        assert d["theta"][0] == 0.0

    def test_one_third_imbalance(self):
        # |a|^2 = 2/3, 2|b|^2 = 1/3: n = 1, S = 1/3, real phases
        d = derived(
            Amplitudes(math.sqrt(2.0 / 3.0) + 0j, math.sqrt(1.0 / 6.0) + 0j))
        assert d["n"][0] == pytest.approx(1.0, abs=1e-15)
        assert d["s"][0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d["p_atom"][0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert d["theta"][0] == 0.0

    def test_empty_state_degenerate(self):
        d = derived(Amplitudes(0j, 0j))
        assert (d["s"][0], d["theta"][0], d["n"][0]) == (0.0, 0.0, 0.0)
        assert d["p_atom"][0] == 0.0

    def test_theta_convention(self):
        a = 0.8 * cmath.exp(0.7j)
        b = 0.3 * cmath.exp(-1.1j)
        d = derived(Amplitudes(a, b))
        assert d["theta"][0] == pytest.approx(wrap_angle(2 * 0.7 + 1.1),
                                              abs=1e-12)

    def test_inverse_trivial_poles(self):
        x = amplitudes_from_canonical(CanonicalState(1.0, 0.0, 1.0))
        assert x.a == pytest.approx(1.0) and x.b == 0.0
        x = amplitudes_from_canonical(CanonicalState(-1.0, 0.0, 1.0))
        assert x.a == 0.0 and x.b == pytest.approx(1.0 / math.sqrt(2))

    def test_round_trip_gauge_consistency(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            s = rng.uniform(-0.999, 0.999)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            n = rng.uniform(0.05, 3.0)
            theta_a = rng.uniform(-10.0, 10.0)
            c0 = CanonicalState(s=s, theta=theta, n=n)
            d = derived(amplitudes_from_canonical(c0, theta_a=theta_a))
            assert d["s"][0] == pytest.approx(s, abs=1e-12)
            assert d["n"][0] == pytest.approx(n, abs=1e-12)
            dth = abs(d["theta"][0] - c0.theta)
            assert min(dth, 2.0 * math.pi - dth) < 1e-12

    def test_state_validation(self):
        with pytest.raises(ValueError):
            CanonicalState(1.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            CanonicalState(0.0, 0.0, -1.0)
        for theta, n in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan),
                         (0.0, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                CanonicalState(0.0, theta, n)


class TestBlochVector:
    def test_north_pole(self):
        d = derived(Amplitudes(1.0 + 0j, 0j))
        assert (d["hx"][0], d["hy"][0], d["hz"][0]) == (0.0, 0.0, 1.0)

    def test_south_pole(self):
        d = derived(Amplitudes(0j, 1.0 / math.sqrt(2) + 0j))
        assert d["hx"][0] == 0.0 and d["hy"][0] == 0.0
        assert d["hz"][0] == pytest.approx(-1.0, abs=1e-15)

    def test_intermediate_point(self):
        d = derived(Amplitudes(math.sqrt(2.0 / 3.0) + 0j,
                               math.sqrt(1.0 / 6.0) + 0j))
        assert d["hx"][0] == pytest.approx(4.0 / (3.0 * math.sqrt(3.0)),
                                           abs=1e-14)
        assert d["hy"][0] == 0.0
        assert d["hz"][0] == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_surface_constraint(self):
        # tear-drop surface: hx^2 + hy^2 = (n + hz)^2 (n - hz) / 2
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_amplitudes(rng)
            d = derived(x)
            n, hz = d["n"][0], d["hz"][0]
            defect = d["hx"][0] ** 2 + d["hy"][0] ** 2 \
                - 0.5 * (n + hz) ** 2 * (n - hz)
            assert abs(defect) < 1e-12 * max(1.0, n ** 3)


class TestGpRhs:
    def test_pure_atoms_convert(self):
        da, db = gp_deriv(1.0 + 0j, 0j, v=1.0, u=0.0, r=0.0, gamma_a=0.0,
                          gamma_b=0.0)
        assert da == 0.0
        assert db == pytest.approx(-1j, abs=1e-15)

    def test_pure_decay_channel(self):
        da, db = gp_deriv(1.0 + 0j, 0j, v=0.0, u=0.0, r=0.0, gamma_a=1.0,
                          gamma_b=0.0)
        assert da == pytest.approx(-0.5, abs=1e-15)
        assert db == 0.0

    def test_phase_only_evolution_conserves_populations(self):
        # V = 0, no loss: |a|^2 and |b|^2 are individually stationary
        rng = np.random.default_rng(3)
        p = Params(v=0.0, u=1.3, r=-0.7)
        for _ in range(50):
            x = random_amplitudes(rng)
            da, db = gp_deriv(x.a, x.b, p.v, p.u, p.r, p.gamma_a,
                              p.gamma_b)
            assert abs((x.a.conjugate() * da).real) < 1e-13
            assert abs((x.b.conjugate() * db).real) < 1e-13

    def test_norm_law_identity(self):
        # d/dt (|a|^2 + 2|b|^2) = -(G+ + G- S) n pointwise
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = random_amplitudes(rng)
            p = Params(v=rng.uniform(0.1, 2.0), u=rng.normal(), r=rng.normal(),
                       gamma_a=rng.normal(), gamma_b=rng.normal())
            da, db = gp_deriv(x.a, x.b, p.v, p.u, p.r, p.gamma_a,
                              p.gamma_b)
            dn = 2.0 * (x.a.conjugate() * da).real + 4.0 * (x.b.conjugate() * db).real
            pa, pb = abs(x.a) ** 2, abs(x.b) ** 2
            n = pa + 2.0 * pb
            s = (pa - 2.0 * pb) / n
            expected = -(p.gamma_plus + p.gamma_minus * s) * n
            assert dn == pytest.approx(expected, abs=1e-12 * max(1.0, abs(expected)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Params(v=-1.0)
        with pytest.raises(ValueError):
            Params(v=1.0, u=math.inf)

    def test_gamma_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            gp, gm = rng.normal(), rng.normal()
            p = params_from_gamma(gamma_plus=gp, gamma_minus=gm)
            assert p.gamma_plus == pytest.approx(gp, abs=1e-15)
            assert p.gamma_minus == pytest.approx(gm, abs=1e-15)
            q = Params(gamma_a=p.gamma_a, gamma_b=p.gamma_b)
            assert (q.gamma_a, q.gamma_b) == (p.gamma_a, p.gamma_b)


class TestReducedParams:
    FIELDS = ("c", "omega", "r", "gamma")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", range(4))
    def test_the_first_non_finite_field_is_named(self, bad, first):
        # this field and each later one bad, or this one alone
        for later in (True, False):
            values = {name: bad if k == first or (later and k > first) else 0.5
                      for k, name in enumerate(self.FIELDS)}
            with pytest.raises(ValueError) as err:
                ReducedParams(**values)
            assert str(err.value) == f"{self.FIELDS[first]} must be finite"

    @pytest.mark.parametrize("omega", [-0.5, -1e-300, -1e300])
    def test_negative_omega_keeps_its_message(self, omega):
        with pytest.raises(ValueError) as err:
            ReducedParams(omega=omega)
        assert str(err.value) == f"omega must be >= 0, got {omega}"

    def test_a_non_finite_field_is_named_before_a_negative_omega(self):
        with pytest.raises(ValueError) as err:
            ReducedParams(omega=-1.0, gamma=math.inf)
        assert str(err.value) == "gamma must be finite"

    def test_finite_fields_are_kept(self):
        q = ReducedParams(c=-1e300, omega=0, r=1e-300, gamma=-0.0)
        assert (q.c, q.omega, q.r, q.gamma) == (-1e300, 0, 1e-300, -0.0)


class TestReducedRhs:
    def test_stationary_point(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        ds, dt = reduced_deriv(1.0 / 3.0, math.pi, q.c, q.omega, q.r, q.gamma)
        assert abs(ds) < 1e-15 and abs(dt) < 1e-15

    def test_direct_substitution_origin(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        ds, dt = reduced_deriv(0.0, 0.0, q.c, q.omega, q.r, q.gamma)
        assert ds == 0.0 and dt == pytest.approx(-1.0, abs=1e-15)

    def test_direct_substitution_losses(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.5)
        ds, dt = reduced_deriv(0.0, math.pi / 2.0, q.c, q.omega, q.r, q.gamma)
        assert ds == pytest.approx(-2.5, abs=1e-15)
        assert dt == pytest.approx(0.0, abs=1e-15)

    def test_pole_guard(self):
        q = ReducedParams()
        with pytest.raises(PoleError):
            reduced_deriv(1.0, 0.0, q.c, q.omega, q.r, q.gamma)
        with pytest.raises(PoleError):
            reduced_deriv(1.0 - 1e-13, 0.0, q.c, q.omega, q.r, q.gamma)
        # inside the guard: fine
        reduced_deriv(1.0 - 1e-3, 0.0, q.c, q.omega, q.r, q.gamma)

    def test_boundary_invariance(self):
        # dS/dt = 0 on S = -1 for any theta and gamma
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = ReducedParams(c=rng.normal(), omega=rng.uniform(0.1, 3.0),
                              r=rng.normal(), gamma=rng.normal())
            ds, _ = reduced_deriv(-1.0, rng.uniform(0, 2 * math.pi), q.c,
                                  q.omega, q.r, q.gamma)
            assert ds == 0.0


class TestFloatingNReduction:
    def test_gp_deriv_follows_the_reduced_flow_at_floating_n(self):
        # (dS/dt, dtheta/dt) read off the amplitude RHS at any n equal
        # the reduced flow at C = U n, Omega = V sqrt(n)
        rng = np.random.default_rng(31)
        for _ in range(2000):
            p = Params(v=rng.uniform(0.1, 2.0), u=rng.normal(), r=rng.normal(),
                       gamma_a=rng.normal(), gamma_b=rng.normal())
            s, theta = rng.uniform(-0.99, 0.99), rng.uniform(0, 2 * math.pi)
            n = rng.uniform(0.05, 3.0)
            x = amplitudes_from_canonical(CanonicalState(s, theta, n),
                                          theta_a=rng.uniform(0, 2 * math.pi))
            da, db = gp_deriv(x.a, x.b, p.v, p.u, p.r, p.gamma_a, p.gamma_b)
            dpa = 2.0 * (x.a.conjugate() * da).real
            dpb = 4.0 * (x.b.conjugate() * db).real
            ds = ((dpa - dpb) - s * (dpa + dpb)) / n
            dth = 2.0 * (da / x.a).imag - (db / x.b).imag
            q = p.reduced(n)
            for got, ref in zip((ds, dth), reduced_deriv(s, theta, q.c, q.omega,
                                                         q.r, q.gamma)):
                assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


class TestEffectiveEnergy:
    def test_top_boundary(self):
        q = ReducedParams(c=0.7, omega=1.0, r=-0.3, gamma=0.0)
        for theta in (0.0, 1.0, math.pi):
            assert effective_energy(1.0, theta, q) == pytest.approx(
                -2.0 * q.c + 4.0 * q.r, abs=1e-15)

    def test_direct_value(self):
        q = ReducedParams(c=0.0, omega=1.0, r=0.0, gamma=0.0)
        assert effective_energy(0.0, 0.0, q) == pytest.approx(2.0, abs=1e-15)


class TestUnitNormFlow:
    def test_norm_preserved_pointwise(self):
        # the time derivative of |a|^2 + 2|b|^2 vanishes identically
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = random_amplitudes(rng)
            da, db = unit_norm_deriv(x.a, x.b, rng.normal(), rng.uniform(0.1, 2),
                                     rng.normal(), rng.normal())
            dn = 2.0 * (x.a.conjugate() * da).real + 4.0 * (x.b.conjugate() * db).real
            # counterterm is built for n = 1; scale-invariant check there
            n = abs(x.a) ** 2 + 2.0 * abs(x.b) ** 2
            xa, xb = x.a / math.sqrt(n), x.b / math.sqrt(n)
            da, db = unit_norm_deriv(xa, xb, 1.1, 0.9, -0.4, 0.8)
            dn = 2.0 * (xa.conjugate() * da).real + 4.0 * (xb.conjugate() * db).real
            assert abs(dn) < 1e-14

    def test_reproduces_reduced_flow(self):
        # (S, theta) derivatives of the lifted flow match the reduced one
        rng = np.random.default_rng(19)
        for _ in range(100):
            s = rng.uniform(-0.98, 0.98)
            theta = rng.uniform(0, 2 * math.pi)
            q = ReducedParams(c=rng.normal(), omega=rng.uniform(0.1, 2.0),
                              r=rng.normal(), gamma=rng.normal())
            x = amplitudes_from_canonical(CanonicalState(s, theta, 1.0),
                                          theta_a=rng.uniform(0, 6))
            da, db = unit_norm_deriv(x.a, x.b, q.c, q.omega, q.r, q.gamma)
            # dS/dt from amplitudes: S = |a|^2 - 2|b|^2 at unit norm
            ds = 2.0 * (x.a.conjugate() * da).real - 4.0 * (x.b.conjugate() * db).real
            # dtheta/dt = 2 d(arg a)/dt - d(arg b)/dt
            dth = (2.0 * (da / x.a).imag - (db / x.b).imag)
            ds_ref, dth_ref = reduced_deriv(s, theta, q.c, q.omega, q.r,
                                            q.gamma)
            assert ds == pytest.approx(ds_ref, abs=1e-11)
            assert dth == pytest.approx(dth_ref, abs=1e-11)
