import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnmkit.spacetime import (SpacetimeParams, PolarSingularity, THETA_AXIS_TOL,
                              mu_tilde, horizon_roots, domain)
from qnmkit.symbols import (
    PhasePoint, CompactPhasePoint,
    kds_classical_symbol,
    kds_angular_part, hamilton_kernel,
    ds_symbol_polar, ds_reduced_compact_field,
)

KDS = SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter")
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")


def rand_points(params, rng, k, xi_min=0.0):
    r_lo, r_hi = domain(params)
    pts = []
    while len(pts) < k:
        r = rng.uniform(r_lo * 1.01, r_hi * 0.99)
        theta = rng.uniform(0.2, math.pi - 0.2)
        xi, eta, zeta = rng.uniform(-2, 2, size=3)
        if abs(xi) <= xi_min:
            continue
        pts.append(PhasePoint(r, theta, rng.uniform(0, 2 * math.pi), xi, eta, zeta))
    return pts


def affine_field(params, pt, horizon_sign=+1):
    """d/ds of (r, theta, phi, xi, eta, zeta) at a PhasePoint."""
    return np.array(hamilton_kernel(params, horizon_sign)(
        [pt.r, pt.theta, pt.phi, pt.xi, pt.eta, pt.zeta]))


def compact_field(params, cpt, horizon_sign=+1):
    """The rescaled field nu H_p, d/ds of (r, theta, phi, nu, eta_hat,
    zeta_hat), at a CompactPhasePoint."""
    return np.array(hamilton_kernel(params, horizon_sign, cpt.sign_xi)(
        [*cpt.base, cpt.nu, cpt.eta_hat, cpt.zeta_hat]))


class TestPhasePoints:
    @pytest.mark.parametrize("theta", [0.0, 0.5 * THETA_AXIS_TOL,
                                       math.pi - 0.5 * THETA_AXIS_TOL])
    def test_point_on_the_axis_refused(self, theta):
        with pytest.raises(PolarSingularity):
            PhasePoint(0.8, theta, 0.0, 0.3, 0.1, 0.2)

    def test_zero_xi_has_no_compact_image(self):
        with pytest.raises(ValueError, match="xi = 0"):
            PhasePoint(0.8, 1.1, 0.0, 0.0, 0.1, 0.2).compactify()

    @pytest.mark.parametrize("nu, sign_xi, message", [
        (-1e-3, 1, "nu must be"), (0.5, 0, "sign_xi"), (0.5, 2, "sign_xi")],
        ids=["negative-nu", "sign-0", "sign-2"])
    def test_compact_point_refusals(self, nu, sign_xi, message):
        with pytest.raises(ValueError, match=message):
            CompactPhasePoint((0.8, 1.1, 0.0), nu, 0.2, -0.3, sign_xi)

    def test_fiber_infinity_has_no_affine_image(self):
        with pytest.raises(ValueError, match="fiber infinity"):
            CompactPhasePoint((0.8, 1.1, 0.0), 0.0, 0.2, -0.3, 1).affine()


class TestClassicalSymbol:
    def test_alpha_zero_radial_point(self):
        p = kds_classical_symbol(DSS, [1.2, math.pi / 2, 0.0, 1.0, 0.0, 0.0])
        assert p == pytest.approx(-mu_tilde(DSS, 1.2)[0], rel=1e-15)

    def test_zero_section(self):
        assert kds_classical_symbol(KDS, [0.8, 1.0, 0.3, 0.0, 0.0, 0.0]) == 0.0

    @given(st.floats(0.3, 1.0), st.floats(0.3, 2.8), st.floats(-2, 2),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_reflection_symmetry(self, r, theta, xi, eta, zeta):
        a = kds_classical_symbol(KDS, [r, theta, 0, xi, eta, zeta])
        b = kds_classical_symbol(KDS, [r, math.pi - theta, 0, xi, -eta, zeta])
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def fd_gradient(f, x, scale=1e-6):
    """Richardson-extrapolated central differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        h = scale * max(1.0, abs(x[i]))
        def d(hh):
            xp, xm = x.copy(), x.copy()
            xp[i] += hh
            xm[i] -= hh
            return (f(xp) - f(xm)) / (2 * hh)
        g[i] = (4.0 * d(h) - d(2 * h)) / 3.0
    return g


class TestHamiltonField:
    def test_annihilates_symbol(self):
        rng = np.random.default_rng(4)
        for pt in rand_points(KDS, rng, 100):
            H = affine_field(KDS, pt)
            x = np.array([pt.r, pt.theta, pt.phi, pt.xi, pt.eta, pt.zeta])
            f = lambda y: kds_classical_symbol(KDS, y)
            dp = fd_gradient(f, x)
            drift = abs(dp @ H)
            scale = max(1.0, np.linalg.norm(dp) * np.linalg.norm(H))
            assert drift / scale < 1e-8

    def test_fd_matches_analytic_gradient(self):
        rng = np.random.default_rng(5)
        for pt in rand_points(KDS, rng, 25):
            x = np.array([pt.r, pt.theta, pt.phi, pt.xi, pt.eta, pt.zeta])
            f = lambda y: kds_classical_symbol(KDS, y)
            dp = fd_gradient(f, x)
            h = affine_field(KDS, pt)
            g = np.array([-h[3], -h[4], -h[5], h[0], h[1], h[2]])
            np.testing.assert_allclose(g, dp, rtol=1e-6, atol=1e-6)

    def test_conserved_quantities_exact(self):
        # H_p zeta = 0 holds structurally (no phi dependence); H_p ptil = 0
        rng = np.random.default_rng(6)
        for pt in rand_points(KDS, rng, 20):
            H = affine_field(KDS, pt)
            assert H[5] == 0.0
            x = np.array([pt.r, pt.theta, pt.phi, pt.xi, pt.eta, pt.zeta])
            f = lambda y: kds_angular_part(KDS, y)
            dptil = fd_gradient(f, x)
            scale = max(1.0, np.linalg.norm(dptil) * np.linalg.norm(H))
            assert abs(dptil @ H) / scale < 1e-8

    def test_radial_set_rate(self):
        hd = horizon_roots(KDS)
        for sign, rh, gam in ((+1, hd.r_plus, hd.gamma_plus),
                              (-1, hd.r_minus, hd.gamma_minus)):
            for sxi in (+1, -1):
                cpt = CompactPhasePoint((rh, math.pi / 2, 0.0), 0.0, 0.0, 0.0, sxi)
                H = compact_field(KDS, cpt, sign)
                # nu-component of the rescaled field vanishes linearly in nu with
                # coefficient -sgn(xi) mu~'(r_h) = +-(sgn xi) Gamma_+-
                eps = 1e-7
                cpt2 = CompactPhasePoint((rh, math.pi / 2, 0.0), eps, 0.0, 0.0, sxi)
                H2 = compact_field(KDS, cpt2, sign)
                rate = (H2[3] - H[3]) / eps
                expect = -sxi * mu_tilde(KDS, rh)[1]
                assert rate == pytest.approx(expect, rel=1e-6)
                assert abs(expect) == pytest.approx(gam, rel=1e-12)

    def test_compact_chart_matches_pushforward(self):
        rng = np.random.default_rng(7)
        for pt in rand_points(KDS, rng, 20, xi_min=0.5):
            cpt = pt.compactify()
            Hc = compact_field(KDS, cpt)
            Ha = affine_field(KDS, pt)
            nu = cpt.nu
            s = cpt.sign_xi
            # pushforward: nu' = -s xi'/xi^2, etahat' = eta'/|xi| - eta s xi'/xi^2
            dnu = -s * Ha[3] / pt.xi ** 2
            deta = Ha[4] / abs(pt.xi) - pt.eta * s * Ha[3] / pt.xi ** 2
            dzeta = Ha[5] / abs(pt.xi) - pt.zeta * s * Ha[3] / pt.xi ** 2
            push = np.array([Ha[0], Ha[1], Ha[2], dnu, deta, dzeta]) * nu
            np.testing.assert_allclose(Hc, push, rtol=1e-8, atol=1e-10)


def closed_form_field(params, s, r, theta, xi, eta, zeta):
    """Terms of each component of H_p, from the displayed symbol

    p = -mu~ xi^2 + 2 s (1+gamma) alpha xi zeta - kappa eta^2
        - (1+gamma)^2 zeta^2 / (kappa sin^2 theta)

    with mu~ = (r^2+alpha^2)(1 - lam r^2/3) - r_s r expanded in monomials and
    kappa = 1 + gamma cos^2 theta.  No term cancels inside itself, so the sum
    of their absolute values is the scale that rounding is measured against.
    """
    lam, r_s, a = params.lam, params.r_s, params.alpha
    g = lam * a * a / 3.0
    mu = [r * r, a * a, -lam * r ** 4 / 3.0, -lam * a * a * r * r / 3.0, -r_s * r]
    dmu = [2.0 * r, -4.0 * lam * r ** 3 / 3.0, -2.0 * lam * a * a * r / 3.0, -r_s]
    kappa = 1.0 + g * math.cos(theta) ** 2
    dkappa = -g * math.sin(2.0 * theta)
    w = kappa * math.sin(theta) ** 2
    dw = math.sin(2.0 * theta) * (1.0 + g * math.cos(2.0 * theta))
    c = (1.0 + g) ** 2
    return [[-2.0 * m * xi for m in mu] + [2.0 * s * (1.0 + g) * a * zeta],
            [-2.0 * kappa * eta],
            [2.0 * s * (1.0 + g) * a * xi, -2.0 * c * zeta / w],
            [d * xi * xi for d in dmu],
            [dkappa * eta * eta, -c * zeta * zeta * dw / (w * w)],
            [0.0]]


def closed_form_compact_field(params, s, r, theta, nu, eta_hat, zeta_hat, sxi):
    """Terms of nu H_p in (r, theta, phi, nu, eta_hat, zeta_hat).

    p is homogeneous of degree 2 in the fiber, so this is H_p at the scaled
    point (xi, eta, zeta) = (sxi, eta_hat, zeta_hat), with nu' = -sxi xi'/xi^2
    and q_hat' = q'/|xi| - q sxi xi'/xi^2, all times nu.
    """
    h = closed_form_field(params, s, r, theta, sxi, eta_hat, zeta_hat)
    return [h[0], h[1], h[2],
            [-nu * sxi * t for t in h[3]],
            h[4] + [-eta_hat * sxi * t for t in h[3]],
            [-zeta_hat * sxi * t for t in h[3]]]


def assert_within_ulps(got, terms, ulps):
    # the kernel stays within 3.7 ulp of the term scale over 1e5 random points
    for g, ts in zip(got, terms):
        assert abs(g - math.fsum(ts)) <= ulps * np.finfo(float).eps \
            * math.fsum(abs(t) for t in ts)


# Fiber coordinates below 1e-100 in size are drawn as 0: their squares would
# leave the normal range, where rounding is absolute rather than relative.
FIBER = st.floats(-3, 3).map(lambda v: v if abs(v) > 1e-100 else 0.0)


class TestHamiltonClosedForm:
    @given(st.sampled_from([KDS, DSS]), st.sampled_from([+1, -1]),
           st.floats(0.05, 1.5), st.floats(1e-3, math.pi - 1e-3),
           FIBER, FIBER, FIBER)
    @settings(max_examples=300, deadline=None)
    def test_affine_chart(self, params, s, r, theta, xi, eta, zeta):
        H = hamilton_kernel(params, s)([r, theta, 0.3, xi, eta, zeta])
        assert_within_ulps(H, closed_form_field(params, s, r, theta, xi, eta,
                                                zeta), 8)

    @given(st.sampled_from([KDS, DSS]), st.sampled_from([+1, -1]),
           st.sampled_from([+1, -1]), st.floats(0.05, 1.5),
           st.floats(1e-3, math.pi - 1e-3), FIBER.map(abs), FIBER, FIBER)
    @settings(max_examples=300, deadline=None)
    def test_compact_chart(self, params, s, sxi, r, theta, nu, eta_hat, zeta_hat):
        H = hamilton_kernel(params, s, sxi)([r, theta, 0.3, nu, eta_hat,
                                             zeta_hat])
        assert_within_ulps(H,
                           closed_form_compact_field(params, s, r, theta, nu,
                                                     eta_hat, zeta_hat, sxi), 8)

    @pytest.mark.parametrize("theta", [0.5 * THETA_AXIS_TOL,
                                       math.pi - 0.5 * THETA_AXIS_TOL])
    def test_axis_raises(self, theta):
        # the states are plain floats, so the kernel checks the axis itself
        for s, sign_xi in ((+1, 1), (-1, None), (-1, -1)):
            with pytest.raises(PolarSingularity):
                hamilton_kernel(KDS, s, sign_xi)([0.8, theta, 0.0, 0.3, 0.1, 0.2])

    @given(st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_mu_tilde_scalars_match_the_array_path(self, x):
        for params in (KDS, DSS):
            for r in (x, np.float64(x)):
                got, want = mu_tilde(params, r), mu_tilde(params, np.array(r))
                bits = [float(v).hex() for v in got + want]
                assert bits[:3] == bits[3:]


# Reference form of the static-patch symbol in the flat chart Y, which covers
# the origin; the polar chart of ds_symbol_polar must agree with it off r = 0.
def ds_symbol_flat(Y, zeta, sigma: complex = 0.0) -> complex:
    """(Y.zeta - sigma)^2 - |zeta|^2 in the chart covering the origin."""
    Y = np.asarray(Y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    yz = float(Y @ zeta)
    return (yz - sigma) ** 2 - float(zeta @ zeta)


def ds_flat_to_polar(Y, zeta):
    """Map a flat-chart covector to (mu, xi, |eta|^2)."""
    Y = np.asarray(Y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    r2 = float(Y @ Y)
    if r2 == 0.0:
        raise ValueError("origin is only valid in the Y chart")
    yz = float(Y @ zeta)
    xi = -yz / (2.0 * r2)
    zperp_sq = float(zeta @ zeta) - yz * yz / r2
    return 1.0 - r2, xi, r2 * zperp_sq


class TestDeSitterCharts:
    def test_flat_at_origin(self):
        z = np.array([0.3, -0.7, 0.2])
        assert ds_symbol_flat(np.zeros(3), z, 1.2) == pytest.approx(
            1.2 ** 2 - float(z @ z))

    def test_chart_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            Y = rng.uniform(-0.4, 0.4, size=3)
            Y *= 0.5 / max(np.linalg.norm(Y), 1e-3)
            zeta = rng.uniform(-2, 2, size=3)
            sigma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            mu, xi, eta_sq = ds_flat_to_polar(Y, zeta)
            a = ds_symbol_polar(mu, xi, eta_sq, sigma)
            b = ds_symbol_flat(Y, zeta, sigma)
            assert a == pytest.approx(b, rel=1e-10)

    def test_classical_subcase(self):
        Y = np.array([0.2, 0.1, -0.3])
        z = np.array([1.0, 0.5, 0.2])
        assert ds_symbol_flat(Y, z, 0.0) == pytest.approx(
            float(Y @ z) ** 2 - float(z @ z))

    def test_reduced_field_matches_polar_symbol(self):
        # nu H_p p = 0 for the compactified reduced (mu, nu, eta_hat) system:
        # the classical p (sigma = 0) at xi = sign_xi / nu, |eta| = eta_hat / nu
        # is conserved
        rng = np.random.default_rng(11)
        for _ in range(30):
            mu = rng.uniform(-0.3, 0.9)
            nu, eh = rng.uniform(0.3, 2), rng.uniform(0, 1.5)
            sxi = int(rng.choice([-1, 1]))
            d = np.array(ds_reduced_compact_field(mu, nu, eh, sxi))
            p = lambda y: ds_symbol_polar(y[0], sxi / y[1], (y[2] / y[1]) ** 2)
            eps = 1e-7
            y = np.array([mu, nu, eh])
            assert abs(p(y + eps * d) - p(y - eps * d)) / (2 * eps) \
                < 1e-5 * max(1.0, np.sum(d ** 2))

    def test_compact_reduced_rate(self):
        d = ds_reduced_compact_field(0.0, 1e-9, 0.0, +1)
        assert d[1] / 1e-9 == pytest.approx(-4.0, rel=1e-8)
        d = ds_reduced_compact_field(0.0, 1e-9, 0.0, -1)
        assert d[1] / 1e-9 == pytest.approx(4.0, rel=1e-8)
