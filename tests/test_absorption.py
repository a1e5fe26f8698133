import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnmkit.absorption import (
    AbsorbingSpec, BranchCut, chi0, smooth_step, f_z, p_hat,
    q_semiclassical, extend_p,
)
from qnmkit.spacetime import SpacetimeParams

SPEC = AbsorbingSpec()
KDS = SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter")


# Closed-form derivatives of the cutoffs, which the tests hold the pipeline's
# chi0 and chi against.
def dchi0(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0))
                       / np.where(s > 0, s, 1.0) ** 2, 0.0)
    return out if out.ndim else float(out)


def smooth_step_d(t):
    t = np.asarray(t, dtype=float)
    a, b = chi0(t), chi0(1.0 - t)
    da, db = dchi0(t), -dchi0(1.0 - t)
    den = (a + b) ** 2
    with np.errstate(invalid="ignore"):
        out = np.where(den > 0, (da * b - a * db) / np.where(den > 0, den, 1.0), 0.0)
    return out if out.ndim else float(out)


def dchi(spec, mu):
    """d/dmu of the absorption window spec.chi."""
    mu = np.asarray(mu, dtype=float)
    w1, w2 = spec.mu1p - spec.mu1, spec.mu0 - spec.mu0p
    up = smooth_step((mu - spec.mu1) / w1)
    dn = smooth_step((spec.mu0 - mu) / w2)
    dup = smooth_step_d((mu - spec.mu1) / w1) / w1
    ddn = -smooth_step_d((spec.mu0 - mu) / w2) / w2
    return spec.digamma_scale * (dup * dn + up * ddn)


class TestChi:
    @given(st.floats(1e-3, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_derivative_identity(self, s):
        # s^2 chi0'(s) = chi0(s) holds exactly in closed form
        assert s * s * dchi0(s) == pytest.approx(chi0(s), rel=1e-14)

    def test_partition_of_unity(self):
        mu = np.linspace(-0.7, 0.2, 400)
        np.testing.assert_allclose(SPEC.chi1(mu) + SPEC.chi2(mu), 1.0, atol=1e-12)

    def test_support_and_plateau(self):
        assert SPEC.chi(SPEC.mu1 - 0.01) == 0.0
        assert SPEC.chi(SPEC.mu0 + 0.01) == 0.0
        mid = np.linspace(SPEC.mu1p, SPEC.mu0p, 50)
        np.testing.assert_allclose(SPEC.chi(mid), SPEC.digamma_scale, rtol=1e-12)

    def test_chi_derivative_consistent(self):
        mu = np.linspace(-0.7, 0.0, 300)
        h = 1e-7
        fd = (SPEC.chi(mu + h) - SPEC.chi(mu - h)) / (2 * h)
        np.testing.assert_allclose(dchi(SPEC, mu), fd, atol=1e-5)



class TestFz:
    def test_real_limit(self):
        assert f_z(0.0, 2.0) == pytest.approx(math.sqrt(29.0))   # C = 5

    def test_positive_real_part_grid(self):
        xs = np.linspace(0, 4, 100)
        zs = [complex(a, b) for a in np.linspace(-2, 2, 10)
              for b in np.linspace(-1, 1, 10)]
        for z in zs:
            vals = f_z(xs, z)
            assert np.all(np.real(vals) > 0)

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCut):
            f_z(0.0, 6.0j)   # 0 - 36 + 25 = -11 on the cut

    def test_phat_is_fz_squared(self):
        # f_z^2 = |varpi|^2 + z^2 + C^2 = p_hat + 25
        z = 0.7 + 0.2j
        assert p_hat(1.3, z) == 1.3 ** 2 + z ** 2
        assert f_z(1.3, z) ** 2 == pytest.approx(p_hat(1.3, z) + 25.0, rel=1e-13)


class TestQ:
    def test_real_for_real_z(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = rng.uniform(-0.6, 0.9)
            xi = rng.uniform(-3, 3)
            q = q_semiclassical(SpacetimeParams(), mu, xi, 1.3, SPEC, 0.4)
            assert abs(complex(q).imag) < 1e-14

    def test_ds_display_form(self):
        # q = -(2 r^2 xi + z) f_z chi(mu), with the square root f_z at C = 5
        mu, xi, z = -0.3, 0.8, 1.1
        got = q_semiclassical(SpacetimeParams(), mu, xi, z, SPEC, 0.0)
        want = -(2 * (1 - mu) * xi + z) * f_z(abs(xi), z) \
            * SPEC.chi(mu)
        assert got == pytest.approx(want, rel=1e-13)

    def test_vanishes_off_support(self):
        assert q_semiclassical(SpacetimeParams(), 0.5, 1.0, 1.0, SPEC, 0.0) == 0.0

    @pytest.mark.parametrize("params", [
        KDS, SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")],
        ids=["kds", "dss"])
    def test_rotating_family_rejected(self, params):
        with pytest.raises(ValueError, match=params.model):
            q_semiclassical(params, 0.5, 1.0, 1.0, SPEC, 0.0)

    def test_holomorphy_proxy(self):
        # discrete Cauchy-Riemann residual in z on the slit domain interior
        h = 1e-5
        for mu in (-0.4, -0.3, -0.25):
            for xi in (-1.5, 0.3, 2.0):
                z0 = 1.2 + 0.3j
                dre = (q_semiclassical(SpacetimeParams(), mu, xi, z0 + h, SPEC, 0.1)
                       - q_semiclassical(SpacetimeParams(), mu, xi, z0 - h, SPEC, 0.1)) / (2 * h)
                dim = (q_semiclassical(SpacetimeParams(), mu, xi, z0 + 1j * h, SPEC, 0.1)
                       - q_semiclassical(SpacetimeParams(), mu, xi, z0 - 1j * h, SPEC, 0.1)) / (2j * h)
                assert abs(dre - dim) < 1e-6 * max(1.0, abs(dre))


class TestExtension:
    def test_physical_region_unchanged(self):
        from qnmkit.symbols import ds_symbol_polar
        mu, xi, z = 0.4, 1.2, 1.0 + 0.2j
        got = extend_p(SpacetimeParams(), mu, xi, z, SPEC, 0.3)
        assert got == pytest.approx(ds_symbol_polar(mu, xi, 0.3, z), rel=1e-13)

    def test_deep_collar_negative(self):
        v = extend_p(SpacetimeParams(), -0.55, 1.5, 2.0, SPEC, 0.2)
        assert complex(v).imag == pytest.approx(0.0, abs=1e-13)
        assert complex(v).real < 0

    def test_blend_matches_independent_reevaluation(self):
        from qnmkit.symbols import ds_symbol_polar
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu = rng.uniform(SPEC.mu1p, SPEC.mu0p)
            xi = rng.uniform(-3, 3)
            e2 = rng.uniform(0, 2)
            z = complex(rng.uniform(0.5, 2), rng.uniform(0, 0.5))
            got = extend_p(SpacetimeParams(), mu, xi, z, SPEC, e2)
            c1 = SPEC.chi1(mu)
            want = c1 * ds_symbol_polar(mu, xi, e2, z) \
                - (1 - c1) * (complex(xi ** 2 + e2 + z ** 2))
            assert got == pytest.approx(want, rel=1e-10)

    def test_symbol_does_not_depend_on_dimension(self):
        from qnmkit.symbols import ds_symbol_polar
        mu, xi, e2, z = -0.3, 0.7, 0.4, 1.2 + 0.3j
        got = extend_p(SpacetimeParams(n=5), mu, xi, z, SPEC, e2)
        want = SPEC.chi1(mu) * ds_symbol_polar(mu, xi, e2, z) \
            - SPEC.chi2(mu) * p_hat(math.sqrt(xi ** 2 + e2), z)
        assert got == want
        with pytest.raises(ValueError):     # the params need n >= 3
            extend_p(SpacetimeParams(n=2), mu, xi, z, SPEC, e2)


class TestFzProperties:
    @given(st.floats(0.0, 5.0), st.floats(-2.0, 2.0), st.floats(-0.9, 0.9))
    @settings(max_examples=150, deadline=None)
    def test_fz_right_half_plane(self, norm, zre, zim):
        # principal square root with C = 5 stays in the open right half plane;
        # the argument's real part is at least 25 - 0.81 here, so a branch
        # cut reached inside these strategies fails the test
        v = f_z(norm, complex(zre, zim))
        assert complex(v).real > 0
