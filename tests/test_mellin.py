import math

import numpy as np
import pytest

from qnmkit.mellin import (
    TemporalSamples, ExpansionTerm, default_tau_grid, mellin_transform,
    inverse_mellin, laurent_coefficients, expand_family, resonance_expand,
    driven_solve, log_gaussian_pulse, log_gaussian_pulse_hat, evaluate_terms,
    fit_decay, sigma_line, time_domain_solve, _converged_poles, _mirrored,
    _RESIDUE_OFFSETS, _PULSE_FLOOR, _PULSE_WIDTH, _PULSE_REACH,
    ContourDivergence,
    PoleOnContour, DegenerateFit,
)
from qnmkit.absorption import AbsorbingSpec
from qnmkit.spacetime import SpacetimeParams
from qnmkit.resonances import DiscretizedOperator, build_operator, resolvent_apply

from test_resonances import _referee_solve

TAU = default_tau_grid()
DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
MK = SpacetimeParams(model="MinkowskiBoundary", lam=0.0, n=4)
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")


def bump_samples():
    return TemporalSamples(TAU, log_gaussian_pulse(TAU, -7.0)[:, None])


def _dense_inverse(v, alpha, sig, tau):
    """The O(M T) trapezoid sum that inverse_mellin computes, in row blocks."""
    ds = (sig[-1] - sig[0]) / (len(sig) - 1)
    wts = np.full(len(sig), ds)
    wts[0] = wts[-1] = ds / 2
    x = np.log(tau)
    dense = np.empty((len(tau), v.shape[1]), dtype=complex)
    for i in range(0, len(tau), 128):
        ph = np.exp(1j * np.outer(x[i:i + 128], sig - 1j * alpha))
        dense[i:i + 128] = ph @ (v * wts[:, None]) / (2.0 * math.pi)
    return dense


class TestTransformPair:
    def test_power_law_closed_form(self):
        # u = tau^a (1 - tau) on (0, 1] vanishes at the tau = 1 cutoff, so it
        # passes the tail test
        a = 2.5
        u = TemporalSamples(TAU, (TAU ** a * (1.0 - TAU))[:, None])
        sig = np.linspace(-3, 3, 11)
        got = mellin_transform(u, alpha=0.2, sigma_re=sig)[:, 0]
        s = sig - 0.2j
        want = 1.0 / (a - 1j * s) - 1.0 / (a + 1.0 - 1j * s)
        # trapezoid endpoint error at the tau = 1 cutoff is O(h^2)
        np.testing.assert_allclose(got, want, atol=1e-4)

    def test_closed_form_pulse_hat(self):
        u = bump_samples()
        sig = np.linspace(-10, 10, 41)
        got = mellin_transform(u, alpha=0.0, sigma_re=sig)[:, 0]
        # the default pulse sits at x0 = -3; a shift by -4 in log tau
        # multiplies the transform by e^(4 i sigma)
        s = sig.astype(complex)
        want = log_gaussian_pulse_hat(s) * np.exp(4j * s)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_plancherel(self):
        u = bump_samples()
        alpha = 0.4
        sig = np.linspace(-60, 60, 6000)
        v = mellin_transform(u, alpha, sig)
        x = np.log(u.tau_grid)
        dx = abs(x[1] - x[0])
        lhs = np.sum(np.abs(u.values[:, 0]) ** 2 * np.exp(-2 * alpha * x)) * dx
        rhs = np.sum(np.abs(v) ** 2) * (sig[1] - sig[0]) / (2 * math.pi)
        assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_roundtrip(self):
        u = bump_samples()
        alpha = 0.1
        sig = np.linspace(-80, 80, 8000)
        v = mellin_transform(u, alpha, sig)
        back = inverse_mellin(v, alpha, sig, TAU)
        assert np.max(np.abs(back.values - u.values)) < 1e-6

    @pytest.mark.parametrize("n_tau, n_sigma, sigma_max, n_col, alpha", [
        (300, 1000, 40, 3, 1.5),
        (1024, 4000, 60, 49, 1.5),      # the expand shape
        (1024, 4000, 60, 49, -0.3),     # the CLI's direct line
        (301, 725, 40, 5, 1.5),         # odd, M + T - 1 one past a power of 2
    ], ids=["columns", "expand-shape", "direct-line", "odd-lengths"])
    def test_chirp_inverse_matches_dense(self, n_tau, n_sigma, sigma_max, n_col,
                                         alpha):
        rng = np.random.default_rng(5)
        tau = np.geomspace(1.0, 1e-6, n_tau)
        sig = np.linspace(-sigma_max, sigma_max, n_sigma)
        shape = (n_sigma, n_col)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense = _dense_inverse(v, alpha, sig, tau)
        # each of the pre-chirp, the kernel chirp, the post-chirp and the
        # dense phases is rounded to eps of the largest chirp phase a k^2 / 2
        x = np.log(tau)
        a = abs((x[-1] - x[0]) / (n_tau - 1) * (sig[1] - sig[0]))
        tol = 4 * np.finfo(float).eps * a * max(n_sigma - 1, n_tau - 1) ** 2 / 2
        assert tol <= 1e-11
        back = inverse_mellin(v, alpha, sig, tau)
        assert back.values.shape == (n_tau, n_col)
        assert np.max(np.abs(back.values - dense)) <= tol * np.max(np.abs(dense))

    @pytest.mark.parametrize("lo, hi, alpha", [
        (1393, 2607, 1.5), (1393, 2607, -0.3), (0, 600, 1.5), (3400, 4000, 1.5)],
        ids=["window", "window-direct", "first-row", "last-row"])
    def test_zero_end_rows_are_trimmed(self, lo, hi, alpha):
        # v zero outside rows lo..hi-1 of the 4000-point line, as
        # driven_solve leaves it: the chirp runs over the kept rows only,
        # with their weights on the whole grid (half only at row 0 or 3999),
        # and matches the dense trapezoid sum over every row
        rng = np.random.default_rng(11)
        sig = sigma_line(4000)
        v = np.zeros((4000, 5), dtype=complex)
        v[lo:hi] = rng.standard_normal((hi - lo, 5)) \
            + 1j * rng.standard_normal((hi - lo, 5))
        dense = _dense_inverse(v, alpha, sig, TAU)
        back = inverse_mellin(v, alpha, sig, TAU)
        assert np.max(np.abs(back.values - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_nonzero_end_rows_keep_the_full_chirp(self):
        # with nonzero rows at both ends nothing is trimmed: the transform is
        # bit for bit the chirp-z sum over the whole grid, FFT length 5120,
        # the smallest 5-smooth length >= 4000 + 1024 - 1 (2^10 * 5)
        rng = np.random.default_rng(12)
        sig = np.linspace(-60.0, 60.0, 4000)
        v = rng.standard_normal((4000, 3)) + 1j * rng.standard_normal((4000, 3))
        alpha, x = 1.5, np.log(TAU)
        M, T = v.shape[0], len(x)
        ds = (sig[-1] - sig[0]) / (M - 1)
        a = (x[-1] - x[0]) / (T - 1) * ds
        m, t, k = np.arange(M), np.arange(T), np.arange(1 - M, T)
        wts = np.full(M, ds)
        wts[0] = wts[-1] = ds / 2
        kernel = np.zeros(5120, dtype=complex)
        kernel[k] = np.exp(-0.5j * a * k * k)
        pre = wts * np.exp(1j * (x[0] * ds * m + 0.5 * a * m * m))
        b = np.zeros((3, 5120), dtype=complex)
        b[:, :M] = (v * pre[:, None]).T
        np.fft.fft(b, out=b)
        b *= np.fft.fft(kernel)
        np.fft.ifft(b, out=b)
        post = np.exp(1j * x * (sig[0] - 1j * alpha) + 0.5j * a * t * t) \
            / (2.0 * math.pi)
        want = b[:, :T].T * post[:, None]
        assert np.array_equal(inverse_mellin(v, alpha, sig, TAU).values, want)

    @pytest.mark.parametrize("sig", [
        np.linspace(-5, 5, 64) + np.where(np.arange(64) == 30, 1e-6, 0.0),
        np.array([0.0]),
    ], ids=["perturbed", "single-point"])
    def test_inverse_refuses_bad_sigma_grid(self, sig):
        with pytest.raises(ValueError, match="sigma grid"):
            inverse_mellin(np.ones((len(sig), 1)), 0.0, sig, TAU)

    def test_inverse_refuses_tau_grid_not_log_uniform(self):
        with pytest.raises(ValueError, match="log-uniform"):
            inverse_mellin(np.ones((64, 1)), 0.0, np.linspace(-5, 5, 64),
                           np.linspace(1.0, 1e-3, 64))

    def test_zero_maps_to_zero(self):
        v = np.zeros((64, 1))
        back = inverse_mellin(v, 0.0, np.linspace(-5, 5, 64), TAU)
        assert np.all(back.values == 0)

    def test_shift_rule(self):
        # multiplying the transform by tau0^{i sigma} translates u in log tau
        u = bump_samples()
        alpha = 0.0
        sig = np.linspace(-80, 80, 8000)
        v = mellin_transform(u, alpha, sig)
        tau0 = math.exp(0.7)
        back = inverse_mellin(v * tau0 ** (1j * sig[:, None]), alpha, sig, TAU)
        shifted = log_gaussian_pulse(TAU * tau0, x0=-7.0)
        assert np.max(np.abs(back.values[:, 0] - shifted)) < 1e-6

    def test_divergence_detected(self):
        u = TemporalSamples(TAU, TAU[:, None] ** (-0.5))
        with pytest.raises(ContourDivergence):
            mellin_transform(u, alpha=1.0, sigma_re=np.array([0.0]))

    @pytest.mark.parametrize("level", [1.0, 1e-7])
    def test_divergence_detected_at_any_scale(self, level):
        # a constant never decays at alpha = 0, however small it is: the
        # tail test is relative to the largest weighted sample only
        u = TemporalSamples(TAU, np.full((len(TAU), 1), level))
        with pytest.raises(ContourDivergence):
            mellin_transform(u, alpha=0.0, sigma_re=np.array([0.0]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TemporalSamples(np.linspace(1.0, 1e-3, 64), np.zeros((64, 1)))

    @pytest.mark.parametrize("tau, message", [
        (np.append(np.geomspace(1.0, 1e-3, 63), 0.0), "positive"),
        (-np.geomspace(1.0, 1e-3, 64), "positive"),
        (np.geomspace(1e-3, 1.0, 64), "decreasing"),
    ], ids=["zero", "negative", "increasing"])
    def test_refuses_tau_not_positive_and_decreasing(self, tau, message):
        with pytest.raises(ValueError, match=message):
            TemporalSamples(tau, np.zeros((64, 1)))

    @pytest.mark.parametrize("shape", [(64,), (64, 1, 1), (63, 1)],
                             ids=["vector", "3-d", "short"])
    def test_refuses_values_not_of_shape_rows_by_columns(self, shape):
        # a (T,) array would broadcast against the (T, 1) weights into (T, T)
        tau = np.geomspace(1.0, 1e-3, 64)
        with pytest.raises(ValueError, match=r"shape \(n_tau, n\)"):
            TemporalSamples(tau, np.zeros(shape))
        sig = np.linspace(-5, 5, 64)
        with pytest.raises(ValueError, match=r"shape \(n_sigma, n\)"):
            inverse_mellin(np.zeros(shape), 0.0, sig, tau)


class TestLaurent:
    def test_simple_pole(self):
        f0 = np.array([2.0 - 1.0j])
        pole = 0.3 - 0.7j
        solve = lambda s: np.outer(1.0 / (s - pole), f0)
        cs = laurent_coefficients(solve(pole + _RESIDUE_OFFSETS))
        np.testing.assert_allclose(cs[0], f0, rtol=1e-12)
        assert np.max(np.abs(cs[1])) < 1e-12

    def test_jordan_block(self):
        # A(sigma) = [[s-p, 1], [0, s-p]]; A^-1 has a second-order pole
        pole = -0.2 - 1.1j
        f = np.array([0.7, -0.4 + 0.3j])
        def solve(s):
            d = s - pole
            return np.stack([f[0] / d - f[1] / d ** 2, f[1] / d], axis=-1)
        cs = laurent_coefficients(solve(pole + _RESIDUE_OFFSETS))
        np.testing.assert_allclose(cs[0], [f[0], f[1]], rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(cs[1], [-f[1], 0.0], rtol=1e-11, atol=1e-13)


class TestExpandFamily:
    def test_single_simple_pole_reconstruction(self):
        pole = -0.8j
        solve = lambda s: (log_gaussian_pulse_hat(s) / (s - pole))[:, None]
        terms, rem = expand_family(solve, [pole], ell_target=2.0, n_sigma=6000,
                                   mirrored=False)
        assert len(terms) == 1 and terms[0].kappa == 0
        # -i times the residue of the scalar family
        want = -1j * log_gaussian_pulse_hat(pole)
        assert terms[0].a.shape == (1,)
        assert complex(terms[0].a[0]) == pytest.approx(want, rel=1e-10)
        # reconstruction: terms + remainder = unshifted inverse transform
        sig = np.linspace(-60, 60, 6000)
        direct = inverse_mellin(solve(sig), 0.0, sig, rem.tau_grid)
        synth = evaluate_terms(terms, rem.tau_grid) + rem.values
        assert np.max(np.abs(direct.values - synth)) < 1e-6

    def test_jordan_block_log_term(self):
        pole = -1.0j
        f = np.array([0.3, 0.9])
        def solve(s):
            d = s - pole
            return log_gaussian_pulse_hat(s)[:, None] * np.stack(
                [f[0] / d - f[1] / d ** 2, f[1] / d], axis=-1)
        terms, rem = expand_family(solve, [pole], 2.5, n_sigma=6000,
                                   mirrored=False)
        kappas = sorted(t.kappa for t in terms)
        assert kappas == [0, 1]
        t1 = [t for t in terms if t.kappa == 1][0]
        # -i * i^1/1! * c_-2, first entry
        want = -1j * 1j * (-f[1]) * log_gaussian_pulse_hat(pole)
        assert t1.a[0] == pytest.approx(want, rel=1e-8)
        assert abs(t1.a[1]) < 1e-10

    def test_remainder_decay_rate(self):
        pole = -0.5j
        solve = lambda s: (log_gaussian_pulse_hat(s) / (s - pole))[:, None]
        ell = 2.0
        terms, rem = expand_family(solve, [pole], ell, n_sigma=6750,
                                   mirrored=False)
        rate, power, _ = fit_decay(TemporalSamples(rem.tau_grid, rem.values))
        assert rate >= ell - 0.02 * ell

    def test_pole_on_contour(self):
        # refused before any residue circle is solved, that of a pole ahead
        # of it in the (one-pass) iterable included
        pole, calls = -2.0j, []

        def solve(s):
            calls.append(s)
            return (1.0 / (s - pole))[:, None]
        with pytest.raises(PoleOnContour):
            expand_family(solve, iter([-0.5j, pole]), 2.0, n_sigma=4000,
                          mirrored=False)
        assert calls == []

    def test_contour_shift_consistency(self):
        poles = [-0.5j, -1.5j]
        solve = lambda s: (log_gaussian_pulse_hat(s) * (
            1.0 / (s - poles[0]) + 1.0 / (s - poles[1])))[:, None]
        t1, _ = expand_family(solve, poles, 1.0, n_sigma=5000, mirrored=False)
        t2, _ = expand_family(solve, poles, 2.0, n_sigma=5000, mirrored=False)
        assert len(t1) == 1 and len(t2) == 2
        lead1 = [t for t in t2 if abs(t.sigma_j - t1[0].sigma_j) < 1e-12]
        assert complex(lead1[0].a[0]) == pytest.approx(complex(t1[0].a[0]), rel=1e-8)


class TestPipeline:
    def test_static_patch_expansion(self):
        op = build_operator(DS, 0, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        terms, rem = expand_family(
            lambda s: __import__("qnmkit.resonances", fromlist=["resolvent_apply"])
            .resolvent_apply(op, s, log_gaussian_pulse_hat(s)[:, None] * f0),
            [0.0 + 0.0j], ell_target=1.5, n_sigma=4000, mirrored=False)
        # the leading term is the constant mode: spatially flat coefficient
        lead = terms[0]
        spread = np.max(np.abs(lead.a - lead.a[len(lead.a) // 2]))
        assert spread < 1e-6 * max(1.0, np.max(np.abs(lead.a)))
        rate, _, _ = fit_decay(TemporalSamples(rem.tau_grid, rem.values))
        assert rate >= 1.5 - 0.03

    @pytest.mark.parametrize("phase, circles, line",
                             [(1.0, 2, 607), (1.0 + 0.5j, 3, 1214)],
                             ids=["real-f0", "complex-f0"])
    def test_mirror_pair_shares_one_circle(self, phase, circles, line,
                                           monkeypatch):
        # dSS l=0 at N=48 has three poles above Im sigma = -1.5: 0 and the
        # pair +-0.9023073005 - 1.0299536917i.  The pencil is real in tau, so
        # with a real f0 only one circle of the pair is solved, and the
        # twin's coefficient is its partner's conjugate bit for bit; a
        # complex f0 solves all three circles, and the whole window of the
        # line, in the same one call
        op = build_operator(DSS, 0, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2) * phase
        sizes = _spy_resolvent(monkeypatch)
        terms, _ = resonance_expand(f0, op, ell_target=1.5, n_sigma=4000)
        assert sizes == [64 * circles + line]
        assert len(terms) == 3 and all(t.kappa == 0 for t in terms)
        p, q = (t for t in terms if abs(t.sigma_j) > 0.5)
        assert q.sigma_j == -p.sigma_j.conjugate()
        assert abs(p.sigma_j - (0.9023073005 - 1.0299536917j)) < 1e-8
        if circles == 2:
            assert np.array_equal(q.a, p.a.conj())

    @pytest.mark.parametrize("params, circles", [(DS, 1), (DSS, 2)],
                             ids=["ds-l0", "dss-l0"])
    def test_one_resolvent_call_per_expansion(self, params, circles,
                                              monkeypatch):
        # the residue circles (one per mirror pair: the pole 0 on dS, and
        # on dSS 0 and one of +-0.9023 - 1.0300i) come first, then the 607
        # windowed sigma of the line's Re sigma > 0 half, all in one call
        op = build_operator(params, 0, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        import qnmkit.mellin
        calls = []

        def spy(op, sigma, f):
            calls.append(np.asarray(sigma))
            return resolvent_apply(op, sigma, f)
        monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", spy)
        resonance_expand(f0, op, ell_target=1.5, n_sigma=4000)
        assert [len(s) for s in calls] == [64 * circles + 607]
        on_line = calls[0].imag == -1.5
        assert not on_line[:64 * circles].any() and on_line[64 * circles:].all()
        assert np.all(calls[0][on_line].real > 0)

    def test_resonance_expand_wrapper(self):
        op = build_operator(DS, 0, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        terms, rem = resonance_expand(f0, op, ell_target=1.5, n_sigma=4000)
        assert any(abs(t.sigma_j) < 1e-8 for t in terms)


    @pytest.mark.parametrize("params, ell, ell_target, frozen", [
        (DS, 0, 1.5, [0j, -1.99999999977j]),
        (DS, 1, 2.5, [-1.00000000000j, -3.00000000505j]),
        (MK, 0, 1.5, [-1.00000000000j, -1.99999999907j]),
        (DSS, 0, 1.5, [0j, 0.90230730049 - 1.02995369169j,
                       -0.90230730049 - 1.02995369169j, -2.08362366840j])],
        ids=["ds-l0", "ds-l1", "minkowski-l0", "dss-l0"])
    def test_converged_poles(self, params, ell, ell_target, frozen):
        # expand's poles at N=48 are the converged rows of the ladder capped
        # at 48, each refined on the N=48 pencil: frozen from a solve of that
        # pencil alone, and a mirror pair is exact bit for bit
        op = build_operator(params, ell, 48)
        poles = _converged_poles(op, -ell_target - 0.8)
        assert len(poles) == len(frozen)
        for z, w in zip(poles, frozen):
            assert abs(z - w) < 1e-8
        assert all(-z.conjugate() in poles for z in poles if abs(z.real) > 1e-6)

    def test_converged_poles_fill_the_pulse_window(self):
        # dSS l=5's fundamentals lie past |Re sigma| = 8 and inside the
        # window `driven_solve` solves, so they are expand's poles, and every
        # node of their residue circles lies in that window too
        op = build_operator(DSS, 5, 48)
        poles = _converged_poles(op, -2.3)
        pair = 9.0306938719 - 0.8256131482j
        assert len(poles) == 2
        assert all(min(abs(z - w) for z in poles) < 1e-8
                   for w in (pair, -pair.conjugate()))
        assert all(np.abs((z + _RESIDUE_OFFSETS).real).max() < _PULSE_REACH
                   for z in poles)

    def test_poles_stay_at_their_ladder_rows(self):
        # dS l=0 at N=160 down to Im sigma = -5.3: the ladder certifies 0,
        # -2i, -3i and -4i, but on the N=160 pencil the secant from -4i ends
        # near 0.001 - 3.993i, further than the same-root distance 1e-4 from
        # the row, so that pole is left to the remainder; the others stay
        # within 1e-4 of the lattice
        op = build_operator(DS, 0, 160)
        poles = _converged_poles(op, -5.3)
        assert len(poles) == 3
        for z, w in zip(sorted(poles, key=lambda z: -z.imag), (0, -2j, -3j)):
            assert abs(z - w) < 1e-4

    def test_refuses_an_absorbed_pencil(self):
        op = build_operator(DS, 0, 24, AbsorbingSpec())
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        with pytest.raises(ValueError, match="real in tau"):
            resonance_expand(f0, op, ell_target=1.5, n_sigma=128)

class TestDrivenSolve:
    @pytest.mark.parametrize("im", [-1.5, 0.3], ids=["remainder", "direct"])
    def test_window_matches_the_full_line(self, im):
        # the windowed solve, zero where the pulse is below 1e-18 of its
        # peak, against R(sigma)(phi_hat(sigma) f0) solved at every sigma of
        # the CLI's 4000-point line
        op = build_operator(DS, 0, 24)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        sig = np.linspace(-60.0, 60.0, 4000) + 1j * im
        got = driven_solve(op, f0)(sig)
        full = resolvent_apply(op, sig, log_gaussian_pulse_hat(sig)[:, None] * f0)
        assert np.count_nonzero(np.any(got != 0, axis=1)) == 1214
        assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))

    def test_sigma_line_is_its_own_mirror(self):
        # entry k is minus entry n - 1 - k bit for bit, for even and odd n,
        # on a grid uniform enough for inverse_mellin
        for n in (128, 1001, 4000):
            sig = sigma_line(n)
            assert sig[0] == -60.0 and sig[-1] == 60.0
            assert np.array_equal(sig, -sig[::-1])
            d = np.diff(sig)
            assert d.max() - d.min() <= 1e-12
        assert np.max(np.abs(sigma_line(4000) - np.linspace(-60, 60, 4000))) < 1e-13

    @pytest.mark.parametrize("ell_target", [1.5, -0.3],
                             ids=["remainder", "direct"])
    def test_mirror_pairs_solved_once(self, ell_target, monkeypatch):
        # the dS pencil is real in tau = -i sigma and f0 is real: of the
        # 1,214 windowed sigma of expand_family's line only the 607 with
        # Re sigma > 0 reach the resolvent, and each of the others carries
        # the exact conjugate of its twin's solution
        op = build_operator(DS, 0, 24)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        sizes = _spy_resolvent(monkeypatch)
        lines = _spy_line(monkeypatch)
        expand_family(driven_solve(op, f0), [], ell_target, 4000, mirrored=True)
        out, = lines
        assert sizes == [607]
        assert np.count_nonzero(np.any(out != 0, axis=1)) == 1214
        assert np.array_equal(out, out[::-1].conj())

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="the referee needs an extended-precision long double")
    @pytest.mark.parametrize("params, ell, ell_target, bound", [
        (DS, 0, 1.5, 1e-10), (DS, 1, 2.5, 2e-8), (MK, 0, 1.5, 1e-9)],
        ids=["ds-l0", "ds-l1", "minkowski-l0"])
    def test_mirrored_half_matches_referee(self, params, ell, ell_target, bound,
                                           monkeypatch):
        # the conjugated half of expand's remainder line against
        # extended-precision solves at its own sigma, within test_resonances'
        # per-case bounds
        op = build_operator(params, ell, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        sig = sigma_line(4000) - 1j * ell_target
        lines = _spy_line(monkeypatch)
        resonance_expand(f0, op, ell_target, n_sigma=4000)
        out, = lines
        mirrored = np.flatnonzero(np.any(out != 0, axis=1) & (sig.real < 0))
        assert len(mirrored) == 607
        for m in mirrored:
            ref = _referee_solve(op, sig[m], log_gaussian_pulse_hat(sig[m]) * f0)
            err = np.linalg.norm(out[m] - ref) / np.linalg.norm(ref)
            assert float(err) < bound

    @pytest.mark.parametrize("case", ["absorber", "complex-f0", "linspace"])
    def test_every_sigma_solved_off_the_mirror(self, case, monkeypatch):
        # an absorbing spec (A0 holds -iQ) or a complex f0 is not mirrored,
        # so expand_family sends all 1,214 windowed sigma of its line to the
        # resolvent in one call; so does driven_solve, given the linspace
        # line (off mirror symmetry by rounding) or any other array
        op = build_operator(DS, 0, 24, AbsorbingSpec() if case == "absorber"
                            else None)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2) \
            * (1.0 + 0.5j if case == "complex-f0" else 1.0)
        line = np.linspace(-60.0, 60.0, 4000) if case == "linspace" \
            else sigma_line(4000)
        sig = line - 1.5j
        sizes = _spy_resolvent(monkeypatch)
        if case == "linspace":
            got = driven_solve(op, f0)(sig)
        else:
            assert not _mirrored(op, f0)
            lines = _spy_line(monkeypatch)
            expand_family(driven_solve(op, f0), [], 1.5, 4000, mirrored=False)
            got, = lines
        assert sizes == [1214]
        keep = np.exp(-0.5 * (_PULSE_WIDTH * sig.real) ** 2) > _PULSE_FLOOR
        s = sig[keep]
        want = resolvent_apply(op, s, log_gaussian_pulse_hat(s)[:, None] * f0)
        assert np.array_equal(got[keep], want)
        assert not got[~keep].any()


class TestTimeDomainSolve:
    @pytest.mark.parametrize("params, ell", [(DS, 0), (DS, 1), (MK, 0), (DSS, 0)],
                             ids=["ds-l0", "ds-l1", "minkowski-l0", "dss-l0"])
    def test_matches_the_direct_line(self, params, ell):
        # against the inverse transform along Im sigma = +0.3, above every
        # pole, at the CLI's defaults (N = 48, 4000 sigma); measured 4.3e-12,
        # 6.8e-13, 8.8e-13 and 1.7e-12 when this was written
        op = build_operator(params, ell, 48)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        sig = sigma_line(4000)
        direct = inverse_mellin(driven_solve(op, f0)(sig + 0.3j), -0.3, sig,
                                TAU).values
        got = time_domain_solve(op, f0)
        assert np.array_equal(got.tau_grid, TAU)
        assert got.values.shape == (len(TAU), 49)
        err = np.max(np.abs(got.values - direct)) / np.max(np.abs(direct))
        assert err <= 1e-10

    @pytest.mark.parametrize("case", ["absorber", "complex-f0"])
    def test_refuses_what_is_not_real(self, case):
        # the step matrix is real only on a pencil real in tau and a real f0
        op = build_operator(DS, 0, 24, AbsorbingSpec() if case == "absorber"
                            else None)
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2) \
            * (1.0 + 0.5j if case == "complex-f0" else 1.0)
        with pytest.raises(ValueError, match="real in tau"):
            time_domain_solve(op, f0)


    def test_refuses_a_growing_pencil(self):
        # A0 = 0.25 I and A1 = 0 give the modes sigma = +-0.5i: the one with
        # Im sigma = 0.5 grows, and the steps would return values up to 288
        # for f0 = 1 instead of the causal solution
        n = 25
        op = DiscretizedOperator(DS, 0, np.linspace(-1.0, 1.0, n),
                                 (0.25 * np.eye(n, dtype=complex),
                                  np.zeros((n, n), complex)))
        with pytest.raises(ValueError, match="growing.*Im sigma = 0.5"):
            time_domain_solve(op, np.ones(n))

def _spy_line(monkeypatch):
    """The contour lines, of shape (n_sigma, n), that expand_family passes to
    the inverse transform."""
    import qnmkit.mellin
    lines = []

    def spy(v, alpha, sigma_re, tau_grid):
        lines.append(np.array(v))
        return inverse_mellin(v, alpha, sigma_re, tau_grid)
    monkeypatch.setattr(qnmkit.mellin, "inverse_mellin", spy)
    return lines


def _spy_resolvent(monkeypatch):
    """The sizes of the sigma arrays that driven_solve passes to the resolvent."""
    import qnmkit.mellin
    sizes = []

    def spy(op, sigma, f):
        sizes.append(np.size(sigma))
        return resolvent_apply(op, sigma, f)
    monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", spy)
    return sizes


class TestFitDecay:
    def test_pure_power(self):
        u = TemporalSamples(TAU, TAU[:, None] ** 0.7)
        rate, power, _ = fit_decay(u)
        assert rate == pytest.approx(0.7, abs=1e-6)
        assert power == 0

    def test_power_with_log(self):
        u = TemporalSamples(TAU, (TAU ** 0.7 * np.log(TAU))[:, None])
        rate, power, _ = fit_decay(u)
        assert rate == pytest.approx(0.7, abs=1e-2)
        assert power == 1

    def test_degenerate(self):
        # 12 points over six decades leave 5 in the window 1e-4..3e-2
        tau = np.geomspace(1.0, 1e-6, 12)
        with pytest.raises(DegenerateFit, match="at least 8"):
            fit_decay(TemporalSamples(tau, tau[:, None]))
