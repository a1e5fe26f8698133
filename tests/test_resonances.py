import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import lu_factor, lu_solve

import qnmkit.cli as cli
import qnmkit.resonances as resonances
import qnmkit.spacetime as spacetime
from qnmkit.spacetime import SpacetimeParams, mu_tilde
from qnmkit.absorption import AbsorbingSpec
from qnmkit.resonances import (
    build_operator, solve_resonances, oracle_shooting, oracle_refine,
    resolvent_apply, gluing_check,
    UnsupportedModel, NearPole, _radial_family,
)

DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
MK = SpacetimeParams(model="MinkowskiBoundary", lam=0.0, n=4)
TINY = AbsorbingSpec(digamma_scale=1e-12)
MODELS = [("deSitter", DS), ("minkowski", MK), ("dSSchwarzschild", DSS)]
MODEL_IDS = [m for m, _ in MODELS]
# the sample small black hole, r_s = 0.05, whose r_- - delta lies left of the
# root r = 0 of c2, and r_s = 0.1, where the far end r_- - 0.18 (r_+ - r_-)
# of a loop of radius 0.3 (r_+ - r_-) does
DSS_SMALL = spacetime.load_params(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "configs",
    "dss-small.params"))
DSS_RS01 = SpacetimeParams(3.0, 0.1, 0.0, "dSSchwarzschild")

# converged rows of Minkowski l=0 at N=160 in the CLI box, printed as JSON
_MK160_CONVERGED = """
import json
from qnmkit.spacetime import SpacetimeParams
from qnmkit.resonances import solve_resonances
rl = solve_resonances(SpacetimeParams(model="MinkowskiBoundary", lam=0.0, n=4),
                      0, 160, (-6, 6, -3.6, 0.4))
print(json.dumps([[e.sigma.real, e.sigma.imag] for e in rl.converged(1e-6)]))
"""

# the (model, cap N) of the static resonance tables, each solved for ell = 0,
# 1 and 2
_TABLES = [(m, N) for m in ("minkowski", "deSitter") for N in (80, 110, 160)]


def _converged_at_threads(threads: int) -> list:
    src = os.path.dirname(os.path.dirname(resonances.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _MK160_CONVERGED], env=env,
                         capture_output=True, text=True, check=True).stdout
    return [complex(re, im) for re, im in json.loads(out)]


def _fresh_shift_solve(op, sigma, f):
    """resolvent_apply's U with its shifts formed anew for each
    back-substitution: D = diag(T) - tau and, on each 2 x 2 block, Cramer's
    rule dividing by det = D[i] D[i+1] - b c; one solve and two refinement
    steps on the pencil's residual, per block of _SIGMA_BLOCK sigma."""
    tf = op.triangular_form
    A0, A1 = op.matrices
    sig = np.asarray(sigma, dtype=complex)
    F = np.broadcast_to(np.asarray(f, dtype=complex), sig.shape + (len(A0),))

    def mul(A, X):
        if not np.isrealobj(tf.T):
            return A @ X
        return (A @ np.ascontiguousarray(X).view(float)).view(complex)

    def solve(s, X):
        T = tf.T
        D = np.diag(T)[:, None] - (-1j * s)
        Y = mul(tf.left, X)
        W = np.empty_like(Y)
        for i, size in tf.blocks:
            if size == 1:
                W[i] = (Y[i] - mul(T[i, i + 1:], W[i + 1:])) / D[i]
            else:
                r0, r1 = Y[i:i + 2] - mul(T[i:i + 2, i + 2:], W[i + 2:])
                b, c = T[i, i + 1], T[i + 1, i]
                det = D[i] * D[i + 1] - b * c
                W[i] = (D[i + 1] * r0 - b * r1) / det
                W[i + 1] = (D[i] * r1 - c * r0) / det
        return mul(tf.right, W)
    U = np.empty(F.shape, dtype=complex)
    B = resonances._SIGMA_BLOCK
    for j in range(0, len(sig), B):
        s, X = sig[j:j + B], F[j:j + B].T
        V = solve(s, X)
        for _ in range(2):
            V = V + solve(s, X - (A0 @ V + s * (A1 @ V) + s * s * V))
        U[j:j + B] = V.T
    return U


def _referee_solve(op, sigma, f):
    """L(sigma)^-1 f from one LU, corrected 6 times on a clongdouble residual."""
    A0, A1 = (A.astype(np.clongdouble) for A in op.matrices)
    s = np.clongdouble(sigma)
    A = A0 + s * A1 + s * s * np.eye(len(A0), dtype=np.clongdouble)
    lu = lu_factor(op.pencil(sigma))
    u = lu_solve(lu, f).astype(np.clongdouble)
    for _ in range(6):
        u = u + lu_solve(lu, (f - A @ u).astype(complex))
    return u


# oracle roots near rows of deSitter and dSS, printed as hex floats
_ORACLE_ROOTS = """
import json
from qnmkit.spacetime import SpacetimeParams
from qnmkit.resonances import oracle_refine
ds = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
dss = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
roots = [oracle_refine(p, ell, s) for p, ell, s in (
    (ds, 0, -2.0j), (ds, 1, -1.0j), (dss, 1, -0.99842j), (dss, 2, -1.99935j))]
print(json.dumps([[z.real.hex(), z.imag.hex()] for z in roots]))
"""


def _oracle_roots_at_threads(threads: int) -> list:
    src = os.path.dirname(os.path.dirname(resonances.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return json.loads(subprocess.run(
        [sys.executable, "-c", _ORACLE_ROOTS], env=env, capture_output=True,
        text=True, check=True).stdout)


def _expand_sigmas(ell_target):
    """Six sigma on the remainder line (Im -1.5) of the dS l=0 expand case
    and on the direct line above every pole (Im +0.3) that referees the
    time-domain solve, and 40 on the remainder line Im = -ell_target."""
    return np.concatenate([
        [-37.3 - 1.5j, 0.4 - 1.5j, 52.0 - 1.5j, -8.1 + 0.3j, 0.0 + 0.3j,
         59.7 + 0.3j],
        np.linspace(-60.0, 60.0, 40) - 1j * ell_target])


def _split(c2, c1, c0):
    """The (c2, c1a, c1b, c0a, c0b, c0c) split of sigma-free polynomials."""
    return c2, c1, [0.0], c0, [0.0], [0.0]


def _at_sigma(split, sigma):
    """(c2, c1, c0) at sigma from the split (c2, c1a, c1b, c0a, c0b, c0c),
    highest power first."""
    c2, c1a, c1b, c0a, c0b, c0c = split
    return (c2, np.polyadd(c1a, sigma * c1b),
            np.polyadd(np.polyadd(c0a, sigma * c0b), sigma * sigma * c0c))


def _referee_step(polys, z, y, h, frobenius):
    """(u, u') at z + h from one scalar recurrence about z, summed term by term.

    The oracle's series step written out one Python term at a time: the
    stop rule ends the sum, and every StiffFailure is raised where it is met.
    """
    a2, a1, a0 = (resonances._taylor_at(p, z) for p in polys)
    depth = max(len(a2), len(a1) + 1, len(a0) + 2)
    q2, q1, q0 = [], [], []
    hj = 1.0 + 0j
    for j in range(depth):
        q2.append(a2[j] * hj if j < len(a2) else 0j)
        q1.append(a1[j - 1] * hj if 1 <= j <= len(a1) else 0j)
        q0.append(a0[j - 2] * hj if 2 <= j < len(a0) + 2 else 0j)
        hj *= h
    if frobenius:
        lead, v = 1, [1.0 + 0j]
    else:
        lead, v = 0, [complex(y[0]), complex(y[1]) * h]
    s0, s1 = sum(v), sum(k * c for k, c in enumerate(v))
    run = 0
    for n in range(len(v), resonances._SERIES_MAX):
        acc = 0j
        for j in range(lead + 1, depth):
            m = n + lead - j
            if m < 0:
                break
            acc += (q2[j] * m * (m - 1) + q1[j] * m + q0[j]) * v[m]
        den = n * (n - 1) * q2[lead] + n * q1[lead]
        if frobenius and abs(den / h) < resonances._FROBENIUS_MIN:
            raise resonances.StiffFailure("indicial coincidence")
        vn = -acc / den
        v.append(vn)
        s0 += vn
        s1 += n * vn
        if not (np.isfinite(s0) and np.isfinite(s1)):
            raise resonances.StiffFailure("overflowed")
        if n * abs(vn) <= resonances._SERIES_EPS * max(abs(s0), abs(s1)):
            run += 1
            if run == resonances._SERIES_RUN:
                return s0, s1 / h
        else:
            run = 0
    raise resonances.StiffFailure("did not converge")


def _referee_ends(params, ell, sigma):
    """End values (u, u') of the shooting's upper and lower halves, one
    referee step at a time along the oracle's own plan."""
    polys = _at_sigma(_radial_family(params, ell).polys, sigma)
    ends = []
    for leg in resonances._oracle_plan(params, ell).legs:
        y = ends[0] if ends else None
        for z, h, frobenius in leg:
            y = _referee_step(polys, z, y, h, frobenius)
        ends.append(y)
    return ends[1:]


def _dss_sigma2(params, x):
    """The sigma^2 coefficient x^4 (1 - s^2) P / mu~ of the two-horizon gauge,
    simplified: 4 x^3 / ((lam / 3) (r_+ - r_-)^2)."""
    hd = spacetime.horizon_roots(params)
    return 4.0 * x ** 3 / (params.lam / 3.0 * (hd.r_plus - hd.r_minus) ** 2)


def _gauge_polys(params, ell, b):
    """The six polynomials of `_radial_family` for dSSchwarzschild in the gauge
    s = 1 - 2t + b t (1 - t) (1 - 2t), built here from the unsimplified
    sigma^2 coefficient r^4 (1 - s^2) P / mu~, which must divide exactly."""
    hd = spacetime.horizon_roots(params)
    rm, rp = hd.r_minus, hd.r_plus
    r = np.poly1d([1.0, 0.0])
    t = (r - rm) / (rp - rm)
    s = 1 - 2 * t + b * t * (1 - t) * (1 - 2 * t)
    P = r + rm + rp
    mt = np.poly1d(spacetime._mu_coeffs(params))
    c0c, rest = np.polydiv(r ** 4 * (1 - s * s) * P, mt)
    assert np.abs(rest.coeffs).max() < 1e-12
    return tuple(np.asarray(p.coeffs) for p in (
        mt * P, mt.deriv() * P, -2j * s * r * r * P, -ell * (ell + 1.0) * P,
        -1j * (r * r * s).deriv() * P, c0c))


class _Exact:
    """A complex rational re + i im, exact under +, - and *."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(z):
        if isinstance(z, _Exact):
            return z
        if isinstance(z, (int, Fraction)):
            return _Exact(z)
        z = complex(z)
        return _Exact(z.real, z.imag)

    def __add__(self, o):
        o = _Exact.of(o)
        return _Exact(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        o = _Exact.of(o)
        return _Exact(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    def __neg__(self):
        return _Exact(-self.re, -self.im)

    def __sub__(self, o):
        return self + -_Exact.of(o)

    def __rsub__(self, o):
        return _Exact.of(o) - self

    __radd__, __rmul__ = __add__, __mul__

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def reference_coeffs(model, params, ell, n, x, sigma):
    """(c2, c1, c0) of c2 u'' + c1 u' + c0 u, written out from the model closed forms."""
    if model == "dSSchwarzschild":
        # the two-horizon gauge s = 1 - 2t, t = (x - r_-) / (r_+ - r_-),
        # times P = x + r_- + r_+
        hd = spacetime.horizon_roots(params)
        w = hd.r_plus - hd.r_minus
        s = 1.0 - 2.0 * (x - hd.r_minus) / w
        P = x + hd.r_minus + hd.r_plus
        mt, dmt, _ = mu_tilde(params, x)
        return (mt * P, (dmt - 2j * sigma * s * x * x) * P,
                (-1j * sigma * (2.0 * x * s - 2.0 * x * x / w) - ell * (ell + 1.0)) * P
                + sigma * sigma * _dss_sigma2(params, x))
    if np.ndim(x):
        return tuple(np.array(c) for c in zip(
            *(reference_coeffs(model, params, ell, n, xi, sigma) for xi in x)))
    # the one-horizon closed forms are evaluated exactly (the float inputs
    # are rationals) and rounded once, so the tolerance measures only the
    # Horner evaluation under test
    i, X, s = _Exact(0, 1), _Exact.of(x), _Exact.of(sigma)
    if model == "deSitter":
        want = (4 * X * (1 - X),
                4 - (2 * n + 2 + 4 * ell) * X - 4 * i * s * (1 - X),
                s * s + (n - 1 + 2 * ell) * i * s - ell * (ell + n - 1))
    else:
        c = -(i * Fraction(n - 1, 2)) - s
        want = (4 * X * (1 - X),
                2 + 4 * i * c - 2 * (n - 2) - (4 + 4 * i * c + 4 * ell) * X,
                c * c + Fraction(1, 4) - ell ** 2 - 2 * i * c * ell)
    return tuple(complex(w) for w in want)


class TestRadialPolys:
    @given(st.sampled_from(MODEL_IDS), st.integers(0, 3),
           st.integers(3, 6), st.floats(0.5, 5.0), st.floats(0.02, 0.98),
           st.complex_numbers(max_magnitude=2.0),
           st.complex_numbers(max_magnitude=6.0), st.booleans())
    @example("deSitter", 0, 3, 1.0, 0.5, 1e-6 + 0j, -1j, False)
    @example("deSitter", 1, 3, 1.0, 0.5, 0j, 1e-5 - 1j, False)
    @settings(max_examples=300, deadline=None)
    def test_matches_closed_forms(self, model, ell, n, lam, frac, x, sigma, real_x):
        # frac places r_s in (0, 2 / (3 sqrt(lam))), where dSSchwarzschild
        # has both horizons
        params = {"deSitter": SpacetimeParams(lam, model="deSitter", n=n),
                  "minkowski": SpacetimeParams(0.0, model="MinkowskiBoundary", n=n),
                  "dSSchwarzschild": SpacetimeParams(
                      lam, frac * 2.0 / (3.0 * math.sqrt(lam)), 0.0,
                      "dSSchwarzschild"),
                  }[model]
        if real_x:
            x = x.real
        want = reference_coeffs(model, params, ell, params.n, x, sigma)
        split = _radial_family(params, ell).polys
        # per coefficient, the summed magnitudes of the parts _at_sigma adds
        # to form it (c2 is not formed); the dSSchwarzschild reference is
        # itself a float sum of such parts
        formed = ([0.0],) + _at_sigma([np.abs(p) for p in split], abs(sigma))[1:]
        for p, f, w in zip(_at_sigma(split, sigma), formed, want):
            # relative to the Horner error scale sum |a_k| |x|^k, plus a few
            # ulp of the terms each a_k is summed from (c0 = (sigma + i)
            # (sigma + 3i) of deSitter l=1 is formed from sigma^2, 4i sigma
            # and -3, which cancel near sigma = -i)
            scale = max(np.polyval(np.abs(p), abs(x)), 1e-300)
            form = 8 * np.finfo(float).eps * np.polyval(f, abs(x))
            assert abs(np.polyval(p, x) - w) <= 1e-13 * scale + form

    def test_dss_polynomials_are_the_gauge_at_b_zero(self):
        # the shipped polynomials are those of the gauge family at b = 0,
        # whose sigma^2 coefficient is derived by polynomial division; they
        # are cached per (params, ell), with their record, and read-only
        for ell in range(3):
            fam = _radial_family(DSS, ell)
            assert _radial_family(DSS, ell) is fam
            split = fam.polys
            for p, q in zip(split, _gauge_polys(DSS, ell, 0.0)):
                assert not p.flags.writeable
                np.testing.assert_allclose(np.trim_zeros(p, "f"),
                                           np.trim_zeros(q, "f"), rtol=0,
                                           atol=1e-15 * np.abs(q).max())
        with pytest.raises(spacetime.NoHorizons):
            _radial_family(SpacetimeParams(3.0, 0.0, 0.0, "dSSchwarzschild"), 0)

    def test_dss_shooting_makes_no_mu_tilde_calls(self, monkeypatch):
        # the horizon radii come from spacetime, which evaluates mu~ itself;
        # fix them up front so the count covers the shooting alone
        hd = spacetime.horizon_roots(DSS)
        monkeypatch.setattr(resonances, "horizon_roots", lambda params: hd)
        calls = []
        for mod in (spacetime, resonances):
            def counted(*args, _fn=mod.mu_tilde, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, "mu_tilde", counted)
        oracle_shooting(DSS, 1, 1.3 - 0.4j)
        assert len(calls) == 0


class TestBuildOperator:
    def test_shapes_and_quadratic_structure(self):
        op = build_operator(DS, 0, 40)
        A0, A1 = op.matrices
        assert A0.shape == A1.shape == (41, 41) and op.N == 40
        # the sigma^2 coefficient is the identity, added by `pencil` alone
        s = 0.7 - 0.3j
        np.testing.assert_allclose(op.pencil(s) - (A0 + s * A1),
                                   s * s * np.eye(41),
                                   rtol=0, atol=1e-13 * np.abs(A0).max())

    def test_no_boundary_row_at_horizon(self):
        # the horizon mu = 0 is an interior grid region; every row is a
        # collocation row of the operator (no unit row anywhere)
        op = build_operator(MK, 0, 40)
        A0, _ = op.matrices
        for i in range(41):
            row = A0[i]
            assert np.count_nonzero(np.abs(row) > 1e-14) > 3

    @pytest.mark.parametrize("model, params", MODELS, ids=MODEL_IDS)
    def test_rows_reproduce_operator_on_polynomials(self, model, params):
        # apply the pencil to a polynomial and compare with the analytic
        # value, divided by the sigma^2 coefficient (1 on the one-horizon
        # models), as build_operator divides each row
        op = build_operator(params, 1, 48)
        x = op.grid
        sigma = 0.7 - 0.3j
        coef = np.array([0.3, -1.2, 0.0, 2.0, -0.7])
        u = np.polynomial.polynomial.polyval(x, coef)
        du = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(coef))
        d2u = np.polynomial.polynomial.polyval(
            x, np.polynomial.polynomial.polyder(coef, 2))
        c2, c1, c0 = reference_coeffs(model, params, 1, params.n, x, sigma)
        want = c2 * d2u + c1 * du + c0 * u
        if model == "dSSchwarzschild":
            want /= _dss_sigma2(params, x)
        got = op.pencil(sigma) @ u
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-8)

    @pytest.mark.parametrize("model, params", MODELS[:2], ids=MODEL_IDS[:2])
    def test_absorber_enters_a0_only_where_its_window_lives(self, model, params):
        # a spec adds -iQ to A0 and nothing else: A1 is the spec-free one
        # byte for byte, and A0 moves by a purely imaginary matrix whose rows
        # vanish wherever the absorbing window does
        spec = AbsorbingSpec(digamma_scale=4.0)
        free = build_operator(params, 1, 32)
        op = build_operator(params, 1, 32, spec)
        (F0, F1), (A0, A1) = free.matrices, op.matrices
        assert np.array_equal(A1, F1)
        diff = A0 - F0
        assert not diff.real.any() and diff.imag.any()
        assert not diff[spec.chi(op.grid) == 0].any()
        s = 0.7 - 0.3j
        assert np.array_equal(op.pencil(s), A0 + s * A1 + s * s * np.eye(33))

    def test_no_absorbing_window_on_the_two_horizon_model(self):
        with pytest.raises(ValueError, match="two-horizon"):
            build_operator(DSS, 1, 32, AbsorbingSpec(digamma_scale=4.0))

    def test_unsupported_model(self):
        with pytest.raises(UnsupportedModel):
            build_operator(SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter"), 0, 32)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            build_operator(DS, 0, 8)


class TestSolveResonances:
    def test_static_patch_spectrum(self):
        rl = solve_resonances(DS, 0, 80, (-6, 6, -2.5, 0.5))
        sig = np.array([e.sigma for e in rl.entries])
        assert min(abs(sig - 0.0)) < 1e-9           # the constant mode
        assert min(abs(sig + 2j)) < 1e-7

    def test_sorted_and_delta_recorded(self):
        rl = solve_resonances(DS, 1, 64, (-4, 4, -2.5, 0.5))
        ims = [e.sigma.imag for e in rl.entries]
        assert ims == sorted(ims, reverse=True)
        assert all(np.isfinite(e.convergence_delta) or e.suspect
                   for e in rl.entries)

    def test_empty_region(self):
        rl = solve_resonances(DS, 0, 48, (3.0, 5.0, 0.1, 0.4))
        assert rl.entries == []

    def test_cap_needs_a_judge(self):
        # the top rung is judged on the next ladder member, and 512 has none
        with pytest.raises(ValueError, match="below 512"):
            solve_resonances(DS, 0, 512, (-6, 6, -3.6, 0.4))

    def test_absorber_shifts_poles(self):
        # documents the measured behavior that motivated the absorber-free
        # default: with the multiplication absorber on, the constant mode
        # moves, so the resolvent gate that fires at sigma = 0 on the
        # absorber-free pencil passes there on the absorbed one
        free = solve_resonances(DS, 0, 64, (-0.5, 0.5, -0.4, 0.3))
        assert min(abs(np.array([e.sigma for e in free.entries]))) < 1e-9
        f = np.ones(65, dtype=complex)
        with pytest.raises(NearPole):
            resolvent_apply(build_operator(DS, 0, 64), 0.0, f)
        op = build_operator(DS, 0, 64, AbsorbingSpec(digamma_scale=4.0))
        assert np.isfinite(resolvent_apply(op, 0.0, f)).all()

    def test_no_near_duplicate_rows(self):
        # one pole, one row: a second row 9e-4 from a pole (once seen near
        # -3.2063i), or the mirror of a root on the axis, would be a
        # spurious near-duplicate
        rl = solve_resonances(DSS, 0, 80, (-6, 6, -3.6, 0.4))
        sig = np.array([e.sigma for e in rl.entries])
        gaps = np.abs(sig[:, None] - sig[None, :]) + np.eye(len(sig))
        assert gaps.min() > 1e-2

    def test_converged_set_independent_of_blas_threads(self):
        # the rows a solve certifies must not depend on how BLAS splits its
        # work, and each of them must sit on the lattice -i(1 + j).  The
        # ladder capped at 160 stops at rung 32 (pencils 24, 32 and 48), so
        # no pencil above 48 is built here
        one, two = _converged_at_threads(1), _converged_at_threads(2)
        assert one and len(one) == len(two)
        for z in one:
            assert min(abs(z - w) for w in two) < 1e-7
        for z in one + two:
            assert min(abs(z + 1j * (1 + j)) for j in range(8)) < 1e-6

    def test_simple_pole_converges_at_large_n(self):
        # dS l=0 at cap N=160: the simple pole at -2i is certified and
        # accurate.  The ladder stops at rung 32, judged on the rung-48
        # pencil; a cap above 48 must not change that
        rl = solve_resonances(DS, 0, 160, (-6, 6, -3.6, 0.4))
        near = [e for e in rl.entries if abs(e.sigma + 2j) < 1e-4]
        assert len(near) == 1
        assert near[0].convergence_delta < 1e-6
        assert near[0].multiplicity == 1
        assert abs(near[0].sigma + 2j) < 1e-7

    def test_eigensolve_follows_pencil_structure(self, monkeypatch):
        # every model's pencil is monic and real in tau = -i sigma: each
        # rung the ladder locates on is solved by one real companion QR of
        # size 2(n+1), and the rungs are a prefix of 24, 32, 48 at cap 48;
        # no QZ and no SVD run
        eigs, other = [], []
        real_eigvals = np.linalg.eigvals

        def recording_eigvals(a):
            eigs.append((np.shape(a), a.dtype.kind))
            return real_eigvals(a)
        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        for mod, name in ((scipy.linalg, "eig"), (np.linalg, "svd"),
                          (scipy.linalg, "svd")):
            def counted(*a, _f=getattr(mod, name), _name=name, **k):
                other.append(_name)
                return _f(*a, **k)
            monkeypatch.setattr(mod, name, counted)
        N = 48
        for _, params in MODELS:
            op = build_operator(params, 0, N)
            assert len(op.matrices) == 2 and op.N == N
            assert op.real_in_tau
            rl = solve_resonances(params, 0, N, (-6, 6, -3.6, 0.4))
            rungs = (24, 32, 48)[:len(eigs)]
            assert len(rungs) >= 2 and max(e.N for e in rl.entries) == rungs[-1]
            assert eigs == [((2 * n + 2, 2 * n + 2), "f") for n in rungs]
            eigs.clear()
        assert other == []

    def test_real_pencil_eigenvalues_pair_exactly(self):
        # the real companion in tau gives the eigenvalues in exact pairs
        # sigma, -conj(sigma), and those on the axis with Re sigma = 0
        # exactly; on dSS l=0 at N=80, 7 lie in the padded CLI box: 4 are
        # converged resonances (0, the photon-sphere pair and -2.0836i) and 3
        # are not (near -2.9i and -3.27i)
        key = lambda w: (w.imag, abs(w.real), w.real)
        for _, params in MODELS:
            z = resonances._linearized_eigs(build_operator(params, 0, 80))
            assert sorted(z.tolist(), key=key) == sorted((-z.conj()).tolist(), key=key)
            assert (z.real == 0).any()
        z = resonances._linearized_eigs(build_operator(DSS, 0, 80))
        pad = 0.35
        inside = ((-6 - pad <= z.real) & (z.real <= 6 + pad)
                  & (-3.6 - pad <= z.imag) & (z.imag <= 0.4 + pad))
        assert inside.sum() == 7

    def test_one_companion_is_exact_on_an_absorbed_pencil(self):
        # the tau-companion [[0, I], [A0, i A1]] keeps A0's -iQ: every
        # eigenvalue of the sigma-companion [[0, I], [-A0, -A1]] of the
        # absorbed dS l=0 pencil at N=24 in the CLI box has an eigenvalue of
        # `_linearized_eigs` within 1e-8 max(1, |s|) (measured 1.6e-10; 0.94
        # when the eigensolve dropped -iQ and read A0.real)
        op = build_operator(DS, 0, 24, AbsorbingSpec())
        A0, A1 = op.matrices
        n = len(A0)
        ref = np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)],
                                          [-A0, -A1]]))
        x0, x1, y0, y1 = cli._BOX
        ref = ref[(x0 <= ref.real) & (ref.real <= x1)
                  & (y0 <= ref.imag) & (ref.imag <= y1)]
        assert len(ref) > 0
        z = resonances._linearized_eigs(op)
        for w in ref:
            assert np.abs(z - w).min() <= 1e-8 * max(1.0, abs(w)), w

    def test_mirror_map_calls_f_once_per_pair(self):
        # f runs on the first member of each mirror pair s, -conj(s) and on
        # each axis value (its own mirror); the second member gets reflect
        # of its twin's value, even a None one, and the keys keep the order
        # of `sigmas`
        calls = []

        def f(s):
            calls.append(s)
            return None if s == 2 - 1j else 2 * s
        reflect = lambda v: ("mirror", v)
        sigmas = [1 - 2j, 0.5j, -1 - 2j, -3j, 2 - 1j, -2 - 1j, 1 - 2j]
        got = resonances.mirror_map(f, sigmas, reflect)
        assert calls == [1 - 2j, 0.5j, -3j, 2 - 1j]
        assert list(got.items()) == [
            (1 - 2j, 2 - 4j), (0.5j, 1j), (-1 - 2j, ("mirror", 2 - 4j)),
            (-3j, -6j), (2 - 1j, None), (-2 - 1j, ("mirror", None))]
        # with no mirror in the list, every s is computed, in order
        calls.clear()
        plain = [1 + 1j, -3 + 0.5j, 2 - 4j]
        assert resonances.mirror_map(f, plain, reflect) == {s: 2 * s for s in plain}
        assert calls == plain

    def test_refinement_makes_few_probe_solves(self, monkeypatch):
        # each secant stops once its steps stop shrinking: the Minkowski l=0
        # sector at cap 80 certifies -i, -2i and -3i in 65 probe solves at
        # one BLAS thread, each one zgesv, which _probe_g imports when it
        # builds the probe (68 when each rung built a second pencil to judge
        # its roots)
        calls = []
        real = scipy.linalg.lapack.zgesv

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)
        monkeypatch.setattr(scipy.linalg.lapack, "zgesv", counted)
        rl = solve_resonances(MK, 0, 80, (-6, 6, -3.6, 0.4))
        assert len(rl.converged(1e-6)) == 3
        assert calls
        assert len(calls) <= 68

    @pytest.mark.parametrize("params, cap, sizes, rung", [
        (MK, 80, [24, 32, 48], 32), (DS, 30, [24, 30, 32], 30),
        (MK, 30, [24, 30, 32], 30)],
        ids=["minkowski-cap80", "deSitter-cap30", "minkowski-cap30"])
    def test_one_pencil_per_rung(self, params, cap, sizes, rung, monkeypatch):
        # each pencil is built once and judges the rung below it.  At cap 80
        # the l=0 sector stops at rung 32, judged on the rung-48 pencil.  A
        # cap of 30 is no ladder member: rung 24 is judged on the rung-30
        # pencil, and rung 30, the top, is located on that pencil and judged
        # on 32, the next ladder member; every row is rung 30's
        built = []
        real = resonances.build_operator

        def counted(params, ell, N, *a, **k):
            built.append(N)
            return real(params, ell, N, *a, **k)
        monkeypatch.setattr(resonances, "build_operator", counted)
        rl = solve_resonances(params, 0, cap, (-6, 6, -3.6, 0.4))
        assert built == sizes
        assert rl.entries and {e.N for e in rl.entries} == {rung}

    @pytest.mark.parametrize("model, N, ell", [
        (m, N, ell) for m, N in _TABLES for ell in range(3)], ids=str)
    def test_table_converged_rows_pinned(self, model, N, ell):
        # the converged rows (delta < 1e-6) of each (model, N, ell) of the
        # static tables, which the resolution ladder solves at rungs 24 to
        # 48 below the cap N: one for every lattice point in the CLI box
        # (3, 2 and 1 for ell = 0, 1 and 2), each within 1e-7 of it.  A
        # fixed-N solve at the caps has rows at the rounding floor, whose
        # delta crosses 1e-6 with the BLAS thread count
        rows = solve_resonances(dict(MODELS)[model], ell, N, cli._BOX).entries
        conv = [(e.N, e) for e in rows if e.convergence_delta < 1e-6]
        assert len(conv) == 3 - ell
        if model == "deSitter":
            rates = [ell + 2 * k for k in range(4)] + [ell + 3 + 2 * k
                                                      for k in range(4)]
        else:
            rates = [1 + ell + j for j in range(8)]
        for n, e in conv:
            assert n in (24, 32, 48)
            assert min(abs(e.sigma + 1j * r) for r in rates) < 1e-7


class TestTwoHorizonGauge:
    def test_l2_fundamental_and_its_mirror(self):
        # the dSS l=2 fundamental (photon-sphere) row, and its partner
        # -conj(sigma) bit for bit, with the same delta
        rl = solve_resonances(DSS, 2, 48, (-6, 6, -3.6, 0.4))
        want = 4.0839506033 - 0.8389689868j
        (e,) = [e for e in rl.entries if abs(e.sigma - want) < 1e-7]
        (m,) = [m for m in rl.entries if abs(m.sigma + want.conjugate()) < 1e-7]
        assert m.sigma == -e.sigma.conjugate()
        assert m.convergence_delta == e.convergence_delta < 1e-10
        sigmas = [x.sigma for x in rl.entries]
        assert all(-z.conjugate() in sigmas for z in sigmas if abs(z.real) > 1e-6)

    def test_converged_set_independent_of_gauge(self, monkeypatch):
        # t* = t + h with h' = s / mu is smooth across both future horizons
        # for every s with s(r_-) = 1 and s(r_+) = -1; the resonances do not
        # depend on the choice.  The pencil of s = 1 - 2t + b t (1 - t)
        # (1 - 2t) at b = 0.6 converges on the same rows as the shipped b = 0,
        # at cap N=48 and l = 0 to 2: within the sum of their deltas (1.1e-7
        # on the l=1 pair near 2.295 - 2.632i, where both deltas are 1.7e-7),
        # and within 1e-8 where both deltas are below 1e-8
        real = resonances._radial_family

        def converged(b):
            if b:
                monkeypatch.setattr(resonances, "_radial_family",
                                    lambda params, ell: dataclasses.replace(
                                        real(params, ell),
                                        polys=_gauge_polys(params, ell, b)))
            else:
                monkeypatch.undo()
            return [solve_resonances(DSS, ell, 48, (-6, 6, -3.6, 0.4)).converged(1e-6)
                    for ell in range(3)]
        shipped, other = converged(0.0), converged(0.6)
        monkeypatch.undo()
        for rows, alt in zip(shipped, other):
            assert len(rows) == len(alt) >= 4
            for e in rows:
                f = min(alt, key=lambda f: abs(f.sigma - e.sigma))
                d = abs(f.sigma - e.sigma)
                assert d < e.convergence_delta + f.convergence_delta
                if max(e.convergence_delta, f.convergence_delta) < 1e-8:
                    assert d < 1e-8


    def test_one_row_per_root_in_another_gauge(self, monkeypatch):
        # at b = 0.6 the l=1 root near -3.0428i converges on several rungs
        # that agree on it to less than the same-root distance 1e-4 but more
        # than 1e-6: it is one root, so the cap-80 ladder reports one row
        # (matching rungs at 1e-6 reported it twice)
        real = resonances._radial_family
        monkeypatch.setattr(resonances, "_radial_family",
                            lambda params, ell: dataclasses.replace(
                                real(params, ell),
                                polys=_gauge_polys(params, ell, 0.6)))
        rl = solve_resonances(DSS, 1, 80, (-6, 6, -3.6, 0.4))
        near = [e for e in rl.entries if abs(e.sigma + 3.0428j) < 1e-4]
        assert len(near) == 1


class TestSmallBlackHole:
    def test_grid_right_of_the_centre_converges(self):
        # on [r_- - delta, r_+ + delta], which crossed r = 0, the l=1 root
        # near -i moved 1.3e-3 from N=96 to N=128 (-1.0017085i at N=96);
        # from r_- / 2 it moves 1.4e-11
        roots = [resonances.refine_roots(build_operator(DSS_SMALL, 1, N),
                                         [-0.9999j])[-0.9999j] for N in (96, 128)]
        assert abs(roots[0] + 0.99990j) < 1e-5
        assert abs(roots[1] - roots[0]) < 1e-8

    @pytest.mark.parametrize("ell, row", [
        (0, -2.0492042314041425j), (0, 2.117285848367905 - 2.0924061827072773j),
        (1, -0.9995932444951134j), (1, 5.620145637113351 - 1.9078221167573366j)],
        ids=["l0-axis", "l0-pair", "l1-axis", "l1-pair"])
    def test_oracle_agrees_with_pencil_rows(self, ell, row):
        # rows of the N=128 pencil at r_s = 0.1; the oracle lands within
        # 6.2e-8 of each (on the l0 pair).  With the loop radius 0.3 (r_+ -
        # r_-), whose far end lies left of r = 0, it went from the l0 axis row
        # to -2.0815i and from the l1 pair row to 4.9789 - 4.4619i
        assert abs(oracle_refine(DSS_RS01, ell, row) - row) < 1e-7


class TestOracle:
    def test_nonzero_at_generic_sigma(self):
        assert abs(oracle_shooting(DS, 0, 1.0 + 0.5j)) > 1e-6

    def test_zero_at_constant_mode(self):
        assert abs(oracle_shooting(DS, 0, 1e-8 + 0j)) < 1e-6

    def test_schwarz_reflection(self):
        # the underlying time-gauge family is real, so conjugation reflects the
        # spectral parameter through the imaginary axis; the monodromy
        # detector picks up a sign because conjugation swaps the two
        # semicircles: det(-conj(s)) = -conj(det(s))
        s = 1.3 - 0.4j
        am = oracle_shooting(DSS, 1, s)
        bm = oracle_shooting(DSS, 1, -np.conj(s))
        assert bm == pytest.approx(-np.conj(am), rel=1e-6)

    def test_detects_coincidence_resonance(self):
        # at sigma = -i the l=1 static-patch family has the constant kernel and
        # every solution is horizon-analytic: the monodromy detector must see
        # it even though a midpoint Wronskian of Frobenius branches does not
        z = oracle_refine(DS, 1, -1j)
        assert abs(z + 1j) < 1e-9

    @pytest.mark.parametrize("model, params, ell", [
        ("deSitter", DS, 2), ("minkowski", MK, 0), ("minkowski", MK, 1)],
        ids=["deSitter-l2", "minkowski-l0", "minkowski-l1"])
    def test_brackets_solver_output(self, model, params, ell):
        rl = solve_resonances(params, ell, 80, (-4, 4, -2.5, 0.4))
        conv = rl.converged(1e-6)
        assert conv
        for e in conv:
            z = oracle_refine(params, ell, e.sigma)
            assert abs(z - e.sigma) < 1e-6

    @pytest.mark.parametrize("n", [3, 5])
    def test_reads_dimension_from_params(self, n):
        # the oracle's family is the one in params: a dimension it took
        # from anywhere else would land 0.5 off every Minkowski row
        params = SpacetimeParams(0.0, model="MinkowskiBoundary", n=n)
        conv = solve_resonances(params, 0, 80, (-6, 6, -3.6, 0.4)).converged(1e-6)
        assert conv
        for e in conv:
            assert abs(oracle_refine(params, 0, e.sigma) - e.sigma) < 1e-6

    def test_two_horizon_model(self):
        rl = solve_resonances(DSS, 1, 72, (-4, 4, -2.0, 0.3))
        conv = rl.converged(1e-6)
        assert conv
        for e in conv:
            z = oracle_refine(DSS, 1, e.sigma)
            assert abs(z - e.sigma) < 1e-6


class TestSeriesOracle:
    def test_raw_detector_matches_referee(self):
        # frozen from mpmath series sums at 40 digits along the oracle's
        # path, on the polynomials rebuilt in mpmath from lam and r_s (the
        # horizon radii to 40 digits), not from the float coefficients; the
        # second sigma lies 2.1e-8 from the l=2 row -1.9993490992i
        d0 = oracle_shooting(DSS, 0, 1.3 - 0.4j)
        assert d0 == pytest.approx(10.3602780391 - 24.3897187473j, rel=1e-9)
        d2 = oracle_shooting(DSS, 2, -1.99934912j)
        assert abs(d2 - 5.37925776639e-4j) < 1e-9

    @pytest.mark.parametrize("ell, near", [(0, -2.0839j), (2, -1.9993j)],
                             ids=["l0", "l2"])
    def test_agrees_with_solver_on_dss_rows(self, ell, near):
        # DOP853 started 5e-8 from r+ missed these rows by 5.3e-3 and 1.2e-5
        rows = [e for e in solve_resonances(DSS, ell, 80, (-6, 6, -3.6, 0.4)).entries
                if abs(e.sigma - near) < 1e-3]
        assert len(rows) == 1
        z = oracle_refine(DSS, ell, rows[0].sigma)
        assert abs(z - rows[0].sigma) < 1e-6

    def test_secant_stops_early_on_holomorphic_detector(self, monkeypatch):
        # the detector must be holomorphic in sigma: dividing it by a norm of
        # the end values made the secant run to maxit here (62 shootings)
        calls = []
        real = resonances.oracle_shooting

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)
        monkeypatch.setattr(resonances, "oracle_shooting", counted)
        z = oracle_refine(DSS, 2, -1.9993491155321927j)
        assert abs(z + 1.9993491155321927j) < 1e-6
        assert len(calls) <= 10

    def test_refinement_starts_at_the_row(self, monkeypatch):
        # one refinement per mirror pair of the dSS table (cap 80, l 0-2),
        # as `qnmkit resonances` runs it: started at the row, the secant
        # averaged 4.67 shootings a row, 6.25 from (sigma + 1e-4 + 1e-4i,
        # sigma + 2e-4), and its roots lie within 9.8e-14 of that start's
        real = resonances.oracle_shooting
        calls = []

        def counted(*a, **k):
            calls.append(1)
            return real(*a, **k)
        monkeypatch.setattr(resonances, "oracle_shooting", counted)
        refined = []
        for ell in (0, 1, 2):
            def refine(s, ell=ell):
                z = oracle_refine(DSS, ell, s)
                old = resonances._secant(lambda t: real(DSS, ell, t),
                                         s + 1e-4 + 1e-4j, s + 2e-4)
                assert abs(z - old) <= 1e-12 * max(1.0, abs(old))
                tol = resonances._TRUST_TOL
                assert (abs(z - s) < tol) == (abs(old - s) < tol)
                refined.append(s)
            rows = solve_resonances(DSS, ell, 80, cli._BOX).entries
            resonances.mirror_map(refine, [e.sigma for e in rows], lambda _: None)
        assert len(refined) == 12
        assert len(calls) <= 5 * len(refined)

    def test_no_ode_integration(self, monkeypatch):
        calls = []

        def counted(*a, _f=scipy.integrate.solve_ivp, **k):
            calls.append(1)
            return _f(*a, **k)
        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)
        monkeypatch.setattr(resonances, "solve_ivp", counted, raising=False)
        oracle_refine(DSS, 1, -0.9984168260900195j)
        assert calls == []

    @pytest.mark.parametrize("model, params", MODELS + [
        ("dSS-rs0.05", DSS_SMALL), ("dSS-rs0.1", DSS_RS01)],
        ids=MODEL_IDS + ["dSS-rs0.05", "dSS-rs0.1"])
    def test_loop_winds_once_around_the_horizon_only(self, model, params):
        # the upper half followed by the lower half reversed must enclose the
        # horizon and no other root of c2, or the two end values would not
        # differ by the monodromy about the horizon alone; on a small black
        # hole the root r = 0 lies within 0.3 (r_+ - r_-) of the horizon
        fam = _radial_family(params, 0)
        _, horizon, end, rad = fam.loop
        paths = [(horizon + rad, horizon + 1j * half * rad, end)
                 for half in (+1.0, -1.0)]
        roots = np.roots(fam.polys[0])
        # the plan's halves are the steps of these two paths, and _walk
        # lands each path exactly on its far end
        legs = tuple(tuple(resonances._walk(roots.tolist(), path, False))
                     for path in paths)
        assert legs == resonances._oracle_plan(params, 0).legs[1:]
        up, down = ([z for z, _, _ in leg] + [path[-1]]
                    for leg, path in zip(legs, paths))
        assert up[0] == down[0] and up[-1] == down[-1]
        loop = np.array(up + down[::-1])
        for r in roots:
            turn = np.angle((loop[1:] - r) / (loop[:-1] - r)).sum() / (2 * np.pi)
            assert turn == pytest.approx(1.0 if abs(r - horizon) < 1e-12 else 0.0,
                                         abs=1e-12)

    @pytest.mark.parametrize("model, params", MODELS, ids=MODEL_IDS)
    def test_shooting_makes_eighteen_series_steps(self, model, params):
        # on dSS a waypoint 0.0082 from the root r = 0 of c2 made it 36
        plan = resonances._oracle_plan(params, 1)
        assert sum(len(leg) for leg in plan.legs) == len(plan.h) == 18

    @pytest.mark.parametrize("model, params", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_detector_matches_scalar_referee(self, model, params, ell):
        # the banded solve against one Python recurrence a step, summed term
        # by term, at 20 seeded sigma in the CLI box.  On dSS the two differ
        # by up to 5.4e-12 of the end values (2.4e-14 on the one-horizon
        # models): both round the same float coefficients, and near the
        # box's corners the solution is that sensitive to them
        tol = 2e-11 if model == "dSSchwarzschild" else 1e-12
        rng = np.random.default_rng(20 + ell)
        for sigma in rng.uniform(-6, 6, 20) + 1j * rng.uniform(-3.6, 0.4, 20):
            (u_up, du_up), (u_dn, du_dn) = _referee_ends(params, ell, sigma)
            want = (u_up - u_dn) + 0.37 * (du_up - du_dn)
            scale = max(abs(u_up), abs(du_up), abs(u_dn), abs(du_dn))
            assert abs(oracle_shooting(params, ell, sigma) - want) <= tol * scale

    @pytest.mark.parametrize("ell, sigma, want, scale", [
        (0, -5.940340650486985 - 2.899054817097599j,
         750.1476000353059 - 14.705108416889377j, 2231.9),
        (0, 5.835460367600962 - 2.411491438624295j,
         -857.4041872102064 - 1496.6059865656628j, 5115.8),
        (1, -4.930825524933493 - 3.5989419840781927j,
         -10.117792272523905 - 12.44307474709251j, 45.40)],
        ids=["l0-west", "l0-east", "l1-south"])
    def test_dss_detector_matches_40_digit_sum(self, ell, sigma, want, scale):
        # frozen from the same series (same plan, same float coefficients)
        # summed with mpmath at 40 digits; scale is the largest end value.
        # The banded solve reads 1.8e-14, 1.1e-14 and 4.7e-13 of it here, the
        # scalar referee 1.4e-14, 6.6e-15 and 2.2e-13; the referee test's
        # 2e-11 bound would miss a loss this one catches
        assert abs(oracle_shooting(DSS, ell, sigma) - want) <= 5e-12 * scale

    def test_taylor_shift_and_series_step(self):
        # synthetic division against numpy's derivatives, and one series step
        # of u'' = -u (c2 = 1, c1 = 0, c0 = 1) against cos and sin
        p = np.array([2.0, -1.0, 0.5, 3.0, -4.0])
        z = 0.3 - 0.7j
        want = [np.polyval(np.polyder(p, k), z) / math.factorial(k)
                for k in range(len(p))]
        np.testing.assert_allclose(resonances._taylor_at(p, z), want, rtol=1e-14)
        h = 0.4 + 0.2j
        plan = resonances._SeriesPlan.of(_split([1.0], [0.0], [1.0]),
                                         [[(0.1, h, False)]])
        (u, du), = resonances._continue(plan, 0.0, (1.0, 0.0))
        assert abs(u - np.cos(h)) < 1e-15 and abs(du + np.sin(h)) < 1e-15

    def test_term_count_doubles_until_the_stop_rule_holds(self):
        # u'' = -u over h = 20: the terms 20^n / n! are still 1.7e-15 at
        # n = 80, so the first solve fails the stop rule and 160 terms pass
        plan = resonances._SeriesPlan.of(_split([1.0], [0.0], [1.0]),
                                         [[(0.0, 20.0, False)]])
        (u, du), = resonances._continue(plan, 0.0, (1.0, 0.0))
        K = resonances._SERIES_TERMS
        assert sorted(plan._bands) == [K, 2 * K]
        # the terms peak at 4.3e7, so the sums keep about 8 digits
        assert abs(u - np.cos(20.0)) < 1e-7 and abs(du + np.sin(20.0)) < 1e-7

    def test_frobenius_coincidence_raises(self):
        # x u'' + (1 - k) u' + u = 0 has exponents 0 and k at x = 0: for the
        # integer k = 2 the divisor n (n - 1 + c1(0)) vanishes at n = 2
        plan = resonances._SeriesPlan.of(_split([1.0, 0.0], [-1.0], [1.0]),
                                         [[(0.0, 0.1, True)]])
        with pytest.raises(resonances.StiffFailure, match="coincidence"):
            resonances._continue(plan, 0.0)

    @pytest.mark.parametrize("h, why", [(0.12, "did not converge"),
                                        (0.5, "overflowed")])
    def test_step_past_the_radius_raises(self, h, why):
        # x u'' + u = 0 about 0.1 has radius 0.1: its terms grow like
        # (h / 0.1)^n, by 1.2^2000 = 1e158 at most, or overflow
        plan = resonances._SeriesPlan.of(_split([1.0, 0.0], [0.0], [1.0]),
                                         [[(0.1, h, False)]])
        with pytest.raises(resonances.StiffFailure, match=why):
            resonances._continue(plan, 0.0, (1.0, 1.0))

    def test_refined_roots_independent_of_blas_threads(self):
        # the oracle's banded solve calls BLAS: its roots must not depend on
        # how many threads BLAS may use
        one, two = _oracle_roots_at_threads(1), _oracle_roots_at_threads(2)
        assert one == two


class TestAxis:
    """Rows born on the imaginary axis, and the oracle there."""

    @pytest.mark.parametrize("model, params", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_families_are_real_on_the_axis(self, model, params, ell):
        # c2, c1a, c0a and c0c real, c1b and c0b imaginary, bit for bit: at
        # sigma = i tau every coefficient is real
        c2, c1a, c1b, c0a, c0b, c0c = _radial_family(params, ell).polys
        for p in (c2, c1a, c0a, c0c):
            assert not p.imag.any()
        for p in (c1b, c0b):
            assert not p.real.any()

    @pytest.mark.parametrize("model, params", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_axis_shooting_is_the_whole_loop(self, model, params, ell):
        # at 41 tau across the CLI box, the half loop's detector is the
        # whole loop's bit for bit: the lower half is the conjugate of the
        # upper, and the whole loop's Re is exactly +0.0
        plan = resonances._oracle_plan(params, ell)
        for tau in np.linspace(-3.6, 0.4, 41):
            sigma = complex(0.0, tau)
            _, (u_up, du_up), (u_dn, du_dn) = resonances._continue(plan, sigma)
            assert (u_dn, du_dn) == (u_up.conjugate(), du_up.conjugate())
            whole = complex((u_up - u_dn) + 0.37 * (du_up - du_dn))
            got = oracle_shooting(params, ell, sigma)
            assert got == whole and whole.real == 0.0
            assert math.copysign(1.0, whole.real) == math.copysign(1.0, got.real) == 1.0

    @pytest.mark.parametrize("params, paired", [(DSS, 12), (MK, 0)],
                             ids=["dSS", "minkowski"])
    def test_axis_born_rows_are_written_on_the_axis(self, params, paired,
                                                    monkeypatch):
        # cap 80, l 0-2: each of the 6 axis-born rows reads Re sigma = +0.0,
        # and its Im sigma, delta and rung are those of its secant iterate,
        # which the ladder gives with the projection taken away; every
        # other row, a member of a mirror pair, is its iterate
        got = [solve_resonances(params, ell, 80, cli._BOX).entries
               for ell in range(3)]
        born = set()
        real = resonances._locate

        def unprojected(op, region):
            roots = real(op, region)
            born.update(z for z, axis in roots.items() if axis)
            return dict.fromkeys(roots, False)
        monkeypatch.setattr(resonances, "_locate", unprojected)
        want = [solve_resonances(params, ell, 80, cli._BOX).entries
                for ell in range(3)]
        axis = off = 0
        for g_ell, w_ell in zip(got, want):
            assert len(g_ell) == len(w_ell)
            for g, w in zip(g_ell, w_ell):
                assert (g.convergence_delta, g.N) == (w.convergence_delta, w.N)
                if w.sigma in born:
                    axis += 1
                    assert g.sigma.real == 0.0
                    assert math.copysign(1.0, g.sigma.real) == 1.0
                    assert g.sigma.imag == w.sigma.imag
                else:
                    off += 1
                    assert g.sigma == w.sigma and abs(g.sigma.real) > 1e-6
        assert (axis, off) == (6, paired)

    def test_oracle_refines_axis_rows_on_the_half_loop(self, monkeypatch):
        # an axis row is refined by the complex secant started along the
        # axis: every shooting continues over the 10 steps of leg 0 and the
        # upper half, and the root has Re +0.0; a row of a dSS mirror pair
        # takes the whole 18-step loop
        steps = []
        real = resonances._continue

        def counted(plan, sigma, *a, legs=None, **k):
            steps.append(sum(map(len, plan.legs[:legs])))
            return real(plan, sigma, *a, legs=legs, **k)
        monkeypatch.setattr(resonances, "_continue", counted)
        rows = solve_resonances(DSS, 1, 80, cli._BOX).entries
        on = [e.sigma for e in rows if e.sigma.real == 0.0
              and e.convergence_delta < 1e-6]
        pair = [e.sigma for e in rows if e.sigma.real > 1e-6
                and e.convergence_delta < 1e-6]
        assert on and pair
        steps.clear()
        z = oracle_refine(DSS, 1, on[0])
        assert steps and set(steps) == {10}
        assert z.real == 0.0 and math.copysign(1.0, z.real) == 1.0
        assert abs(z - on[0]) < 1e-6
        steps.clear()
        z = oracle_refine(DSS, 1, pair[0])
        assert steps and set(steps) == {18}
        assert abs(z - pair[0]) < 1e-6

    @pytest.mark.parametrize("params", [DSS, MK], ids=["dSS", "minkowski"])
    def test_axis_refinement_is_the_real_tau_secant(self, params):
        # started along the axis, the complex secant takes the real-tau
        # secant's steps on Im of the detector: over the axis rows of the
        # cap-80 tables, l 0-2, the roots agree bit for bit, Re +0.0
        def real_tau(ell, s0):
            t0 = s0.imag
            f = lambda t: oracle_shooting(params, ell, complex(0.0, t)).imag
            return complex(0.0, resonances._secant(
                f, t0 + 1e-5 * max(1.0, abs(t0)), t0))
        seen = 0
        for ell in range(3):
            for e in solve_resonances(params, ell, 80, cli._BOX).entries:
                if e.sigma.real != 0.0:
                    continue
                seen += 1
                z, want = oracle_refine(params, ell, e.sigma), real_tau(ell, e.sigma)
                assert (z.real, z.imag) == (want.real, want.imag)
                assert math.copysign(1.0, z.real) == 1.0
        assert seen == 6


class TestSecant:
    Z0 = 0.3 - 2.0j

    def test_stops_in_the_rounding_band(self):
        # a simple zero under 1e-12 of deterministic noise: the steps shrink
        # to the noise band of about 3e-10, then wander; the secant must
        # stop there
        for draw in range(40):
            calls = []

            def f(s):
                calls.append(s)
                rng = np.random.default_rng([draw, abs(hash(complex(s)))])
                noise = complex(*rng.standard_normal(2))
                return 3e-3 * (s - self.Z0) * (1.0 + 0.2 * s) + 1e-12 * noise
            s = resonances._secant(f, self.Z0 + 1e-3, self.Z0 + 1.1e-3)
            assert len(calls) <= 15
            assert abs(s - self.Z0) < 1e-9

    def test_never_returns_a_non_finite_point(self):
        # the resolvent probe is infinite where <u, x> = 0, a zero of its
        # denominator and not a root: the secant stops at the iterate before
        for bad in (2, 4):
            calls = []

            def f(s):
                calls.append(s)
                return np.inf if len(calls) == bad else (s - self.Z0) * (2.0 + s)
            s = resonances._secant(f, self.Z0 + 0.5, self.Z0 + 0.4)
            assert len(calls) == bad
            assert s == calls[bad - 2]

    def test_long_steps_are_clamped_to_unit_length(self):
        # the first secant step from (0, 1e-4) on s - 10 would land on the
        # root, 10 away: the clamp walks there in steps of length 1 instead
        calls = []

        def f(s):
            calls.append(s)
            return s - 10.0
        assert resonances._secant(f, 0.0, 1e-4) == 10.0
        steps = np.diff(calls)
        assert len(calls) == 13
        assert np.count_nonzero(np.abs(steps - 1.0) < 1e-12) == 9
        assert steps.max() <= 1.0

    def test_repeated_f_stops_at_the_second_start(self):
        calls = []

        def f(s):
            calls.append(s)
            return 2.0
        assert resonances._secant(f, self.Z0, self.Z0 + 1e-4) == self.Z0 + 1e-4
        assert len(calls) == 2

    def test_start_pair_inside_the_band_is_refined(self):
        # a start pair 5e-7 apart lies inside the 1e-6 band: seeding the
        # shrink test with that spacing returned the second start, 5e-7 off
        z = self.Z0
        s = resonances._secant(lambda t: (t - z) * (t - z - 3.0), z, z + 5e-7)
        assert abs(s - z) < 1e-12

    def test_returns_last_iterate_not_least_residual(self):
        # the judging secant on the next rung starts 1e-9 from the root,
        # where the probe happens to be smaller than anywhere the iteration
        # goes: the start point must not win, or the convergence delta would
        # read exactly 0
        start = self.Z0 + 1e-9

        def f(s):
            if s == start:
                return 1e-15
            rng = np.random.default_rng(abs(hash(complex(s))))
            return (s - self.Z0) + 1e-12 * complex(*rng.standard_normal(2))
        s = resonances._secant(f, start, start + 1e-4)
        assert s != start
        assert abs(s - self.Z0) < 1e-10


class TestResolvent:
    def test_probe_is_zero_on_a_singular_pencil(self):
        # A0 = -s0^2 I and A1 = 0 make L(s0) exactly zero: the LU factor is
        # singular (LAPACK info > 0) and the probe reads 0 there
        s0, n = 1.5 - 0.5j, 17
        op = resonances.DiscretizedOperator(
            DS, 0, np.linspace(-1.0, 1.0, n),
            (-(s0 * s0) * np.eye(n, dtype=complex), np.zeros((n, n), complex)))
        assert not op.pencil(s0).any()
        g = resonances._probe_g(op)
        assert g(s0) == 0
        assert g(s0 + 0.1) != 0

    def test_round_trip(self):
        op = build_operator(DS, 0, 60, TINY)
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        sigma = 2.0 + 1.0j
        f = op.pencil(sigma) @ u0
        u = resolvent_apply(op, sigma, f)
        assert np.linalg.norm(u - u0) / np.linalg.norm(u0) < 1e-8

    def test_residual_contract(self):
        op = build_operator(DS, 0, 60, TINY)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(61) + 1j * rng.standard_normal(61)
        sigma = 1.5 + 0.8j
        u = resolvent_apply(op, sigma, f)
        res = np.linalg.norm(op.pencil(sigma) @ u - f) / np.linalg.norm(f)
        assert res < 1e-10

    @pytest.mark.parametrize("model, params, ell, N", [
        ("deSitter", DS, 0, 48), ("deSitter", DS, 1, 80),
        ("minkowski", MK, 0, 80)], ids=["ds-l0", "ds-l1", "minkowski-l0"])
    def test_resolvent_gated_at_every_converged_root(self, model, params, ell, N):
        # the resolvent and the solver share one pencil: each pole the solver
        # certifies is a near-pole of resolvent_apply on the same operator
        op = build_operator(params, ell, N)
        roots = solve_resonances(params, ell, N, (-6, 6, -3.6, 0.4)).converged(1e-6)
        assert roots
        for e in roots:
            with pytest.raises(NearPole):
                resolvent_apply(op, e.sigma, np.ones(N + 1, dtype=complex))

    def test_near_pole_detected(self):
        op = build_operator(DS, 0, 60, TINY)
        with pytest.raises(NearPole):
            resolvent_apply(op, 0.0 + 0.0j, np.ones(61, dtype=complex))

    @pytest.mark.parametrize("N", [48, 160])
    def test_near_pole_detected_free_pencil(self, N):
        # sigma = 0 is the dS l=0 pole; the absorber-free pencil is singular there
        op = build_operator(DS, 0, N)
        with pytest.raises(NearPole):
            resolvent_apply(op, 0.0 + 0.0j, np.ones(N + 1, dtype=complex))

    @pytest.mark.parametrize("model, params, ell, ell_target", [
        ("deSitter", DS, 0, 1.5), ("deSitter", DS, 1, 2.5),
        ("minkowski", MK, 0, 1.5)], ids=["ds-l0", "ds-l1", "minkowski-l0"])
    def test_no_near_pole_on_expand_contours(self, model, params, ell,
                                             ell_target):
        # the remainder contour Im sigma = -ell_target of `qnmkit expand` at
        # its defaults, and, as a gate check only, the line Im sigma = +0.3
        # above every pole (expand's residual reference is stepped in time
        # and solves no line), each solved as one array over the whole
        # 4000-point line to |Re sigma| = 60 with f = 1; the CLI solves only
        # the pulse window |Re sigma| <= 18.2 of its line, so this checks the
        # gate well beyond it
        op = build_operator(params, ell, 48)
        f = np.ones(49, dtype=complex)
        sig = np.linspace(-60.0, 60.0, 4000)
        for im in (-ell_target, 0.3):
            resolvent_apply(op, sig + 1j * im, f)

    def test_gate_fires_with_distance_to_pole(self):
        # the forward-error estimate grows as about 1.25e-9 ||u|| / distance
        # from the dS l=0 pole at -2i (1.27e-7 ||u|| at 1e-2, 1.25e-5 at
        # 1e-4): below the gate at 1e-2, above it from 1e-4 on
        op = build_operator(DS, 0, 48)
        roots = solve_resonances(DS, 0, 48, (-6, 6, -3.6, 0.4)).converged(1e-6)
        pole = min((e.sigma for e in roots), key=lambda s: abs(s + 2j))
        assert abs(pole + 2j) < 1e-6
        f = np.exp(-((op.grid - 0.5) / 0.15) ** 2).astype(complex)
        resolvent_apply(op, pole + 1e-2, f)
        for d in (1e-4, 1e-6, 1e-8, 1e-10):
            with pytest.raises(NearPole):
                resolvent_apply(op, pole + d, f)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="the referee needs an extended-precision long double")
    @pytest.mark.parametrize("params, ell, sig, pulse, bound", [
        (DS, 0, _expand_sigmas(1.5), (0.5, 0.15), 1e-10),
        (DS, 1, _expand_sigmas(2.5), (0.5, 0.15), 2e-8),
        (MK, 0, _expand_sigmas(1.5), (0.5, 0.15), 1e-9)],
        ids=["ds-l0", "ds-l1", "minkowski-l0"])
    def test_matches_extended_precision_referee(self, params, ell, sig, pulse,
                                                bound):
        # every sigma in one batch against LU solves refined on a clongdouble
        # residual
        op = build_operator(params, ell, 48)
        centre, width = pulse
        f = np.exp(-((op.grid - centre) / width) ** 2).astype(complex)
        U = resolvent_apply(op, sig, f)
        assert U.shape == (len(sig), 49)
        for s, u in zip(sig, U):
            ref = _referee_solve(op, s, f)
            err = np.linalg.norm(u - ref) / np.linalg.norm(ref)
            assert float(err) < bound

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-16,
                        reason="the referee needs an extended-precision long double")
    def test_laurent_coefficient_matches_referee(self):
        # the residue of the Minkowski l=0 expand pole -i, read by
        # `laurent_coefficients` from the 64 circle solves, against the same
        # trapezoid sum over referee solves
        from qnmkit.mellin import _RESIDUE_NODES, _RESIDUE_RADIUS, \
            _RESIDUE_OFFSETS, driven_solve, laurent_coefficients, \
            log_gaussian_pulse_hat
        op = build_operator(MK, 0, 48)
        roots = solve_resonances(MK, 0, 48, (-8, 8, -2.3, 0.5)).converged(1e-6)
        pole = min((e.sigma for e in roots), key=lambda s: abs(s + 1j))
        f0 = np.exp(-((op.grid - 0.5) / 0.15) ** 2)
        c1 = laurent_coefficients(driven_solve(op, f0)(pole + _RESIDUE_OFFSETS))[0]
        r = _RESIDUE_RADIUS * np.exp(2j * np.pi * np.arange(_RESIDUE_NODES)
                                     / _RESIDUE_NODES)
        ref = sum(rk * _referee_solve(op, pole + rk, log_gaussian_pulse_hat(pole + rk) * f0)
                  for rk in r) / _RESIDUE_NODES
        assert float(np.linalg.norm(c1 - ref) / np.linalg.norm(ref)) < 1e-8

    def test_batch_and_scalar_calls_agree(self):
        # (M,) sigma with (M, n) forcing gives (M, n), over two blocks of
        # the back-substitution; a scalar sigma gives (n,); both meet the
        # residual contract, and a forcing of shape (n,) is broadcast
        op = build_operator(DS, 0, 48)
        rng = np.random.default_rng(6)
        B = resonances._SIGMA_BLOCK
        M = B + 188
        sig = rng.uniform(-3, 3, M) + 1j * rng.uniform(0.3, 1.0, M)
        F = rng.standard_normal((M, 49)) + 1j * rng.standard_normal((M, 49))
        U = resolvent_apply(op, sig, F)
        assert U.shape == (M, 49)
        for k in (0, B - 1, B, M - 1):
            u = resolvent_apply(op, sig[k], F[k])
            assert u.shape == (49,)
            for v in (u, U[k]):
                res = np.linalg.norm(op.pencil(sig[k]) @ v - F[k])
                assert res < 1e-10 * np.linalg.norm(F[k])
        assert np.array_equal(resolvent_apply(op, sig, F[0]),
                              resolvent_apply(op, sig, np.tile(F[0], (M, 1))))

    def test_gate_fires_on_an_exact_eigenvalue(self):
        # sigma = i T[k, k] on a 1 x 1 block of the real Schur form (the
        # one nearest tau = -2, the dS l=0 pole -2i): the back-substitution
        # runs at tau = -i sigma and divides by exactly zero there, and the
        # gate refuses the non-finite solve
        op = build_operator(DS, 0, 48)
        T = op.triangular_form.T
        k = min((i for i, size in op.triangular_form.blocks if size == 1),
                key=lambda i: abs(T[i, i] + 2.0))
        sigma = 1j * T[k, k]
        assert abs(T[k, k] + 2.0) < 1e-6
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = resonances._ShiftedFactor(
                op.triangular_form, np.array([sigma])).solve(
                np.ones((49, 1), dtype=complex))
        assert not np.isfinite(raw).any()
        with pytest.raises(NearPole):
            resolvent_apply(op, sigma, np.ones(49, dtype=complex))
        with pytest.raises(NearPole):
            resolvent_apply(op, np.array([1.0 + 0.5j, sigma]),
                            np.ones(49, dtype=complex))

    def test_shared_shifts_keep_every_bit(self, monkeypatch):
        # one factor per sigma block forms the shifts once and runs its four
        # back-substitutions in place; the solves keep every bit of a fresh
        # D per back-substitution with Cramer's rule dividing by det, on the
        # real form (the 64 circle nodes and 607 line points of the dS l=1
        # N=48 expand call) and on the complex one (an absorber, two
        # blocks).  The bits matter: multiplying by a precomputed 1/D on the
        # 1 x 1 blocks and adjugate / det on the 2 x 2 ones instead moves
        # that expand's reconstruction residual from 1.78e-7 to 1.30e-6,
        # above its 1e-6 bound (1/D and 1/det: 6.9e-7)
        import qnmkit.mellin
        from qnmkit.mellin import resonance_expand
        calls = []

        def spy(op, sigma, f):
            calls.append((sigma, f, resolvent_apply(op, sigma, f)))
            return calls[-1][2]
        monkeypatch.setattr(qnmkit.mellin, "resolvent_apply", spy)
        op = build_operator(DS, 1, 48)
        resonance_expand(np.exp(-((op.grid - 0.5) / 0.15) ** 2), op,
                         ell_target=2.5, n_sigma=4000)
        [(sig, f, U)] = calls
        assert U.shape == (64 + 607, 49)
        assert np.array_equal(U, _fresh_shift_solve(op, sig, f))
        absorbed = build_operator(DS, 0, 48, AbsorbingSpec())
        assert absorbed.triangular_form.T.dtype == complex
        rng = np.random.default_rng(7)
        M = resonances._SIGMA_BLOCK + 188
        sig = rng.uniform(-3, 3, M) + 1j * rng.uniform(-1.0, 1.0, M)
        F = rng.standard_normal((M, 49)) + 1j * rng.standard_normal((M, 49))
        assert np.array_equal(resolvent_apply(absorbed, sig, F),
                              _fresh_shift_solve(absorbed, sig, F))

    def test_one_shifted_factor_per_sigma_block(self, monkeypatch):
        # two blocks of sigma: two factors, each serving the solve, the two
        # refinement steps and the forward-error solve
        built, solves = [], []
        init, solve = resonances._ShiftedFactor.__init__, resonances._ShiftedFactor.solve

        def counted_init(self, tf, sig):
            built.append(len(sig))
            init(self, tf, sig)

        def counted_solve(self, *a, **k):
            solves.append(1)
            return solve(self, *a, **k)
        monkeypatch.setattr(resonances._ShiftedFactor, "__init__", counted_init)
        monkeypatch.setattr(resonances._ShiftedFactor, "solve", counted_solve)
        op = build_operator(DS, 0, 48)
        M = resonances._SIGMA_BLOCK + 188
        sig = np.linspace(-3.0, 3.0, M) + 0.5j
        resolvent_apply(op, sig, np.ones(49, dtype=complex))
        assert built == [resonances._SIGMA_BLOCK, 188]
        assert len(solves) == 8

    @pytest.mark.parametrize("params, ell, ell_target", [
        (DS, 0, 1.5), (DS, 1, 2.5), (MK, 0, 1.5), (DSS, 0, 1.5)],
        ids=["ds-l0", "ds-l1", "minkowski-l0", "dss-l0"])
    def test_real_form_agrees_with_complex_form(self, params, ell, ell_target,
                                                monkeypatch):
        # an absorber-free pencil is solved on the real Schur form of its
        # tau-companion, with 2 x 2 blocks for the conjugate pairs of tau;
        # the same companion, assembled in complex arithmetic as on an
        # absorbed pencil, and so reduced to its complex Schur form, gives
        # the same refined solves of the windowed lines and expand's residue
        # circles: within 1e-12 relative on the direct line Im sigma = +0.3
        # (measured at most 1.2e-13), and within the sum of the two
        # forward-error estimates on the remainder line and the circles,
        # where the estimates reach 1.5e-8 of ||u|| and the forms differ by
        # at most 0.105 of that sum
        from qnmkit.mellin import sigma_line
        op = build_operator(params, ell, 48)
        tf = op.triangular_form
        assert tf.T.dtype == float
        assert any(size == 2 for _, size in tf.blocks)
        poles = [e.sigma for e in solve_resonances(
            params, ell, 48, (-8, 8, -ell_target - 0.8, 0.5)).converged(1e-6)
                 if e.sigma.imag > -ell_target]
        assert poles
        monkeypatch.setattr(resonances.DiscretizedOperator, "real_in_tau",
                            property(lambda self: False))
        twin = build_operator(params, ell, 48)
        assert twin.triangular_form.T.dtype == complex
        line = sigma_line(4000)
        line = line[np.abs(line) <= 18.2]
        circle = 1e-2 * np.exp(2j * np.pi * np.arange(64) / 64)
        f = np.exp(-((op.grid - 0.5) / 0.15) ** 2).astype(complex)
        for k, sig in enumerate([line + 0.3j, line - 1j * ell_target]
                                + [p + circle for p in poles]):
            F = np.tile(f, (len(sig), 1))
            (u, e), (v, ev) = (resonances._solve(o, sig, F) for o in (op, twin))
            d = np.linalg.norm(u - v, axis=1)
            bound = 1e-12 * np.linalg.norm(v, axis=1) if k == 0 else e + ev
            assert np.all(d <= bound), k

    @pytest.mark.parametrize("bad", ["sigma", "f"])
    def test_non_finite_input_rejected(self, bad):
        op = build_operator(DS, 0, 48)
        sig = np.array([1.0 + 0.5j, 2.0 + 0.5j])
        F = np.ones((2, 49), dtype=complex)
        if bad == "sigma":
            sig[1] = complex(np.nan, 0.0)
            with pytest.raises(ValueError):
                gluing_check(op, np.inf)
        else:
            F[1, 3] = np.inf
        with pytest.raises(ValueError):
            resolvent_apply(op, sig, F)

    def test_no_svd_in_resolvent_or_gluing(self, monkeypatch):
        # one Schur reduction per operator serves a 4000-sigma line, a
        # 64-node circle and a gluing check; no SVD or condition number is
        # taken anywhere.  The dSS pencil is monic too, and gets its own
        calls = []
        for mod, name in ((np.linalg, "svd"), (np.linalg, "cond"),
                          (scipy.linalg, "svd"), (scipy.linalg, "schur")):
            def counted(*a, _f=getattr(mod, name), _name=name, **k):
                calls.append(_name)
                return _f(*a, **k)
            monkeypatch.setattr(mod, name, counted)
        circle = 2.0 + 1.0j + 1e-2 * np.exp(2j * np.pi * np.arange(64) / 64)
        f = np.ones(49, dtype=complex)
        op = build_operator(DS, 0, 48, AbsorbingSpec())
        resolvent_apply(op, np.linspace(-60.0, 60.0, 4000) + 1.0j, f)
        resolvent_apply(op, circle, f)
        gluing_check(op, 2.0 + 1.0j)
        assert calls == ["schur"]
        op = build_operator(DSS, 0, 48)
        resolvent_apply(op, circle, f)
        gluing_check(op, 2.0 + 1.0j)
        assert calls == ["schur", "schur"]

class TestGluing:
    def test_gated_at_every_converged_root(self):
        op = build_operator(DS, 0, 48)
        roots = solve_resonances(DS, 0, 48, (-6, 6, -3.6, 0.4)).converged(1e-6)
        assert roots
        for e in roots:
            with pytest.raises(NearPole):
                gluing_check(op, e.sigma)


class TestSpectralInvariants:
    def test_strip_finiteness_count_stable(self):
        # the converged count in a fixed rectangle is the same whatever the
        # cap: at 30 the ladder's top rung is 30, judged on 32, and at 64
        # and 80 it stops at rung 32, judged on 48
        counts = []
        for N in (30, 64, 80):
            rl = solve_resonances(DS, 1, N, (-4, 4, -2.5, 0.4))
            counts.append(len(rl.converged(1e-6)))
        assert counts[0] == counts[1] == counts[2] > 0

    def test_no_upper_half_plane_resonances(self):
        rl = solve_resonances(DS, 0, 72, (-5, 5, -1.5, 0.6))
        for e in rl.converged(1e-6):
            assert e.sigma.imag <= 1e-8   # only the boundary mode at 0

    def test_resolvent_holomorphy_proxy(self):
        # discrete Cauchy-Riemann residual of sigma -> R(sigma) f away from poles
        op = build_operator(DS, 0, 56, TINY)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(57) + 1j * rng.standard_normal(57)
        s0, h = 1.3 + 0.9j, 1e-5
        du_re = (resolvent_apply(op, s0 + h, f) - resolvent_apply(op, s0 - h, f)) / (2 * h)
        du_im = (resolvent_apply(op, s0 + 1j * h, f)
                 - resolvent_apply(op, s0 - 1j * h, f)) / (2j * h)
        rel = np.linalg.norm(du_re - du_im) / max(np.linalg.norm(du_re), 1e-300)
        assert rel < 1e-6
