"""Collocation resonance solver for the spherically symmetric model families.

The radial operator is discretized by Chebyshev collocation on a grid that
crosses the event horizon(s); no boundary row is imposed at a horizon, so the
polynomial basis itself selects the solutions that extend smoothly across --
the defining feature of the continuation.  Resonances are the values of the
spectral parameter where the sigma-quadratic pencil becomes singular, and the
poles of the resolvent.  The pencil's sigma^2 coefficient is exactly I or
exactly 0, so they are the eigenvalues of its monic companion matrix or of
its linear (N+1) pencil; they are located by that eigensolve, refined by a
secant iteration on the zeros of a scalar resolvent probe 1/<u, A(sigma)^-1 v>,
and validated against an independent two-sided shooting oracle.

Each radial family has polynomial coefficients, whose only singular points are
regular ones at the roots of the principal coefficient.  `_radial_polys` gives
them in closed form, and the pencil (on the grid) and the oracle (by Horner's
rule on scalars along the integration path) evaluate that one set of
polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp, quad
from scipy.linalg import eig, get_lapack_funcs

from .collocation import cheb_grid, barycentric_eval
from .spacetime import SpacetimeParams, mu_tilde, horizon_roots, domain, _mu_coeffs
from .absorption import AbsorbingSpec


class UnsupportedModel(Exception):
    """The eigen-solver only covers the spherically symmetric (alpha = 0) models."""


class SolverFailure(Exception):
    """The eigenvalue routine did not converge."""


class NearPole(Exception):
    """The requested spectral parameter is too close to a resonance."""


class StiffFailure(Exception):
    """The shooting oracle's ODE integration failed."""


# ---------------------------------------------------------------------------
# radial coefficient polynomials, shared by the pencil and the oracle
# ---------------------------------------------------------------------------

def _radial_polys(model: str, params: Optional[SpacetimeParams], ell: int,
                  n: int, sigma: complex):
    """Coefficients (c2, c1, c0) of c2 u'' + c1 u' + c0 u, highest power first.

    deSitter: static-patch model on mu = 1 - r^2 with the s^ell ansatz factored
    out.  minkowski: forward-problem family of the flat boundary model (adjoint
    orientation).  dSSchwarzschild: two-horizon model on r, horizon-regular
    classical gauge c = 0, which keeps the coefficients polynomial and so
    preserves spectral convergence (a blended c is only finitely smooth).
    """
    if model == "deSitter":
        c2 = np.array([-4.0, 4.0, 0.0])
        c1 = np.array([-(2 * n + 2 + 4 * ell) + 4j * sigma, 4.0 - 4j * sigma])
        c0 = np.array([sigma ** 2 + (n - 1 + 2 * ell) * 1j * sigma
                       - ell * (ell + n - 1)])
    elif model == "minkowski":
        c = -1j * (n - 1) / 2.0 - sigma
        c2 = np.array([-4.0, 4.0, 0.0])
        c1 = np.array([-(4.0 + 4j * c + 4 * ell), (2.0 + 4j * c) - 2.0 * (n - 2)])
        c0 = np.array([c * c + 0.25 - ell ** 2 - 2j * c * ell])
    elif model == "dSSchwarzschild":
        if params is None or params.alpha != 0:
            raise UnsupportedModel("the radial family needs alpha = 0")
        c2 = _mu_coeffs(params)                                 # mu~
        c1 = np.polyder(c2) + np.array([0.0, 2j * sigma, 0.0, 0.0])   # + 2i sigma r^2
        c0 = np.array([2j * sigma, -ell * (ell + 1.0)])
    else:
        raise UnsupportedModel(f"unknown model {model!r}")
    return c2, c1, c0


def _sigma_split(model, params, ell, n, x):
    """Grid values of c2, c1 = C1a + s C1b and c0 = C0a + s C0b + s^2 C0c."""
    (p2, p1a, p0a), (_, p1p, p0p), (_, _, p0m) = (
        _radial_polys(model, params, ell, n, s) for s in (0.0, 1.0, -1.0))
    C2 = np.polyval(p2, x).astype(complex)
    C1a = np.polyval(p1a, x)
    C1b = np.polyval(p1p, x) - C1a
    C0a = np.polyval(p0a, x)
    C0_1 = np.polyval(p0p, x)
    C0_m = np.polyval(p0m, x)
    C0b = (C0_1 - C0_m) / 2.0
    C0c = (C0_1 + C0_m) / 2.0 - C0a
    return C2, C1a, C1b, C0a, C0b, C0c


def _scalars(polys):
    """The coefficient arrays as lists of Python complex numbers."""
    return [[complex(a) for a in p] for p in polys]


def _horner(p, x):
    """p(x) by Horner's rule on Python scalars, highest power first."""
    v = 0j
    for a in p:
        v = v * x + a
    return v


@dataclass
class DiscretizedOperator:
    """Quadratic pencil A0 + sigma A1 + sigma^2 A2 for P_sigma - iQ_sigma."""

    model_id: str
    ell: int
    grid: np.ndarray
    matrices: tuple                 # (A0, A1, A2) with the absorber included
    absorption_spec: AbsorbingSpec
    n: int
    N: int
    params: Optional[SpacetimeParams]
    D: np.ndarray
    Q: np.ndarray                   # the absorbing matrix itself
    chi_weight: np.ndarray          # cutoff values on the grid

    @cached_property
    def matrices_free(self):
        """The pencil without the absorbing term, built once per operator."""
        A0, A1, A2 = self.matrices
        return A0 + 1j * self.Q, A1, A2

    def pencil(self, sigma, with_absorber: bool = True):
        A0, A1, A2 = self.matrices if with_absorber else self.matrices_free
        return A0 + sigma * A1 + sigma * sigma * A2


def build_operator(model: str, params: Optional[SpacetimeParams], ell: int,
                   N: int, spec: Optional[AbsorbingSpec] = None,
                   mu_min: float = -0.6) -> DiscretizedOperator:
    """Assemble the collocation pencil for one angular sector.

    The grid spans the horizon: [mu_min, 1] in mu = 1 - r^2 for the one-horizon
    models (the center r = 0 is the other endpoint), and [r_- - delta, r_+ +
    delta] for the two-horizon model.  Every row is a collocation row of the
    operator; the absorbing term -i q(mu) (1 + scaled second-derivative
    stencil) is supported where the cutoff of `spec` lives (mu < mu0 < 0).
    """
    if N < 16:
        raise ValueError("need N >= 16")
    if spec is None:
        spec = AbsorbingSpec()
    n = 4 if params is None or model == "dSSchwarzschild" else params.n
    if model == "dSSchwarzschild":
        _radial_polys(model, params, ell, n, 0.0)       # rejects alpha != 0
        r_lo, r_hi = domain(params)
        x, D = cheb_grid(N, r_lo, r_hi)
        chi_x = None                     # per-collar windows in r, see below
    else:
        x, D = cheb_grid(N, mu_min, 1.0)
        chi_x = x

    D2 = D @ D
    C2, C1a, C1b, C0a, C0b, C0c = _sigma_split(model, params, ell, n, x)
    A0 = np.diag(C2) @ D2 + np.diag(C1a) @ D + np.diag(C0a)
    A1 = np.diag(C1b) @ D + np.diag(C0b)
    A2 = np.diag(C0c).astype(complex)

    if chi_x is not None:
        w = spec.chi(chi_x)
    else:
        # two-horizon model: one absorbing window in the lower half of each
        # beyond-horizon collar (the attainable mu~ range there is too shallow
        # for the mu-model breakpoints)
        from .absorption import smooth_step
        hd = horizon_roots(params)
        t_in = (x - r_lo) / (hd.r_minus - r_lo)
        t_out = (r_hi - x) / (r_hi - hd.r_plus)
        bump = lambda t: smooth_step((0.5 - t) / 0.15) * smooth_step(t / 0.2 + 1.0)
        w = spec.digamma_scale * (np.where(t_in < 0.55, bump(np.clip(t_in, 0, 1)), 0.0)
                                  + np.where(t_out < 0.55, bump(np.clip(t_out, 0, 1)), 0.0))
    # multiplication plus a second-derivative stencil whose scale matches the
    # quadratic fiber growth of the principal coefficient in the collar
    active = w > 1e-12 * max(spec.digamma_scale, 1e-30)
    lsc2 = float(np.mean(np.abs(C2)[active])) if active.any() else 1.0
    Q = np.diag(w) @ (np.eye(N + 1) - lsc2 * D2)
    A0c = A0 - 1j * Q
    return DiscretizedOperator(model, ell, x, (A0c, A1, A2), spec, n, N,
                               params, D, Q, w)

# ---------------------------------------------------------------------------
# resonance extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resonance:
    sigma: complex
    multiplicity: int
    convergence_delta: float
    suspect: bool = False


@dataclass
class ResonanceList:
    entries: list = field(default_factory=list)

    def converged(self, tol: float = 1e-6) -> list:
        return [e for e in self.entries if e.convergence_delta < tol]

    def sigmas(self) -> np.ndarray:
        return np.array([e.sigma for e in self.entries])


def _linearized_eigs(A0, A1, A2):
    """Finite eigenvalues of A0 + s A1 + s^2 A2, read from the structure of A2.

    `build_operator` makes A2 exactly I (deSitter, minkowski: the sigma^2
    coefficient of c0 is 1) or exactly 0 (dSSchwarzschild, gauge c = 0).
    A2 = I: the eigenvalues of the monic companion [[0, I], [-A0, -A1]],
    which LAPACK's geev balances itself.  A2 = 0: the (N+1) linear pencil
    -A0 - s A1 by QZ, with each row scaled by the inverse of its largest
    entries in A0 and A1, since ggev does not balance; unscaled, the N^4
    spread of the collocation rows puts spurious eigenvalues in the box.
    """
    Nn = A0.shape[0]
    try:
        if not A2.any():
            S = 1.0 / np.maximum(np.max(np.abs(A0), axis=1)
                                 + np.max(np.abs(A1), axis=1), 1e-300)
            return eig(-S[:, None] * A0, S[:, None] * A1, right=False)
        if np.array_equal(A2, np.eye(Nn)):
            Z = np.zeros((Nn, Nn), dtype=complex)
            return np.linalg.eigvals(np.block([[Z, np.eye(Nn)], [-A0, -A1]]))
    except np.linalg.LinAlgError as exc:   # pragma: no cover
        raise SolverFailure(str(exc)) from exc
    raise UnsupportedModel("the eigensolve needs a pencil with A2 = I or A2 = 0")


def _probe_g(A0, A1, A2):
    Nn = A0.shape[0]
    rng = np.random.default_rng(7)
    u = rng.standard_normal(Nn) + 1j * rng.standard_normal(Nn)
    v = rng.standard_normal(Nn) + 1j * rng.standard_normal(Nn)
    def g(s):
        A = A0 + s * A1 + s * s * A2
        try:
            x = np.linalg.solve(A, v)
        except np.linalg.LinAlgError:
            return 0.0 + 0.0j
        denom = u.conj() @ x
        if denom == 0:
            return np.inf
        return 1.0 / denom
    return g


def _refine_root(g, s0, maxit: int = 80, step: float = 1e-4):
    """Secant iteration on the scalar resolvent probe; zeros sit at the poles."""
    s1, s2 = s0, s0 + step
    g1, g2 = g(s1), g(s2)
    best = (abs(g1), s1)
    for _ in range(maxit):
        if g2 == g1 or not np.isfinite(g2):
            break
        s3 = s2 - g2 * (s2 - s1) / (g2 - g1)
        if not np.isfinite(s3):
            break
        # clamp wild steps to keep the iteration in the basin
        if abs(s3 - s2) > 1.0:
            s3 = s2 + (s3 - s2) / abs(s3 - s2)
        s1, g1 = s2, g2
        s2, g2 = s3, g(s3)
        if abs(g2) < best[0]:
            best = (abs(g2), s2)
        if abs(s2 - s1) < 1e-13 * max(1.0, abs(s2)):
            break
    return best[1]


def _kernel_dim(A):
    """Numerical kernel dimension against the median singular value.

    The collocation pencil's largest singular values scale like N^4, so the
    meaningful smallness scale is the bulk level, not sv[0].
    """
    sv = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(sv < 1e-8 * np.median(sv)))


def _locate(A0, A1, A2, region):
    """Roots in `region`: pencil eigenvalues, refined and kernel-gated.

    The eigensolve, the resolvent probe and the SVD gate all run on the
    pencil as `build_operator` makes it.
    """
    x0, x1, y0, y1 = region
    pad = 0.35
    cands = [complex(z) for z in _linearized_eigs(A0, A1, A2)
             if np.isfinite(z) and x0 - pad <= z.real <= x1 + pad
             and y0 - pad <= z.imag <= y1 + pad]
    g = _probe_g(A0, A1, A2)
    roots = []
    for c in sorted(cands, key=abs):
        s = _refine_root(g, c)
        if not np.isfinite(s):
            continue
        kdim = _kernel_dim(A0 + s * A1 + s * s * A2)
        if kdim == 0:
            continue
        if not (x0 - 1e-8 <= s.real <= x1 + 1e-8 and y0 - 1e-8 <= s.imag <= y1 + 1e-8):
            continue
        if all(abs(s - r[0]) > 1e-6 for r in roots):
            roots.append((s, kdim))
    return roots


def solve_resonances(op: DiscretizedOperator, region=(-6.0, 6.0, -4.0, 0.5),
                     with_absorber: bool = False) -> ResonanceList:
    """Locate pencil singularities in a rectangle and tag their convergence.

    Works on the absorber-free pencil by default: the multiplication-type
    discrete absorber shifts pole locations at its coupling strength, far above
    the convergence tolerances, while the horizon-crossing smooth-basis
    quantization needs no absorber (see the Q-independence tests for where the
    absorber does act).  Each pencil eigenvalue is refined once, by the
    secant on the resolvent probe, and kept when the pencil there has a
    numerical kernel, whose dimension is the reported multiplicity.
    `convergence_delta` is |s_ref - s|, where s_ref is the secant on the
    pencil rebuilt at N + dN points, dN = max(8, N // 4), started from s, or
    inf when the pencil has no numerical kernel at s_ref.
    """
    A0, A1, A2 = op.matrices if with_absorber else op.matrices_free
    roots = _locate(A0, A1, A2, region)

    dN = max(8, op.N // 4)
    op2 = build_operator(op.model_id, op.params, op.ell, op.N + dN,
                         op.absorption_spec, mu_min=float(op.grid[0])
                         if op.model_id != "dSSchwarzschild" else -0.6)
    B0, B1, B2 = op2.matrices if with_absorber else op2.matrices_free
    g2 = _probe_g(B0, B1, B2)
    entries = []
    for s, kdim in roots:
        s_ref = _refine_root(g2, s)
        A = B0 + s_ref * B1 + s_ref ** 2 * B2
        delta = abs(s_ref - s) if _kernel_dim(A) > 0 else np.inf
        entries.append(Resonance(s, kdim, float(delta),
                                 suspect=bool(delta > 1e-4)))
    entries.sort(key=lambda e: (-e.sigma.imag, abs(e.sigma.real)))
    return ResonanceList(entries)


# ---------------------------------------------------------------------------
# two-sided shooting oracle
# ---------------------------------------------------------------------------

def _frobenius_start(polys, x0: float, eps: float):
    """Second-order Taylor data of the branch analytic at the degenerate endpoint x0."""
    p2, p1, p0 = polys
    C1 = complex(np.polyval(p1, x0))
    C0 = complex(np.polyval(p0, x0))
    if abs(C1) < 1e-12:
        raise StiffFailure("indicial coincidence at the endpoint; perturb sigma")
    w0 = 1.0 + 0.0j
    w1 = -C0 * w0 / C1
    dC2, dC1, dC0 = (complex(np.polyval(np.polyder(p), x0)) for p in polys)
    denom = dC2 + C1
    num = dC1 * w1 + dC0 * w0 + C0 * w1
    # near an indicial coincidence the second-order recursion degenerates;
    # fall back to first-order data rather than inject the wrong branch
    w2 = -num / denom if abs(denom) > 1e-6 * max(1.0, abs(num)) else 0.0
    w_eps = w0 + eps * w1 + 0.5 * eps * eps * w2
    dw_eps = w1 + eps * w2
    return [w_eps, dw_eps]


def _integrate_branch(polys, x0: float, x1: float, tol: float,
                      eps_frac: float = 1e-7):
    p2, p1, p0 = _scalars(polys)

    def rhs(x, y):
        x = float(x)
        u, du = y.tolist()
        return [du, (-_horner(p1, x) * du - _horner(p0, x) * u) / _horner(p2, x)]
    eps = eps_frac * (x1 - x0)
    y0 = _frobenius_start(polys, x0, eps)
    sol = solve_ivp(rhs, [x0 + eps, x1], y0, method="DOP853",
                    rtol=tol, atol=1e-14, dense_output=False)
    if not sol.success:
        raise StiffFailure(sol.message)
    return sol.y[:, -1]


def _integrate_complex_path(polys, path, y0, tol: float):
    """Integrate the radial ODE along a piecewise-linear complex path.

    `path` is a list of complex waypoints; the coefficients are polynomial in
    the radius so the solutions continue analytically off the real axis.
    """
    p2, p1, p0 = _scalars(polys)
    y = np.asarray(y0, dtype=complex)
    for z0, z1 in zip(path[:-1], path[1:]):
        z0, dz = complex(z0), complex(z1 - z0)

        def rhs(t, w):
            x = z0 + float(t) * dz
            u, du = w.tolist()
            return [dz * du,
                    dz * (-_horner(p1, x) * du - _horner(p0, x) * u) / _horner(p2, x)]
        sol = solve_ivp(rhs, [0.0, 1.0], y, method="DOP853", rtol=tol, atol=1e-14)
        if not sol.success:
            raise StiffFailure(sol.message)
        y = sol.y[:, -1]
    return y


def _oracle_geometry(model, params):
    """(regular end, horizon, far end, detour radius) of the shooting path."""
    if model == "dSSchwarzschild":
        hd = horizon_roots(params)
        rad = 0.3 * (hd.r_plus - hd.r_minus)
        return hd.r_plus, hd.r_minus, hd.r_minus - 0.6 * rad, rad
    return 1.0, 0.0, -0.35, 0.35


def oracle_shooting(model: str, params: Optional[SpacetimeParams], ell: int,
                    sigma: complex, n: int = 4, tol: float = 1e-12) -> complex:
    """Monodromy determinant of the regular branch continued around the horizon.

    The branch fixed by the analytic Frobenius data at the regular end is
    integrated to the far side of the horizon along the upper and the lower
    complex semicircle; the normalized difference of the two frames vanishes
    exactly when the branch extends analytically across the horizon, which is
    the defining property of a resonance.  This remains valid at indicial
    coincidences, where a midpoint Wronskian of two one-sided Frobenius
    branches can fail to vanish.
    """
    polys = _radial_polys(model, params, ell, n, sigma)
    start, sing, end, rad = _oracle_geometry(model, params)
    # real leg from the regular end to the circle entry
    entry = sing + rad if start > sing else sing - rad
    y_entry = _integrate_branch(polys, start, entry, tol)
    out = []
    for half in (+1.0, -1.0):
        mid = sing + 1j * half * rad * (1.0 if start > sing else -1.0)
        path = [entry, mid, 2.0 * sing - entry, end]
        out.append(_integrate_complex_path(polys, path, y_entry, tol))
    y_up, y_dn = out
    scale = max(np.linalg.norm(y_up), np.linalg.norm(y_dn), 1e-300)
    diff = (y_up - y_dn) / scale
    # fixed functional keeps the detector holomorphic in sigma
    return complex(diff[0] + 0.37 * diff[1])


def oracle_refine(model: str, params, ell: int, sigma0: complex, n: int = 4,
                  tol: float = 1e-12, maxit: int = 60) -> complex:
    """Secant refinement of a zero of the shooting determinant near sigma0."""
    f = lambda s: oracle_shooting(model, params, ell, s, n=n, tol=tol)
    s1 = sigma0 + 1e-4 + 1e-4j
    s2 = sigma0 + 2e-4
    f1, f2 = f(s1), f(s2)
    best = (abs(f1), s1)
    for _ in range(maxit):
        if f2 == f1:
            break
        s3 = s2 - f2 * (s2 - s1) / (f2 - f1)
        if not np.isfinite(s3) or abs(s3 - sigma0) > 0.5:
            break
        s1, f1 = s2, f2
        s2, f2 = s3, f(s3)
        if abs(f2) < best[0]:
            best = (abs(f2), s2)
        if abs(s2 - s1) < 1e-13 * max(1.0, abs(s2)):
            break
    return best[1]


# ---------------------------------------------------------------------------
# resolvent, gluing, and the cutoff-resolvent correspondence
# ---------------------------------------------------------------------------

_RCOND_MIN = 1e-13


def _gated_solver(A: np.ndarray, sigma: complex) -> Callable:
    """b -> A^-1 b from one LAPACK LU of the pencil A, or NearPole.

    The gate reads the LU itself: an exactly zero pivot, or the 1-norm
    reciprocal condition number that `gecon` estimates on it (Hager-Higham)
    below _RCOND_MIN.
    """
    A = np.asarray_chkfinite(A)
    getrf, gecon, lange, getrs = get_lapack_funcs(
        ("getrf", "gecon", "lange", "getrs"), (A,))
    lu, piv, info = getrf(A)
    if info == 0:
        rcond, info = gecon(lu, lange("1", A), norm="1")
    if info != 0 or rcond < _RCOND_MIN:
        raise NearPole(f"pencil nearly singular at sigma = {sigma}")
    return lambda b: getrs(lu, piv, b)[0]


def resolvent_apply(op: DiscretizedOperator, sigma: complex, f: np.ndarray,
                    with_absorber: bool = True, refine: int = 2) -> np.ndarray:
    """Solve (A0 + sigma A1 + sigma^2 A2) u = f with iterative refinement.

    One LU serves the solve, the `refine` correction steps and the near-pole
    gate: NearPole is raised when LAPACK's estimate of the 1-norm reciprocal
    condition number falls below 1e-13, or when U is exactly singular.  The
    estimate may be off the 2-norm value by up to a factor N + 1 either way,
    so the gate can fire where the 2-norm value is just above 1e-13 (the
    default absorber at sigma = 0, dS l=0, N=110: 4.2e-14 against 1.07e-13).
    """
    A = op.pencil(sigma, with_absorber)
    solve = _gated_solver(A, sigma)
    u = solve(f)
    for _ in range(refine):
        u = u + solve(f - A @ u)
    return u


def gluing_check(op: DiscretizedOperator, sigma: complex,
                 qprime_center: float = 0.5, qprime_width: float = 0.1,
                 qprime_strength: float = 3.0, n_probes: int = 20,
                 seed: int = 0) -> float:
    """Probe-estimated operator norm of the resolvent gluing identity residual.

    Q' is a compactly supported multiplication absorber inside the physical
    region with a cutoff chi == 1 on its support, so the identity
    R = R' - R'(iQ' + Q' chi R chi Q') R' is algebraically exact.
    """
    from .absorption import smooth_step
    x = op.grid
    t_up = smooth_step((x - (qprime_center - qprime_width)) / (0.4 * qprime_width))
    t_dn = smooth_step(((qprime_center + qprime_width) - x) / (0.4 * qprime_width))
    qp = qprime_strength * t_up * t_dn
    chi = np.where(np.abs(x - qprime_center) <= 1.6 * qprime_width, 1.0, 0.0)
    chi = np.maximum(chi, (qp > 0).astype(float))   # chi == 1 on supp q'
    Qp = np.diag(qp).astype(complex)
    CHI = np.diag(chi).astype(complex)
    A = op.pencil(sigma)
    R = _gated_solver(A, sigma)(np.eye(len(x), dtype=complex))
    Rp = np.linalg.inv(A - 1j * Qp)
    rhs = Rp - Rp @ (1j * Qp + Qp @ (CHI @ R @ CHI) @ Qp) @ Rp
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        v = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        worst = max(worst, np.linalg.norm((R - rhs) @ v) / np.linalg.norm(v))
    return worst


def _h_shift(params: SpacetimeParams, r_ref: float):
    """h(r) with h' = -mu~^(-1) r^2 (gauge c = 0), normalized to h(r_ref) = 0."""
    def hp(r):
        return -r * r / mu_tilde(params, r)[0]
    def h(r):
        val, _ = quad(hp, r_ref, r, limit=400, epsabs=1e-13, epsrel=1e-13)
        return val
    return h


def cutoff_correspondence_check(op: DiscretizedOperator, sigma: complex,
                                f_fun: Callable, window=(0.35, 0.75),
                                n_sub: int = 80, tol: float = 1e-12,
                                pad_frac: float = 0.2) -> float:
    """Discrete analogue of the cutoff-resolvent correspondence.

    Side one applies the full-grid collocation resolvent to f (supported in the
    window).  Side two solves, on an interior subgrid in the original
    time-gauge (conjugated by e^{i sigma h}), the boundary-value problem whose
    Robin data comes from the two shooting branches, and undoes the conjugation
    with the sign convention of the correspondence.  Returns the max pointwise
    discrepancy over the window.
    """
    if op.model_id != "dSSchwarzschild":
        raise UnsupportedModel("the correspondence check runs on the two-horizon model")
    params = op.params
    hd = horizon_roots(params)
    polys = _radial_polys(op.model_id, params, op.ell, op.n, sigma)

    # side 1: full-grid resolvent
    f_grid = np.array([f_fun(r) for r in op.grid], dtype=complex)
    u1 = resolvent_apply(op, sigma, f_grid)

    # interior window in r
    a = hd.r_minus + window[0] * (hd.r_plus - hd.r_minus)
    b = hd.r_minus + window[1] * (hd.r_plus - hd.r_minus)
    pad = pad_frac * (hd.r_plus - hd.r_minus)
    ra, rb = a - pad, b + pad
    xs, Ds = cheb_grid(n_sub, ra, rb)
    D2s = Ds @ Ds

    # the original-gauge (t~) operator: P_g = -[(mu~ v')' + s^2 r^4/mu~ v - l(l+1) v]
    mt, dmt, _ = mu_tilde(params, xs)
    ell = op.ell
    Pg = -(np.diag(mt) @ D2s + np.diag(dmt) @ Ds
           + np.diag(sigma ** 2 * xs ** 4 / mt - ell * (ell + 1.0)).astype(complex))

    # conjugation weight e^{i sigma h(r)} on the subgrid
    r_ref = 0.5 * (ra + rb)
    hfun = _h_shift(params, r_ref)
    hvals = np.array([hfun(r) for r in xs])
    E = np.exp(1j * sigma * hvals)

    # shooting branches analytic at each horizon, conjugated into the t~ gauge
    def branch_frame(x0, xe):
        y = _integrate_branch(polys, x0, xe, tol)
        hv = hfun(xe)
        hp = -xe * xe / mu_tilde(params, xe)[0]
        W = np.exp(-1j * sigma * hv) * y[0]
        dW = np.exp(-1j * sigma * hv) * (y[1] - 1j * sigma * hp * y[0])
        return W, dW

    W_lo, dW_lo = branch_frame(hd.r_minus, ra)
    W_hi, dW_hi = branch_frame(hd.r_plus, rb)

    fsub = np.array([f_fun(r) for r in xs], dtype=complex)
    M = Pg.copy()
    rhs = -np.exp(-1j * sigma * hvals) * fsub   # P_g u_g = -e^{-i s h} f
    # Robin rows: proportionality to the outgoing branch at each end
    M[0, :] = -W_lo * Ds[0, :]
    M[0, 0] += dW_lo
    rhs[0] = 0.0
    M[-1, :] = -W_hi * Ds[-1, :]
    M[-1, -1] += dW_hi
    rhs[-1] = 0.0
    ug = np.linalg.solve(M, rhs)
    ug = ug + np.linalg.solve(M, rhs - M @ ug)
    u2 = E * ug    # u = -e^{i s h} R_g e^{-i s h} f with R_g = P_g^{-1}

    # compare on the window
    mask = (op.grid >= a) & (op.grid <= b)
    u2_on_main = barycentric_eval(xs, u2, op.grid[mask])
    return float(np.max(np.abs(u1[mask] - u2_on_main)))
