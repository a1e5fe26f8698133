"""Pointwise principal symbols and Hamilton fields for the model families.

Affine phase-space points carry (r, theta, phi, xi, eta, zeta); the
fiber-compactified chart uses nu = 1/|xi|, eta_hat = eta/|xi|,
zeta_hat = zeta/|xi| and the sign of xi, so nu = 0 is fiber infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .spacetime import (SpacetimeParams, PolarSingularity,
                        THETA_AXIS_TOL, mu_tilde, horizon_roots)


@dataclass(frozen=True)
class PhasePoint:
    r: float
    theta: float
    phi: float
    xi: float
    eta: float
    zeta: float

    def __post_init__(self):
        if min(self.theta, math.pi - self.theta) < THETA_AXIS_TOL:
            raise PolarSingularity("phase point on the axis")

    def compactify(self) -> "CompactPhasePoint":
        ax = abs(self.xi)
        if ax == 0:
            raise ValueError("cannot compactify a point with xi = 0")
        return CompactPhasePoint((self.r, self.theta, self.phi), 1.0 / ax,
                                 self.eta / ax, self.zeta / ax,
                                 1 if self.xi > 0 else -1)


@dataclass(frozen=True)
class CompactPhasePoint:
    base: tuple
    nu: float
    eta_hat: float
    zeta_hat: float
    sign_xi: int

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.sign_xi not in (-1, 1):
            raise ValueError("sign_xi must be +-1")

    def affine(self) -> PhasePoint:
        if self.nu == 0:
            raise ValueError("point at fiber infinity has no affine chart image")
        r, theta, phi = self.base
        return PhasePoint(r, theta, phi, self.sign_xi / self.nu,
                          self.eta_hat / self.nu, self.zeta_hat / self.nu)


@dataclass(frozen=True)
class SemiclassicalPoint:
    point: PhasePoint
    z: complex
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")


def _kds_pieces(params: SpacetimeParams, r, theta):
    gamma = params.gamma
    mt, dmt, _ = mu_tilde(params, r)
    kappa = 1.0 + gamma * math.cos(theta) ** 2
    dkappa = -2.0 * gamma * math.sin(theta) * math.cos(theta)
    st2 = math.sin(theta) ** 2
    return gamma, mt, dmt, kappa, dkappa, st2


def kds_classical_symbol(params: SpacetimeParams, pt: PhasePoint,
                         horizon_sign: int = +1) -> float:
    """p = -mu~ xi^2 +- 2(1+gamma) alpha xi zeta - p~."""
    s = 1.0 if horizon_sign > 0 else -1.0
    gamma, mt, _, kappa, _, st2 = _kds_pieces(params, pt.r, pt.theta)
    gp1 = 1.0 + gamma
    ptil = kappa * pt.eta ** 2 + gp1 ** 2 * pt.zeta ** 2 / (kappa * st2)
    return -mt * pt.xi ** 2 + 2.0 * s * gp1 * params.alpha * pt.xi * pt.zeta - ptil


def kds_angular_part(params: SpacetimeParams, pt: PhasePoint) -> float:
    """The conserved angular quantity p~ of the classical symbol."""
    gamma, _, _, kappa, _, st2 = _kds_pieces(params, pt.r, pt.theta)
    return kappa * pt.eta ** 2 + (1.0 + gamma) ** 2 * pt.zeta ** 2 / (kappa * st2)


def kds_full_symbol(params: SpacetimeParams, c, pt: PhasePoint, sigma: complex,
                    horizon_sign: int = +1) -> complex:
    """High-energy symbol with the spectral parameter and shift function c(r)."""
    s = 1.0 if horizon_sign > 0 else -1.0
    gamma, mt, _, kappa, _, st2 = _kds_pieces(params, pt.r, pt.theta)
    gp1 = 1.0 + gamma
    a = params.alpha
    cv = float(c(pt.r)) if callable(c) else float(c)
    xs = pt.xi + s * cv * sigma
    ptil = kappa * pt.eta ** 2 \
        + gp1 ** 2 * (pt.zeta - a * st2 * sigma) ** 2 / (kappa * st2)
    return (-mt * xs * xs
            - 2.0 * s * gp1 * (pt.r ** 2 + a * a) * xs * sigma
            + 2.0 * s * gp1 * a * xs * pt.zeta - ptil)


def kds_semiclassical_symbol(params: SpacetimeParams, c, spt: SemiclassicalPoint,
                             horizon_sign: int = +1) -> complex:
    """Same shape as the full symbol with sigma replaced by the order-one z."""
    return kds_full_symbol(params, c, spt.point, spt.z, horizon_sign)


def kds_classical_gradient(params: SpacetimeParams, pt: PhasePoint,
                           horizon_sign: int = +1):
    """All six partials of the classical symbol, order (r, theta, phi, xi, eta, zeta)."""
    s = 1.0 if horizon_sign > 0 else -1.0
    gamma, mt, dmt, kappa, dkappa, st2 = _kds_pieces(params, pt.r, pt.theta)
    gp1 = 1.0 + gamma
    a = params.alpha
    sth, cth = math.sin(pt.theta), math.cos(pt.theta)
    w = kappa * st2
    dw = dkappa * st2 + 2.0 * kappa * sth * cth
    p_r = -dmt * pt.xi ** 2
    p_th = -(dkappa * pt.eta ** 2 - gp1 ** 2 * pt.zeta ** 2 * dw / w ** 2)
    p_phi = 0.0
    p_xi = -2.0 * mt * pt.xi + 2.0 * s * gp1 * a * pt.zeta
    p_eta = -2.0 * kappa * pt.eta
    p_zeta = 2.0 * s * gp1 * a * pt.xi - 2.0 * gp1 ** 2 * pt.zeta / w
    return np.array([p_r, p_th, p_phi, p_xi, p_eta, p_zeta])


def hamilton_field(params: SpacetimeParams, pt, horizon_sign: int = +1):
    """Hamilton vector of the classical symbol at an affine or compactified point.

    For a PhasePoint the components are d/ds of (r, theta, phi, xi, eta, zeta).
    For a CompactPhasePoint the *rescaled* field nu^(k-1) H_p (k = 2) is
    returned as d/ds of (r, theta, phi, nu, eta_hat, zeta_hat); it is smooth up
    to nu = 0 and at the radial sets its nu-component is -+ sign_xi Gamma_+-
    nu.  MinkowskiBoundary has no such symbol and raises ValueError.
    """
    if params.model == "MinkowskiBoundary":
        raise ValueError("MinkowskiBoundary has no Hamilton flow")
    if isinstance(pt, PhasePoint):
        g = kds_classical_gradient(params, pt, horizon_sign)
        return np.array([g[3], g[4], g[5], -g[0], -g[1], -g[2]])
    r, theta, phi = pt.base
    scaled = PhasePoint(r, theta, phi, float(pt.sign_xi), pt.eta_hat, pt.zeta_hat)
    g = kds_classical_gradient(params, scaled, horizon_sign)
    sr = pt.sign_xi * g[0]
    return np.array([g[3], g[4], g[5],
                     pt.nu * sr,
                     -g[1] + pt.eta_hat * sr,
                     -g[2] + pt.zeta_hat * sr])


# ---------------------------------------------------------------------------
# static-patch (de Sitter) model in the horizon chart mu = 1 - r^2
# ---------------------------------------------------------------------------

def ds_symbol_polar(n: int, mu: float, xi: float, eta_sq: float,
                    sigma: complex = 0.0) -> complex:
    """-4 r^2 mu xi^2 + 4 r^2 sigma xi + sigma^2 - r^-2 |eta|^2 with r^2 = 1 - mu."""
    if n < 3:
        raise ValueError("need spacetime dimension n >= 3")
    r2 = 1.0 - mu
    if r2 <= 0:
        raise ValueError("polar chart needs r > 0; use the Y chart at the origin")
    return -4.0 * r2 * mu * xi ** 2 + 4.0 * r2 * sigma * xi + sigma ** 2 \
        - eta_sq / r2


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


def ds_hamilton_flat(Y, zeta, sigma: float = 0.0):
    """(dY/ds, dzeta/ds) = (2(Y.zeta - sigma) Y - 2 zeta, -2(Y.zeta - sigma) zeta)."""
    Y = np.asarray(Y, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    yz = float(Y @ zeta) - sigma
    return 2.0 * yz * Y - 2.0 * zeta, -2.0 * yz * zeta


def ds_reduced_field(mu: float, xi: float, h_ang: float, z: float = 0.0):
    """Reduced (mu, xi) Hamilton flow of the static-patch symbol.

    The sphere factor only enters through the conserved |eta|^2 = h_ang^2, so
    (mu, xi) close into an autonomous system.
    """
    r2 = 1.0 - mu
    dmu = 4.0 * r2 * (-2.0 * mu * xi + z)
    dxi = -(4.0 * (1.0 - 2.0 * r2) * xi ** 2 - 4.0 * z * xi
            - h_ang ** 2 / r2 ** 2)
    return np.array([dmu, dxi])


def ds_reduced_compact_field(mu: float, nu: float, eta_hat: float, sign_xi: int,
                             z: float = 0.0):
    """Rescaled nu H_p of the reduced static-patch flow in (mu, nu, eta_hat).

    At the radial set (mu = nu = eta_hat = 0) the nu-rate is -4 sign_xi, the
    normalization in which the horizon decay rate equals 4.
    """
    r2 = 1.0 - mu
    s = float(sign_xi)
    # G = nu^2 d(p)/d(mu) at the scaled point (xi = s/nu, |eta| = eta_hat/nu)
    G = -4.0 * (1.0 - 2.0 * mu) - 4.0 * z * s * nu - eta_hat ** 2 / r2 ** 2
    dmu = 4.0 * r2 * (-2.0 * mu * s + z * nu)
    dnu = nu * s * G
    deta = eta_hat * s * G
    return np.array([dmu, dnu, deta])


# ---------------------------------------------------------------------------
# flat boundary model (radial mode coefficients)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCoefficients:
    """sigma-split coefficient arrays of a second-order radial operator.

    Each block is a tuple (c2, c1, c0) of polynomial coefficient arrays in the
    radius (lowest power first), so the operator is
    (A0 + sigma A1 + sigma^2 A2) with Ak = c2_k d^2 + c1_k d + c0_k.
    """

    A0: tuple
    A1: tuple
    A2: tuple

    def apply(self, sigma, s, u, du, d2u):
        c2, c1, c0 = (np.polynomial.polynomial.polyval(s, np.asarray(b, dtype=complex))
                      for b in self.A0)
        out = c2 * d2u + c1 * du + c0 * u
        c2, c1, c0 = (np.polynomial.polynomial.polyval(s, np.asarray(b, dtype=complex))
                      for b in self.A1)
        out += sigma * (c2 * d2u + c1 * du + c0 * u)
        c2, c1, c0 = (np.polynomial.polynomial.polyval(s, np.asarray(b, dtype=complex))
                      for b in self.A2)
        out += sigma ** 2 * (c2 * d2u + c1 * du + c0 * u)
        return out


def minkowski_mode_coeffs(n: int, ell: int) -> RadialCoefficients:
    """Coefficient list of the boundary-model radial operator in s = |Z|.

    The operator (sD_s + sigma - i(n-1)/2)^2 + 1/4 - Delta_Z, restricted to the
    spherical-harmonic sector ell (eigenvalue ell(ell+n-3)) and multiplied by
    s^2 to clear the angular pole; the sigma^2 block is s^2 times the identity
    coefficient.
    """
    if n < 3 or ell < 0:
        raise ValueError("need n >= 3 and ell >= 0")
    c0 = -1j * (n - 1) / 2.0
    # s^2 P = s^2(1-s^2) d^2 + [(n-2)s - (1+2ic)s^3] d + (c^2+1/4)s^2 - l(l+n-3)
    # with c = sigma + c0
    A0 = (np.array([0, 0, 1, 0, -1], dtype=complex),
          np.array([0, n - 2.0, 0, -(1.0 + 2j * c0)], dtype=complex),
          np.array([-ell * (ell + n - 3.0), 0, c0 * c0 + 0.25], dtype=complex))
    A1 = (np.zeros(1, dtype=complex),
          np.array([0, 0, 0, -2j], dtype=complex),
          np.array([0, 0, 2.0 * c0], dtype=complex))
    A2 = (np.zeros(1, dtype=complex),
          np.zeros(1, dtype=complex),
          np.array([0, 0, 1.0], dtype=complex))
    return RadialCoefficients(A0, A1, A2)


def subprincipal_beta(params: SpacetimeParams, horizon_sign: int = +1) -> float:
    """beta_+- = 2 Gamma_+-^(-1) (1+gamma)(r_+-^2 + alpha^2); matches HorizonData."""
    hd = horizon_roots(params)
    return hd.beta(horizon_sign)


# ---------------------------------------------------------------------------
# batch evaluation (CSV in -> CSV out)
# ---------------------------------------------------------------------------

def evaluate_csv(params: SpacetimeParams, path_in, path_out,
                 horizon_sign: int = +1) -> int:
    """Evaluate the classical symbol and Hamilton field for one phase point per row.

    Input columns: r,theta,phi,xi,eta,zeta.  Output appends p and the six field
    components.  Returns the number of rows written.
    """
    import csv
    count = 0
    with open(path_in, newline="") as fi, open(path_out, "w", newline="") as fo:
        reader = csv.reader(fi)
        writer = csv.writer(fo)
        writer.writerow(["r", "theta", "phi", "xi", "eta", "zeta", "p",
                         "dr", "dtheta", "dphi", "dxi", "deta", "dzeta"])
        for row in reader:
            if not row or row[0].strip().startswith(("#", "r")):
                continue
            vals = [float(t) for t in row[:6]]
            pt = PhasePoint(*vals)
            p = kds_classical_symbol(params, pt, horizon_sign)
            H = hamilton_field(params, pt, horizon_sign)
            writer.writerow([f"{v:.17g}" for v in vals + [p] + list(H)])
            count += 1
    return count
