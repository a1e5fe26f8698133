"""Pointwise principal symbols and Hamilton fields for the model families.

Affine phase-space points carry (r, theta, phi, xi, eta, zeta); the
fiber-compactified chart uses nu = 1/|xi|, eta_hat = eta/|xi|,
zeta_hat = zeta/|xi| and the sign of xi, so nu = 0 is fiber infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .spacetime import SpacetimeParams, PolarSingularity, THETA_AXIS_TOL, mu_tilde


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
