"""Pointwise principal symbols and Hamilton fields for the model families.

Affine phase-space points carry (r, theta, phi, xi, eta, zeta); the
fiber-compactified chart uses nu = 1/|xi|, eta_hat = eta/|xi|,
zeta_hat = zeta/|xi| and the sign of xi, so nu = 0 is fiber infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .spacetime import (SpacetimeParams, PolarSingularity, THETA_AXIS_TOL,
                        mu_tilde, mu_tilde_kernel)


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


def _sq(x):
    """x^2 through libm pow, as Python's x ** 2 rounds it, for a float or an
    array alike (numpy's x ** 2 squares by multiplying and can differ)."""
    return np.float_power(x, 2.0)


def _kds_angular(params: SpacetimeParams, theta):
    gamma = params.gamma
    kappa = 1.0 + gamma * _sq(np.cos(theta))
    st2 = _sq(np.sin(theta))
    return gamma, kappa, st2


def _affine_columns(y):
    """(r, theta, xi, eta, zeta), the columns of affine states of shape
    (..., 6)."""
    y = np.asarray(y)
    return y[..., 0], y[..., 1], y[..., 3], y[..., 4], y[..., 5]


def kds_angular_part(params: SpacetimeParams, y) -> np.ndarray:
    """The conserved angular quantity p~ of the classical symbol on an array
    of affine states y (..., 6)."""
    _, theta, _, eta, zeta = _affine_columns(y)
    gamma, kappa, st2 = _kds_angular(params, theta)
    return kappa * _sq(eta) + (1.0 + gamma) ** 2 * _sq(zeta) / (kappa * st2)


def kds_classical_symbol(params: SpacetimeParams, y,
                         horizon_sign: int = +1) -> np.ndarray:
    """p = -mu~ xi^2 +- 2(1+gamma) alpha xi zeta - p~ on an array of affine
    states y (..., 6), as `kds_angular_part`."""
    s = 1.0 if horizon_sign > 0 else -1.0
    r, _, xi, _, zeta = _affine_columns(y)
    mt = mu_tilde(params, r)[0]
    gp1 = 1.0 + params.gamma
    return -mt * _sq(xi) + 2.0 * s * gp1 * params.alpha * xi * zeta \
        - kds_angular_part(params, y)


def hamilton_kernel(params: SpacetimeParams, horizon_sign: int = +1,
                    sign_xi=None):
    """The Hamilton field of the classical symbol as a map on plain float states.

    With sign_xi None the map sends an affine state (r, theta, phi, xi, eta,
    zeta) to its d/ds; with sign_xi = +-1 it sends a compact state (r, theta,
    phi, nu, eta_hat, zeta_hat) to the rescaled field nu^(k-1) H_p (k = 2),
    reading a nu below 0 (an integrator stage past fiber infinity) as 0.
    States are sequences of Python floats and the result is a list.  The
    model constants, mu~'s included, are read once, here; a theta within
    THETA_AXIS_TOL of the axis raises PolarSingularity.  Squares stay x ** 2
    (pow), which can round differently from x * x, so the trajectories keep
    their last bits.
    """
    s = 1.0 if horizon_sign > 0 else -1.0
    quartic = mu_tilde_kernel(params)
    gamma = params.gamma
    gp1 = 1.0 + gamma
    gp1_sq = gp1 ** 2
    two_gp1_sq = 2.0 * gp1 ** 2
    cross = 2.0 * s * gp1 * params.alpha      # p has the term cross xi zeta
    pi, sin, cos = math.pi, math.sin, math.cos

    def gradient(r, theta, xi, eta, zeta):
        """Partials of p in (r, theta, xi, eta, zeta); p does not depend on phi."""
        if theta < THETA_AXIS_TOL or pi - theta < THETA_AXIS_TOL:
            raise PolarSingularity("phase point on the axis")
        mt, dmt, _ = quartic(r)
        sth, cth = sin(theta), cos(theta)
        kappa = 1.0 + gamma * cth ** 2
        dkappa = -2.0 * gamma * sth * cth
        st2 = sth ** 2
        w = kappa * st2
        dw = dkappa * st2 + 2.0 * kappa * sth * cth
        return (-dmt * xi ** 2,
                -(dkappa * eta ** 2 - gp1_sq * zeta ** 2 * dw / w ** 2),
                -2.0 * mt * xi + cross * zeta,
                -2.0 * kappa * eta,
                cross * xi - two_gp1_sq * zeta / w)

    if sign_xi is None:
        def affine_field(y):
            r, theta, _, xi, eta, zeta = y
            p_r, p_th, p_xi, p_eta, p_zeta = gradient(r, theta, xi, eta, zeta)
            return [p_xi, p_eta, p_zeta, -p_r, -p_th, -0.0]   # -dp/dphi = -0.0
        return affine_field
    if sign_xi not in (-1, 1):
        raise ValueError("sign_xi must be +-1")
    scaled_xi = float(sign_xi)

    def compact_field(y):
        # the gradient at the scaled point xi = sign_xi, eta = eta_hat,
        # zeta = zeta_hat, pushed to the compact chart and multiplied by nu
        r, theta, _, nu, eta_hat, zeta_hat = y
        p_r, p_th, p_xi, p_eta, p_zeta = gradient(r, theta, scaled_xi,
                                                  eta_hat, zeta_hat)
        sr = sign_xi * p_r
        return [p_xi, p_eta, p_zeta, max(nu, 0.0) * sr,
                -p_th + eta_hat * sr, zeta_hat * sr]
    return compact_field


# ---------------------------------------------------------------------------
# static-patch (de Sitter) model in the horizon chart mu = 1 - r^2
# ---------------------------------------------------------------------------

def ds_symbol_polar(mu, xi, eta_sq, sigma: complex = 0.0):
    """-4 r^2 mu xi^2 + 4 r^2 sigma xi + sigma^2 - r^-2 |eta|^2 with r^2 = 1 - mu,
    for floats or arrays alike."""
    r2 = 1.0 - mu
    if np.any(r2 <= 0):
        raise ValueError("polar chart needs r > 0; use the Y chart at the origin")
    return -4.0 * r2 * mu * xi ** 2 + 4.0 * r2 * sigma * xi + sigma ** 2 \
        - eta_sq / r2


def ds_reduced_compact_field(mu: float, nu: float, eta_hat: float, sign_xi: int):
    """Rescaled nu H_p of the reduced static-patch flow in (mu, nu, eta_hat),
    for the classical symbol (sigma = 0).

    At the radial set (mu = nu = eta_hat = 0) the nu-rate is -4 sign_xi, the
    normalization in which the horizon decay rate equals 4.  The result is a
    list [dmu, dnu, deta_hat], as `hamilton_kernel`'s fields return.
    """
    r2 = 1.0 - mu
    s = float(sign_xi)
    # G = nu^2 d(p)/d(mu) at the scaled point (xi = s/nu, |eta| = eta_hat/nu)
    G = -4.0 * (1.0 - 2.0 * mu) - eta_hat ** 2 / r2 ** 2
    dmu = 4.0 * r2 * (-2.0 * mu * s)
    dnu = nu * s * G
    deta = eta_hat * s * G
    return [dmu, dnu, deta]
