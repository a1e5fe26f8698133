"""Complex absorbing symbols, the branch-cut root, and the elliptic extension
of the semiclassical symbol beyond the physical region."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .spacetime import SpacetimeParams
from .symbols import ds_symbol_polar


class BranchCut(Exception):
    """Root argument hit the cut; the spectral parameter left the holomorphy domain."""


# --- smooth cutoffs built from chi0(s) = exp(-1/s) --------------------------

def chi0(s):
    """exp(-1/s) for s > 0, zero otherwise; satisfies s^2 chi0' = chi0 exactly."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
    return out if out.ndim else float(out)


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    a, b = chi0(t), chi0(1.0 - np.asarray(t, dtype=float))
    return a / (a + b)


@dataclass(frozen=True)
class AbsorbingSpec:
    """Cutoff data for the absorbing symbol.

    The absorption window chi is supported in (mu1, mu0) with plateau value
    digamma_scale on [mu1p, mu0p]; the partition chi1 + chi2 = 1 blends across
    the same inner interval (chi1 = 1 above mu0p, chi2 = 1 below mu1p).
    """

    mu0: float = -0.10          # upper edge of the absorption window
    mu1: float = -0.55          # lower edge
    mu0p: float = -0.20         # plateau upper edge / chi1 saturation
    mu1p: float = -0.45         # plateau lower edge / chi2 saturation
    digamma_scale: float = 1.0

    def __post_init__(self):
        if not (self.mu1 < self.mu1p < self.mu0p < self.mu0):
            raise ValueError("breakpoints must satisfy mu1 < mu1p < mu0p < mu0")

    def chi(self, mu):
        up = smooth_step((np.asarray(mu) - self.mu1) / (self.mu1p - self.mu1))
        dn = smooth_step((self.mu0 - np.asarray(mu)) / (self.mu0 - self.mu0p))
        return self.digamma_scale * up * dn

    def chi1(self, mu):
        return smooth_step((np.asarray(mu) - self.mu1p) / (self.mu0p - self.mu1p))

    def chi2(self, mu):
        return 1.0 - self.chi1(mu)


# the constant C of the absorbing symbol's root f_z
_ROOT_C = 5.0


def f_z(varpi_norm, z):
    """Principal square root of |varpi|^2 + z^2 + C^2 (C = _ROOT_C), with
    Re f_z >= 0.

    Raises BranchCut when the argument lands on (-inf, 0], signalling z outside
    the slit holomorphy domain.
    """
    w = np.asarray(varpi_norm, dtype=float) ** 2 + np.asarray(z) ** 2 + _ROOT_C ** 2
    w = np.asarray(w, dtype=complex)
    on_cut = (w.real <= 0) & (np.abs(w.imag) <= 1e-300 * np.maximum(1, np.abs(w.real)))
    if np.any(on_cut):
        raise BranchCut("argument of the square root hit (-inf, 0]")
    out = w ** 0.5
    return complex(out) if out.ndim == 0 else out


def p_hat(varpi_norm, z):
    """The elliptic stand-in |varpi|^2 + z^2."""
    return np.asarray(varpi_norm, dtype=float) ** 2 + np.asarray(z) ** 2


# --- metric pairings --------------------------------------------------------

def pairing_ds(mu, xi, z):
    """<varpi + z dtau/tau, dtau/tau>_G for the static-patch model: 2 r^2 xi + z."""
    return 2.0 * (1.0 - np.asarray(mu)) * np.asarray(xi) + z


# --- absorbing symbol and extension -----------------------------------------

def q_semiclassical(params: SpacetimeParams, mu, xi, z, spec: AbsorbingSpec,
                    eta_sq=0.0):
    """q_{h,z} = -chi f_z <varpi + z dtau/tau, dtau/tau>_G.

    Defined for the static-patch models (deSitter, MinkowskiBoundary) only;
    mu, xi are the horizon-chart coordinates and |varpi| uses the flat fiber
    norm sqrt(xi^2 + eta_sq).
    """
    if params.model not in ("deSitter", "MinkowskiBoundary"):
        raise ValueError("absorbing symbol is implemented for the radial "
                         f"models, not {params.model}")
    norm = np.sqrt(np.asarray(xi, dtype=float) ** 2 + np.asarray(eta_sq))
    f = f_z(norm, z)
    return -spec.chi(mu) * f * pairing_ds(mu, xi, z)


def extend_p(params: SpacetimeParams, mu, xi, z, spec: AbsorbingSpec,
             eta_sq=0.0):
    """chi1 p - chi2 p_hat: the symbol continued ellipticly below the physical region.

    p is the reduced static-patch symbol `ds_symbol_polar`.
    """
    if params.model not in ("deSitter", "MinkowskiBoundary"):
        raise ValueError("extension is implemented for the radial models")
    p = ds_symbol_polar(mu, xi, eta_sq, z)
    norm = np.sqrt(np.asarray(xi, dtype=float) ** 2 + eta_sq)
    return spec.chi1(mu) * p - spec.chi2(mu) * p_hat(norm, z)


@dataclass
class EllipticityReport:
    min_abs: float
    sign_violations: int
    details: list = field(default_factory=list)


def ellipticity_scan(params: SpacetimeParams, spec: AbsorbingSpec,
                     z_set: Iterable[complex]) -> EllipticityReport:
    """Scan |p~ - i q| over the collar/extension region and the q sign contract.

    The grid spans mu in [-0.6, 1), xi in [-6, 6] and |eta| in [0, 6] at
    48 x 48 x 6 points, evaluated as arrays, one pass per z.

    For each real z the sign of q must be constant on each half of the
    characteristic set (determined by the pairing sign); for Im z > 0 the
    interior symbol must obey min |p_{h,z}| > (Im z)^2.
    """
    mu, xi, e2 = np.meshgrid(np.linspace(-0.6, 1.0 - 1e-9, 48),
                             np.linspace(-6.0, 6.0, 48),
                             np.linspace(0.0, 6.0, 6) ** 2, indexing="ij")
    collar = (spec.chi(mu) > 1e-12) | (spec.chi2(mu) > 1e-12)
    interior = mu > spec.mu0 / 2
    min_abs_collar = np.inf
    min_int = np.inf
    viol = 0
    for z in np.atleast_1d(z_set):
        q = q_semiclassical(params, mu, xi, z, spec, e2)
        pt = extend_p(params, mu, xi, z, spec, e2)
        min_abs_collar = min(min_abs_collar,
                             np.min(np.abs(pt - 1j * q)[collar], initial=np.inf))
        if z.imag == 0 and z.real != 0:
            # contract: -+ q >= 0 on Sigma_+-, i.e. q * pair <= 0
            viol += np.count_nonzero(q.real * pairing_ds(mu, xi, z.real) > 1e-12)
        if z.imag >= 0.5:
            pval = ds_symbol_polar(mu[interior], xi[interior], e2[interior], z)
            min_int = min(min_int, np.min(np.abs(pval), initial=np.inf))
    det = [("interior_min_abs", float(min_int))]
    return EllipticityReport(float(min_abs_collar), viol, det)
