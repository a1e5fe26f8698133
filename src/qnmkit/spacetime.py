"""Parameters, horizon geometry, admissibility checks and the horizon quartic.

Covers the rotating de Sitter family (cosmological constant ``lam``,
Schwarzschild radius ``r_s``, angular momentum ``alpha``) together with its
static specializations and the flat boundary model used by the resonance
solver.  All quantities are dimensionless after the usual rescaling
r' = sqrt(lam) r, whose covariance the tests check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

MODELS = ("deSitter", "dSSchwarzschild", "KerrDeSitter", "MinkowskiBoundary")


class NoHorizons(Exception):
    """The quartic does not have the two simple positive roots with the required slopes."""


class PolarSingularity(Exception):
    """theta hit the axis; callers must switch to the regular chart there."""


THETA_AXIS_TOL = 1e-6
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class SpacetimeParams:
    """The triple (lam, r_s, alpha) plus model tag; lam is the cosmological constant."""

    lam: float = 3.0
    r_s: float = 0.0
    alpha: float = 0.0
    model: str = "deSitter"
    n: int = 4                      # spacetime dimension; 4 unless deSitter or MinkowskiBoundary

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for key, value in (("lambda", self.lam), ("r_s", self.r_s),
                           ("alpha", self.alpha)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite; got {value}")
        if self.lam < 0 or self.r_s < 0:
            raise ValueError("lam and r_s must be nonnegative")
        if self.model == "deSitter" and (self.r_s != 0 or self.alpha != 0):
            raise ValueError("deSitter requires r_s = 0 and alpha = 0")
        if self.model == "MinkowskiBoundary" and (self.lam or self.r_s or self.alpha):
            raise ValueError("MinkowskiBoundary requires lambda = r_s = alpha = 0")
        if self.model == "dSSchwarzschild" and self.alpha != 0:
            raise ValueError("dSSchwarzschild requires alpha = 0")
        if self.model in ("deSitter", "MinkowskiBoundary") and self.n < 3:
            raise ValueError(f"{self.model} needs spacetime dimension n >= 3; "
                             f"got n = {self.n}")
        if self.model in ("dSSchwarzschild", "KerrDeSitter") and self.n != 4:
            raise ValueError(f"{self.model} is four-dimensional; got n = {self.n}")

    @property
    def gamma(self) -> float:
        return self.lam * self.alpha ** 2 / 3.0


@dataclass(frozen=True)
class HorizonData:
    r_minus: Optional[float]
    r_plus: float
    gamma_minus: Optional[float]
    gamma_plus: float


@dataclass
class AdmissibilityReport:
    horizons_exist: bool
    classical_nontrapping: bool
    semiclassical_regime: bool
    ergoregions_disjoint: bool
    diagnostics: list = field(default_factory=list)


def mu_tilde(params: SpacetimeParams, r):
    """The horizon quartic (r^2+a^2)(1-lam r^2/3) - r_s r and its first two r-derivatives.

    A Python float (numpy's float64 included) is evaluated in floats, which
    round exactly as the array path does; anything else, complex radii
    included, is evaluated as an array.
    """
    return mu_tilde_kernel(params)(r if isinstance(r, float) else np.asarray(r))


def mu_tilde_kernel(params: SpacetimeParams):
    """The quartic of `mu_tilde` as a map r -> (value, first, second
    r-derivative), with the model constants read once, here.

    r may be a Python float or an array; the hot loops (the Hamilton field)
    bind the map once and call it on plain floats.
    """
    c4 = -params.lam / 3.0
    c2 = 1.0 - params.gamma
    r_s, a2 = params.r_s, params.alpha ** 2

    def quartic(r):
        return (((c4 * r * r + c2) * r - r_s) * r + a2,
                (4.0 * c4 * r * r + 2.0 * c2) * r - r_s,
                12.0 * c4 * r * r + 2.0 * c2)
    return quartic


def _mu_coeffs(params: SpacetimeParams):
    """Coefficients of mu_tilde, highest power first."""
    return np.array([-params.lam / 3.0, 0.0, 1.0 - params.gamma, -params.r_s,
                     params.alpha ** 2])


def horizon_roots(params: SpacetimeParams) -> HorizonData:
    """Horizon radii and the surface-gravity constants at them.

    Roots come from companion-matrix eigenvalues of the quartic followed by one
    Newton polish; for the pure de Sitter model only the cosmological horizon
    exists and the inner fields are None.
    """
    if params.model == "MinkowskiBoundary":
        # light cone at |Z| = 1 plays the role of r_plus; mu = 1 - |Z|^2
        return HorizonData(None, 1.0, None, 2.0)
    if params.r_s == 0.0 and params.alpha == 0.0:
        if params.lam <= 0:
            raise NoHorizons("need lam > 0 for a cosmological horizon")
        rp = math.sqrt(3.0 / params.lam)
        return HorizonData(None, rp, None, -mu_tilde(params, rp)[1])

    roots = np.roots(_mu_coeffs(params))
    real = roots[np.abs(roots.imag) < 1e-9 * np.maximum(1.0, np.abs(roots.real))].real
    pos = np.sort(real[real > 0])
    if len(pos) < 2:
        raise NoHorizons(f"found {len(pos)} positive roots, need 2")
    rm, rp = pos[-2], pos[-1]
    for _ in range(2):  # Newton polish
        vm, dm, _ = mu_tilde(params, rm)
        vp, dp, _ = mu_tilde(params, rp)
        rm -= vm / dm
        rp -= vp / dp
    tol = ROOT_TOL * max(1.0, params.r_s ** 2)
    if abs(mu_tilde(params, rm)[0]) > tol or abs(mu_tilde(params, rp)[0]) > tol:
        raise NoHorizons("root polish failed to reach tolerance")
    dm = mu_tilde(params, rm)[1]
    dp = mu_tilde(params, rp)[1]
    if not (dm > 0 and dp < 0 and rm < rp):
        raise NoHorizons("sign conditions on the quartic slopes fail")
    return HorizonData(rm, rp, dm, -dp)


def domain(params: SpacetimeParams):
    """(r_lo, r_hi) with the margin delta beyond the horizons: 0.1 r_+ with
    one horizon, 0.1 (r_+ - r_-) with two.  With two, r_lo = max(r_- -
    delta, r_- / 2): r = 0 is a singular point of the radial operator, and
    r_- - delta alone would cross it once r_- < r_+ / 11."""
    return _domain_of(horizon_roots(params))


def _domain_of(hd: HorizonData):
    """`domain` of the horizons `hd`."""
    if hd.r_minus is None:
        return 1e-6 * hd.r_plus, hd.r_plus + 0.1 * hd.r_plus
    delta = 0.1 * (hd.r_plus - hd.r_minus)
    return max(hd.r_minus - delta, 0.5 * hd.r_minus), hd.r_plus + delta


def _critical_points(params: SpacetimeParams, r_lo, r_hi):
    dcoef = np.polyder(_mu_coeffs(params))
    roots = np.roots(dcoef)
    crit = roots[np.abs(roots.imag) < 1e-10].real
    return np.sort(crit[(crit > r_lo) & (crit < r_hi)])


def admissibility(params: SpacetimeParams) -> AdmissibilityReport:
    """Evaluate horizon existence, the no-classical-trapping bound, the
    rotation bound for hyperbolic trapping, and ergoregion disjointness.

    Inequalities are checked on a grid of 2048 points with a safety margin;
    all conditions here are open, so grid checking suffices.
    """
    diags = []
    try:
        hd = horizon_roots(params)
        horizons = True
    except NoHorizons as exc:
        diags.append(("horizons_exist", 0.0, 1.0))
        return AdmissibilityReport(False, False, False, False,
                                   diags + [("reason", str(exc), "")])
    diags.append(("horizons_exist", 1.0, 1.0))
    a2 = params.alpha ** 2

    # (b) interior critical points of mu_tilde must sit above alpha^2
    if hd.r_minus is None:
        nontrap = True
        diags.append(("nontrapping_margin", float("inf"), 0.0))
    else:
        crit = _critical_points(params, hd.r_minus, hd.r_plus)
        margins = [mu_tilde(params, r0)[0] - a2 for r0 in crit]
        worst = min(margins) if margins else float("inf")
        margin = 1e-8
        nontrap = worst > margin
        diags.append(("nontrapping_margin", worst, margin))

    # (c) |alpha| < sqrt(3)/4 r_s
    semi_margin = math.sqrt(3.0) / 4.0 * params.r_s - abs(params.alpha)
    semicl = semi_margin > 0
    diags.append(("semiclassical_margin", semi_margin, 0.0))

    # (d) components of {mu_tilde <= alpha^2} over the extended domain
    r_lo, r_hi = domain(params)
    rr = np.linspace(r_lo, r_hi, 2048)
    inside = mu_tilde(params, rr)[0] > a2
    runs = int(np.count_nonzero(np.diff(inside.astype(int)) == 1) + (1 if inside[0] else 0))
    disjoint = runs == 1 and inside.any()
    diags.append(("interior_components", float(runs), 1.0))

    return AdmissibilityReport(horizons, bool(nontrap), bool(semicl),
                               bool(disjoint), diags)


def read_key_values(path, schema) -> dict:
    """Typed entries of a flat `key = value` file; `#` starts a comment.

    `schema` maps each allowed key to (type, lo, hi); a later line overrides
    an earlier one with the same key.  An unreadable file, a line without
    `=`, an unknown key, a value its type cannot read or, when lo is not
    None, one outside [lo, hi] raises ValueError, which names the key.
    """
    kv = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(str(exc)) from exc
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line in {path}: {line!r}")
        k, v = (t.strip() for t in line.split("=", 1))
        if k not in schema:
            raise ValueError(f"unknown key {k!r} in {path}")
        typ, lo, hi = schema[k]
        try:
            kv[k] = typ(v)
        except ValueError as exc:
            raise ValueError(f"bad value for {k}: {v!r}") from exc
        if lo is not None and not (lo <= kv[k] <= hi):
            raise ValueError(f"{k} = {kv[k]} outside [{lo}, {hi}]")
    return kv


# the keys of a params file; SpacetimeParams checks their values
_PARAMS_SCHEMA = {"lambda": (float, None, None), "r_s": (float, None, None),
                  "alpha": (float, None, None), "model": (str, None, None),
                  "n": (int, None, None)}


def load_params(path) -> SpacetimeParams:
    """SpacetimeParams of a params file (`read_key_values`, keys lambda,
    r_s, alpha, model, n); a key the file leaves out keeps its default."""
    kv = read_key_values(path, _PARAMS_SCHEMA)
    return SpacetimeParams(lam=kv.get("lambda", SpacetimeParams.lam),
                           r_s=kv.get("r_s", SpacetimeParams.r_s),
                           alpha=kv.get("alpha", SpacetimeParams.alpha),
                           model=kv.get("model", SpacetimeParams.model),
                           n=kv.get("n", SpacetimeParams.n))
