"""Parameters, horizon geometry, admissibility checks and pointwise metric evaluation.

Covers the rotating de Sitter family (cosmological constant ``lam``,
Schwarzschild radius ``r_s``, angular momentum ``alpha``) together with its
static specializations and the flat boundary model used by the resonance
solver.  All quantities are dimensionless after the usual rescaling
r' = sqrt(lam) r, whose covariance the tests check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

MODELS = ("deSitter", "dSSchwarzschild", "KerrDeSitter", "MinkowskiBoundary")


class NoHorizons(Exception):
    """The quartic does not have the two simple positive roots with the required slopes."""


class PolarSingularity(Exception):
    """theta hit the axis; callers must switch to the regular chart there."""


class InfeasibleC(Exception):
    """No smooth c(r) satisfying the time-like inequality could be constructed."""


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
    delta: Optional[float] = None   # domain margin beyond the horizons; None = 0.1*(r_+ - r_-)
    mu_tilde_1: Optional[float] = None  # exact-c region threshold; None = 0.5*max(mu_tilde)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.lam < 0 or self.r_s < 0:
            raise ValueError("lam and r_s must be nonnegative")
        if self.model == "deSitter" and (self.r_s != 0 or self.alpha != 0):
            raise ValueError("deSitter requires r_s = 0 and alpha = 0")
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
    gamma: float
    beta_minus: Optional[float]
    beta_plus: float


@dataclass
class AdmissibilityReport:
    horizons_exist: bool
    classical_nontrapping: bool
    semiclassical_regime: bool
    ergoregions_disjoint: bool
    diagnostics: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def mu_tilde(params: SpacetimeParams, r):
    """The horizon quartic (r^2+a^2)(1-lam r^2/3) - r_s r and its first two r-derivatives.

    Accepts complex radii (the polynomial continues analytically); used by the
    around-the-horizon monodromy integration.  A real scalar (numpy's
    included) is evaluated in Python floats, which round exactly as the 0-d
    array path does, and the values come back as Python floats.  A complex
    scalar takes the 0-d array path: numpy may fuse the multiply-add of a
    complex product and Python does not, so the two can differ in the last bit.
    """
    real_scalar = isinstance(r, float)
    r = float(r) if real_scalar else np.asarray(r)
    val, d1, d2 = mu_tilde_kernel(params)(r)
    if real_scalar:
        return val, d1, d2
    if val.ndim == 0:
        if np.iscomplexobj(val):
            return complex(val), complex(d1), complex(d2)
        return float(val), float(d1), float(d2)
    return val, d1, d2


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
    """Horizon radii and the surface-gravity/subprincipal constants at them.

    Roots come from companion-matrix eigenvalues of the quartic followed by one
    Newton polish; for the pure de Sitter model only the cosmological horizon
    exists and the inner fields are None.
    """
    gamma = params.gamma
    if params.model == "MinkowskiBoundary":
        # light cone at |Z| = 1 plays the role of r_plus; mu = 1 - |Z|^2
        return HorizonData(None, 1.0, None, 2.0, 0.0, None, 1.0)
    if params.r_s == 0.0 and params.alpha == 0.0:
        if params.lam <= 0:
            raise NoHorizons("need lam > 0 for a cosmological horizon")
        rp = math.sqrt(3.0 / params.lam)
        gp = -mu_tilde(params, rp)[1]
        bp = 2.0 * rp * rp / gp
        return HorizonData(None, rp, None, gp, 0.0, None, bp)

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
    gm, gp = dm, -dp
    a2 = params.alpha ** 2
    bm = 2.0 * (1.0 + gamma) * (rm * rm + a2) / gm
    bp = 2.0 * (1.0 + gamma) * (rp * rp + a2) / gp
    return HorizonData(rm, rp, gm, gp, gamma, bm, bp)


def domain(params: SpacetimeParams):
    """(r_lo, r_hi) with the configured margin delta beyond the horizons."""
    hd = horizon_roots(params)
    if hd.r_minus is None:
        delta = params.delta if params.delta is not None else 0.1 * hd.r_plus
        return 1e-6 * hd.r_plus, hd.r_plus + delta
    delta = params.delta if params.delta is not None else 0.1 * (hd.r_plus - hd.r_minus)
    return hd.r_minus - delta, hd.r_plus + delta


def _critical_points(params: SpacetimeParams, r_lo, r_hi):
    dcoef = np.polyder(_mu_coeffs(params))
    roots = np.roots(dcoef)
    crit = roots[np.abs(roots.imag) < 1e-10].real
    return np.sort(crit[(crit > r_lo) & (crit < r_hi)])


def admissibility(params: SpacetimeParams, grid_size: int = 2048,
                  margin: float = 1e-8) -> AdmissibilityReport:
    """Evaluate horizon existence, the no-classical-trapping bound, the
    rotation bound for hyperbolic trapping, and ergoregion disjointness.

    Inequalities are checked on a grid of `grid_size` points with a safety
    margin; all conditions here are open, so grid checking suffices.
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
        nontrap = worst > margin
        diags.append(("nontrapping_margin", worst, margin))

    # (c) |alpha| < sqrt(3)/4 r_s
    semi_margin = math.sqrt(3.0) / 4.0 * params.r_s - abs(params.alpha)
    semicl = semi_margin > 0
    diags.append(("semiclassical_margin", semi_margin, 0.0))

    # (d) components of {mu_tilde <= alpha^2} over the extended domain
    r_lo, r_hi = domain(params)
    rr = np.linspace(r_lo, r_hi, grid_size)
    inside = mu_tilde(params, rr)[0] > a2
    runs = int(np.count_nonzero(np.diff(inside.astype(int)) == 1) + (1 if inside[0] else 0))
    disjoint = runs == 1 and inside.any()
    diags.append(("interior_components", float(runs), 1.0))

    return AdmissibilityReport(horizons, bool(nontrap), bool(semicl),
                               bool(disjoint), diags)


@dataclass(frozen=True)
class CFunction:
    """Sampled smooth c(r) with an exact-formula region and a boundary-layer constant.

    In mu_tilde > mu1 the exact choice c = -(1+gamma)(r^2+alpha^2)/mu_tilde is
    used (it undoes the coordinate shift there); below mu1/2 a feasible
    constant c_neg takes over; between them a quintic blend in the value of
    mu_tilde keeps everything smooth.  Feasible values form an interval at
    each r, so the blend stays feasible.
    """

    params: SpacetimeParams
    mu1: float
    c_neg: float

    def _blend(self, mt):
        t = np.clip((mt - 0.5 * self.mu1) / (0.5 * self.mu1), 0.0, 1.0)
        return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        mt = mu_tilde(self.params, r)[0]
        gp1 = 1.0 + self.params.gamma
        w = self._blend(mt)
        safe = np.where(np.abs(mt) > 1e-300, mt, 1.0)
        exact = -gp1 * (r * r + self.params.alpha ** 2) / safe
        out = np.where(w >= 1.0, exact, w * exact + (1.0 - w) * self.c_neg)
        return float(out) if out.ndim == 0 else out

    def timelike_margin(self, r):
        """LHS of the time-like inequality; must be < 0 everywhere."""
        r = np.asarray(r, dtype=float)
        mt = mu_tilde(self.params, r)[0]
        gp1 = 1.0 + self.params.gamma
        c = self.__call__(r)
        return mt * c * c + 2.0 * c * gp1 * (r * r + self.params.alpha ** 2) \
            + self.params.alpha ** 2 * gp1 ** 2


def choose_c(params: SpacetimeParams, mu_tilde_1: Optional[float] = None,
             grid_size: int = 2048) -> CFunction:
    """Construct a smooth c(r) making d(tau)/tau time-like over the whole domain.

    Raises InfeasibleC if the verification grid finds a violation, which for
    admissible parameters signals a bug or a bad mu_tilde_1.
    """
    r_lo, r_hi = domain(params)
    rr = np.linspace(r_lo, r_hi, grid_size)
    mt = mu_tilde(params, rr)[0]
    mu_max = float(mt.max())
    if mu_max <= 0:
        raise InfeasibleC("mu_tilde has no positive part on the domain")
    mu1 = mu_tilde_1 if mu_tilde_1 is not None else \
        (params.mu_tilde_1 if params.mu_tilde_1 is not None else 0.5 * mu_max)
    if not 0 < mu1 < mu_max:
        raise InfeasibleC(f"mu_tilde_1={mu1} outside (0, {mu_max})")

    gp1 = 1.0 + params.gamma
    # The boundary-layer constant must be feasible wherever the blend weight is
    # below one, i.e. on {mu_tilde <= mu1}.  The feasible set of the quadratic
    # inequality in c is the interval between its roots when mu_tilde > 0 and a
    # half line below the lower root when mu_tilde <= 0; intersect over the grid.
    a2 = params.alpha ** 2
    lo, hi = -np.inf, np.inf
    for r, m in zip(rr, mt):
        if m > mu1:
            continue
        R2 = r * r + a2
        disc = R2 * R2 - m * a2
        if disc <= 0:
            raise InfeasibleC("discriminant vanished; parameters out of range")
        root_a = gp1 * (-R2 + math.sqrt(disc)) / m if m != 0 else None
        root_b = gp1 * (-R2 - math.sqrt(disc)) / m if m != 0 else None
        if m > 0:
            lo = max(lo, root_b)
            hi = min(hi, root_a)
        elif m == 0:
            hi = min(hi, -a2 * gp1 / (2.0 * R2))
        else:
            # parabola opens down; feasible below the smaller root
            hi = min(hi, min(root_a, root_b))
    if not lo < hi:
        raise InfeasibleC(f"empty feasible interval ({lo}, {hi}) for the constant")
    c_neg = 0.5 * (max(lo, 4.0 * hi if hi < 0 else lo) + hi) if np.isfinite(lo) \
        else 4.0 * hi
    cf = CFunction(params, mu1, c_neg)
    if float(cf.timelike_margin(rr).max()) >= -1e-8:
        raise InfeasibleC("grid verification of the time-like inequality failed")
    return cf


def dual_metric(params: SpacetimeParams, r: float, theta: float, c: float,
                horizon_sign: int = +1) -> np.ndarray:
    """Symmetric 4x4 coefficient array of the dual metric in the b-frame
    (dr, dtau/tau, dtheta, dphi) after the horizon-regular coordinate change.

    `c` is the value of the shift function at r; `horizon_sign=+1` selects the
    upper-sign branch (adapted to the outer horizon).
    """
    if min(theta, math.pi - theta) < THETA_AXIS_TOL:
        raise PolarSingularity("use the (y,z) chart at the poles")
    s = 1.0 if horizon_sign > 0 else -1.0
    gamma = params.gamma
    gp1 = 1.0 + gamma
    a = params.alpha
    mt = mu_tilde(params, r)[0]
    rho2 = r * r + a * a * math.cos(theta) ** 2
    kappa = 1.0 + gamma * math.cos(theta) ** 2
    st2 = math.sin(theta) ** 2

    G = np.zeros((4, 4))
    # quadratic form rho^2 G on covectors (xi, sigma, eta, zeta):
    #   -mt (xi + s c sigma)^2 - 2 s (1+g)(r^2+a^2)(xi + s c sigma) sigma
    #   + 2 s (1+g) a (xi + s c sigma) zeta - kappa eta^2
    #   - (1+g)^2 (zeta - a st2 sigma)^2 / (kappa st2)
    r2a2 = r * r + a * a
    G[0, 0] = -mt
    G[0, 1] = G[1, 0] = 0.5 * (-2.0 * mt * s * c - 2.0 * s * gp1 * r2a2)
    G[0, 3] = G[3, 0] = 0.5 * (2.0 * s * gp1 * a)
    G[1, 1] = -mt * c * c - 2.0 * gp1 * r2a2 * c - gp1 ** 2 * a * a * st2 / kappa
    G[1, 3] = G[3, 1] = 0.5 * (2.0 * gp1 * a * c * s * s + 2.0 * gp1 ** 2 * a / kappa)
    G[2, 2] = -kappa
    G[3, 3] = -gp1 ** 2 / (kappa * st2)
    return G / rho2


def read_key_values(path) -> dict:
    """Entries of a flat `key = value` file; `#` starts a comment.

    A later line overrides an earlier one with the same key.  An unreadable
    file or a line without `=` raises ValueError.
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
        kv[k] = v
    return kv


def load_params(path) -> SpacetimeParams:
    """Read a flat key=value parameter file (keys: lambda, r_s, alpha, model, n, delta, mu_tilde_1)."""
    kv = read_key_values(path)
    known = {"lambda", "r_s", "alpha", "model", "n", "delta", "mu_tilde_1"}
    unknown = set(kv) - known
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    return SpacetimeParams(
        lam=float(kv.get("lambda", 3.0)),
        r_s=float(kv.get("r_s", 0.0)),
        alpha=float(kv.get("alpha", 0.0)),
        model=kv.get("model", "deSitter"),
        n=int(kv.get("n", 4)),
        delta=float(kv["delta"]) if "delta" in kv else None,
        mu_tilde_1=float(kv["mu_tilde_1"]) if "mu_tilde_1" in kv else None,
    )
