"""Bicharacteristic integration, radial-set rates, trapped-set location and
hyperbolicity checks on the fiber-compactified phase space."""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .spacetime import (SpacetimeParams, NoHorizons, PolarSingularity,
                        THETA_AXIS_TOL, mu_tilde, horizon_roots, domain)
from .symbols import (PhasePoint, CompactPhasePoint, kds_classical_symbol,
                      kds_angular_part, hamilton_kernel,
                      ds_reduced_compact_field, ds_symbol_polar)


class StepFailure(Exception):
    """Integration tolerance unreachable; usually a near-singular chart."""


class NoRoot(Exception):
    """No trapped-set radius in the bracket; parameters outside the proven regime."""


class MultipleRoots(Exception):
    """More than one sign change of the trapping function; report, do not guess."""


class DegenerateLinearization(Exception):
    """Second derivative of the trapping function is not positive."""


@dataclass(frozen=True)
class FlowSamples:
    """A trajectory's samples as arrays, one row per sample.

    `y` holds the state in the chart `trajectories.csv` writes: where
    `compact`, (r, theta, phi, nu, eta_hat, zeta_hat) with the sign of xi in
    `sign_xi`, else affine (r, theta, phi, xi, eta, zeta).  The reduced de
    Sitter flow has (mu, nu, eta_hat) rows, all compact.
    """
    s: np.ndarray                    # (k,) flow parameter
    y: np.ndarray                    # (k, 6), or (k, 3) on deSitter
    compact: np.ndarray              # (k,) bool
    sign_xi: np.ndarray              # (k,) int


@dataclass
class Bicharacteristic:
    samples: FlowSamples
    conserved_ledger: dict           # arrays: p, zeta, ptilde, p_scaled, ptilde_scaled
    integrator_stats: tuple          # (steps, rejected steps, tolerance)
    exit_reason: str = "time"        # "time" | "domain" | "axis"

    def drift(self, key: str) -> float:
        vals = np.asarray(self.conserved_ledger[key])
        vals = vals[np.isfinite(vals)]
        if len(vals) == 0:
            return float("nan")
        ref = max(1.0, abs(vals[0]))
        return float(np.max(np.abs(vals - vals[0])) / ref)


@dataclass
class RadialSetReport:
    horizon_sign: int
    beta0_measured: float
    rho0_rate: float
    beta0_expected: float
    n_trajectories: int

    @property
    def beta0_rel_err(self) -> float:
        return abs(self.beta0_measured - self.beta0_expected) / self.beta0_expected


@dataclass(frozen=True)
class TrappedSetPoint:
    r_c: float
    xi_c: float
    f_residual: float


@dataclass(frozen=True)
class LinearizationSpectrum:
    eigenvalues: tuple
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3)
# ---------------------------------------------------------------------------

@functools.cache
def _tableau():
    """(A, B, E3, E5, D, A_EXTRA, n_stages) of scipy.integrate.DOP853, sliced
    as that class slices them from scipy's coefficient module
    integrate/_ivp/dop853_coefficients.py.  The module imports only numpy and
    is loaded by its path, so scipy stays the one source of the coefficients
    while the scipy.integrate package (and the scipy.optimize and
    scipy.special it imports) is never loaded.  The kernels are autonomous,
    so the stage nodes C are not needed."""
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    c = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(c)
    n = c.N_STAGES
    return c.A[:n, :n], c.B, c.E3, c.E5, c.D, c.A[n + 1:], n


# the least rtol scipy's brentq accepts, 4 eps
_BRENT_RTOL = 4 * math.ulp(1.0)


def _brentq(f, a, b, xtol, rtol):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4).

    Line for line the C loop behind scipy.optimize.brentq, with the checks
    of its Python wrapper, so the root is bit for bit scipy's: xtol > 0 and
    rtol >= 4 eps, else ValueError; a NaN value of f raises ValueError, a
    bracket without a sign change ValueError, and no convergence after 100
    iterations RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx
    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


@dataclass(frozen=True)
class _Run:
    """One `_dop853` run: how it ended, and per accepted step what the step's
    7th-order interpolant needs."""
    event: int               # index of the event that ended it, -1: reached T
    t: float                 # end parameter
    y: list                  # end state
    rejected: int
    t_old: np.ndarray        # (steps,) step starts
    h: np.ndarray            # (steps,) step lengths
    y_old: np.ndarray        # (steps, n)
    F: np.ndarray            # (steps, 7, n), formed at the run's end

    @property
    def steps(self) -> int:
        return len(self.h)

    def sample(self, s):
        """The dense output at the ascending parameters s, (k, n), in one
        Horner pass.  A step end belongs to the step it closes, as in scipy's
        OdeSolution."""
        ts = np.append(self.t_old, self.t)
        seg = np.clip(np.searchsorted(ts, s, side="left") - 1, 0, self.steps - 1)
        x = ((s - self.t_old[seg]) / self.h[seg])[:, None]
        F = self.F[seg]
        y = np.zeros((len(s), F.shape[2]))
        for j in range(F.shape[1] - 1, -1, -1):
            y += F[:, j]
            y *= x if j % 2 == 0 else 1 - x
        y += self.y_old[seg]
        return y


def _dop853(fun, T, y0, rtol, atol, events=()):
    """Integrate y' = fun(y) over [0, T] by Dormand-Prince 8(5,3) (Hairer,
    Norsett and Wanner, Sec. II.10), with the tableau of `_tableau`.

    Step for step this is scipy's solve_ivp(method="DOP853",
    dense_output=True, events=...), numpy expression for numpy expression, so
    the run is bit-identical to it: the same first step, step-size controller,
    error norm, 7th-order interpolant and event roots (`_brentq`, scipy's
    brentq, on the step's interpolant with xtol = rtol = 4 eps).  `fun` maps
    a list of floats to a sequence of floats.  `events` are (g, direction)
    pairs of terminal events g(y) on lists; the earliest root among those
    that fire ends the run.  Returns a `_Run`; raises StepFailure when the
    step falls below ten float spacings.

    The loop keeps each accepted step's start, length, end and stage matrix,
    and forms the interpolants' coefficients F of all steps once, when the
    run ends (`_dense_coefficients`); a step on which an event fires also
    gets its own F for the root search.

    The kernels square with Python's `**`, which raises OverflowError where
    numpy gives inf, and raise PolarSingularity on a stage state within
    THETA_AXIS_TOL of the axis.  Either in a trial step rejects the step as
    scipy's controller rejects a non-finite error norm, by the factor 0.2, so
    a step that jumps past theta = 0 shrinks until the axis event ends the
    run; an overflow anywhere else raises StepFailure.
    """
    try:
        return _dop853_steps(fun, T, y0, rtol, atol, events)
    except OverflowError as exc:
        raise StepFailure(f"the field overflowed: {exc}") from exc


def _dop853_steps(fun, T, y0, rtol, atol, events):
    """`_dop853`, which lets an OverflowError outside a trial step escape."""
    A, B, E3, E5, _, A_EXTRA, n_st = _tableau()
    y = np.array(y0, dtype=float)
    n = len(y)
    f = np.array(fun(y.tolist()), dtype=float)
    # scipy's select_initial_step (error estimator order 7)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, T)
    f1 = np.array(fun((y + h0 * f).tolist()), dtype=float)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, T)

    K = np.empty((n_st + 1 + len(A_EXTRA), n))
    Kt = [K[:s].T for s in range(len(K))]
    a_rows = [A[s, :s] for s in range(n_st)]
    t = 0.0
    ylist = y.tolist()
    g = [ev(ylist) for ev, _ in events]
    # per accepted step its start, length and stage matrix; ys holds the
    # run's start and every step's end
    t_olds, hs, ys, Ks = [], [], [y], []
    rejected = 0
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        yl = y.tolist()
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if not h_abs >= min_step:
                raise StepFailure("required step size is less than the "
                                  "spacing between numbers")
            t_new = t + h_abs
            if t_new - T > 0:
                t_new = T
            # a Python float keeps the stage states floats, on which the
            # kernels' ** raises OverflowError where numpy would give inf
            h = float(t_new - t)
            h_abs = abs(h)
            # scipy's rk_step; y + np.dot(K[:s].T, a) * h as floats, which
            # rounds alike
            K[0] = f
            try:
                for s in range(1, n_st):
                    dy = Kt[s].dot(a_rows[s]).tolist()
                    K[s] = fun([v + d * h for v, d in zip(yl, dy)])
                y_new = Kt[n_st].dot(B)
                y_new *= h
                y_new += y
                ylist = y_new.tolist()
                K[n_st] = fun(ylist)
            except (OverflowError, PolarSingularity):
                # scipy's controller on a non-finite error norm
                h_abs *= 0.2
                step_rejected = True
                rejected += 1
                continue
            # DOP853._estimate_error_norm, with norm(e) ** 2 as sqrt(e.e) ** 2
            scale = np.maximum(np.abs(y), np.abs(y_new))
            scale *= rtol
            scale += atol
            err5 = Kt[n_st + 1].dot(E5)
            err5 /= scale
            err3 = Kt[n_st + 1].dot(E3)
            err3 /= scale
            err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = abs(h) * err5_norm_2 / math.sqrt(denom * n)
            # scipy's controller: safety 0.9, factor in [0.2, 10], exponent -1/8
            if error_norm < 1:
                factor = (10 if error_norm == 0
                          else min(10, 0.9 * error_norm ** (-1 / 8)))
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** (-1 / 8))
            step_rejected = True
            rejected += 1

        # the three more stages of the step's interpolant (scipy's
        # DOP853._dense_output_impl); its F is formed when the run ends
        for s, a in enumerate(A_EXTRA, start=n_st + 1):
            dy = Kt[s].dot(a[:s]).tolist()
            K[s] = fun([v + d * h for v, d in zip(yl, dy)])
        K_step = K.copy()
        t_olds.append(t)
        hs.append(h)
        ys.append(y_new)
        Ks.append(K_step)
        done = t_new - T >= 0
        event = -1
        if events:
            g_new = [ev(ylist) for ev, _ in events]
            # scipy's find_active_events; the earliest root wins
            fired = [i for i, ((_, d), g0, g1) in enumerate(zip(events, g, g_new))
                     if (g0 <= 0 <= g1 and d >= 0) or (g0 >= 0 >= g1 and d <= 0)]
            if fired:
                F = _dense_coefficients(np.array([h]), K_step[None],
                                        y[None], y_new[None])[0]
                point = _interpolant(F, t, h, yl)
                t_new, event = min(
                    (_brentq(lambda u, g=events[i][0]: g(point(u)), t, t_new,
                             _BRENT_RTOL, _BRENT_RTOL), i) for i in fired)
                ylist = point(t_new)
            g = g_new
        t, y, f = t_new, y_new, K_step[n_st]
        if done or event >= 0:
            h_all, Y = np.array(hs), np.array(ys)
            return _Run(event, t, ylist, rejected, np.array(t_olds), h_all,
                        Y[:-1], _dense_coefficients(h_all, np.array(Ks),
                                                    Y[:-1], Y[1:]))


def _dense_coefficients(h, K, y_old, y_new):
    """The coefficients F (m, 7, n) of m steps' 7th-order interpolants from
    their lengths h (m,), stage matrices K (m, 16, n), starts and ends (m, n):
    scipy's DOP853._dense_output_impl on a stack of steps.  Its first three
    rows are the same elementwise operations, and the stacked matmul makes
    per step the dgemm call of np.dot(D, K), so F is bit for bit scipy's."""
    _, _, _, _, D, _, n_st = _tableau()
    h = h[:, None]
    delta_y = y_new - y_old
    F = np.empty((len(K), 3 + len(D), K.shape[2]))
    F[:, 0] = delta_y
    F[:, 1] = h * K[:, 0] - delta_y
    F[:, 2] = 2 * delta_y - h * (K[:, n_st] + K[:, 0])
    F[:, 3:] = h[:, None] * np.matmul(D, K)
    return F


def _interpolant(F, t_old, h, y_old):
    """The step's interpolant at one parameter, on Python floats (scipy's
    Dop853DenseOutput for a scalar)."""
    rows = F[::-1].tolist()

    def point(t):
        x = (t - t_old) / h
        y = [0.0] * len(y_old)
        for j, row in zip(range(len(rows) - 1, -1, -1), rows):
            m = x if j % 2 == 0 else 1 - x
            y = [(v + c) * m for v, c in zip(y, row)]
        return [v + c for v, c in zip(y, y_old)]
    return point


# ---------------------------------------------------------------------------
# flow integration
# ---------------------------------------------------------------------------

_AXIS_MARGIN = 1e-3


# how far beyond a domain bound a start may lie: a run's domain-exit end
# point, whose flow parameter `_brentq` places to 4 eps, must stay a valid
# start, and the state there can overshoot the bound (by up to 1.3e-11 in nu
# at nu = 10 on the reduced de Sitter flow, where nu is steep; by an ulp in r)
_START_SLACK = 1e-9


def _check_start(name, value, lo, hi):
    """ValueError unless lo <= value <= hi, within `_START_SLACK`: an exit
    event fires only on a sign change, so a start beyond a bound would run on
    as if inside."""
    if not lo - _START_SLACK <= value <= hi + _START_SLACK:
        raise ValueError(f"start {name} = {value} lies outside the flow "
                         f"domain [{lo}, {hi}]")


_NU_TO_COMPACT = 0.40    # |xi| = 2.5: leave the affine chart
_NU_TO_AFFINE = 0.55     # overlap band for the reverse handoff


def _events_kds(r_lo, r_hi, chart):
    """Terminal events of a segment: leaving the r-domain below or above,
    nearing the axis, and the chart handoff.  The first three fire only as
    their function falls through 0, so a run that starts on a bound and
    moves inward runs on."""
    def exit_lo(y):
        return y[0] - r_lo
    def exit_hi(y):
        return r_hi - y[0]
    def axis(y):
        return min(y[1], math.pi - y[1]) - _AXIS_MARGIN
    if chart == "affine":
        def handoff(y):
            return 1.0 / max(abs(y[3]), 1e-300) - _NU_TO_COMPACT
        direction = -1.0
    else:
        def handoff(y):
            return y[3] - _NU_TO_AFFINE
        direction = +1.0
    return [(exit_lo, -1.0), (exit_hi, -1.0), (axis, -1.0), (handoff, direction)]


def _enter_chart(point, chart):
    """(state, sign_xi) of a PhasePoint or CompactPhasePoint in `chart`: the
    compact (r, theta, phi, nu, eta_hat, zeta_hat) with its sign of xi, or
    the affine (r, theta, phi, xi, eta, zeta) with the sign of xi (+1 at xi
    = 0), which the affine chart does not read."""
    if chart == "compact":
        c = point if isinstance(point, CompactPhasePoint) else point.compactify()
        return [*c.base, c.nu, c.eta_hat, c.zeta_hat], c.sign_xi
    pt = point.affine() if isinstance(point, CompactPhasePoint) else point
    return [pt.r, pt.theta, pt.phi, pt.xi, pt.eta, pt.zeta], 1 if pt.xi >= 0 else -1


def integrate_flow(params: SpacetimeParams, start, T: float,
                   tol: float = 1e-10, horizon_sign: int = +1,
                   n_samples: int = 200) -> Bicharacteristic:
    """Adaptive embedded Runge-Kutta integration of the (rescaled) Hamilton flow.

    deSitter runs the compactified reduced static-patch flow from start =
    (mu, nu, eta_hat, sign_xi); its one horizon is the cosmological one, so
    horizon_sign = -1 raises NoHorizons.  dSSchwarzschild and KerrDeSitter
    run the classical flow from a PhasePoint or CompactPhasePoint.  The run
    starts in the compact chart, which integrates the rescaled field
    nu^(k-1) H_p, for a PhasePoint with |xi| > 2 or a CompactPhasePoint with
    nu < 0.5, and in the affine chart otherwise; the start and every chart
    handoff enter their chart through `_enter_chart`.  MinkowskiBoundary has
    no flow here and raises ValueError.  The symbol is even in the fiber, so
    the time-reversed flow is the flow from the fiber-reflected start
    (xi, eta, zeta) -> (-xi, -eta, -zeta), on deSitter sign_xi -> -sign_xi.
    Leaving the r-domain terminates the trajectory
    normally with exit_reason="domain"; a start outside it raises
    ValueError (see `_check_start`).  The samples are arrays
    (`FlowSamples`), n_samples over [0, T] split between the chart segments.
    Besides p, zeta and ptilde the ledger keeps the symbol and the angular
    part at the scaled point (|xi| = 1), p_scaled and ptilde_scaled; it is
    evaluated once per segment.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    if params.model == "MinkowskiBoundary":
        raise ValueError("MinkowskiBoundary has no Hamilton flow")
    if params.model == "deSitter":
        if horizon_sign < 0:
            raise NoHorizons("deSitter has no inner horizon; horizon_sign "
                             "must be +1")
        return _integrate_ds_reduced(start, T, tol, n_samples)

    if isinstance(start, CompactPhasePoint):
        chart = "compact" if start.nu < 0.5 else "affine"
    else:
        chart = "compact" if abs(start.xi) > 2.0 else "affine"

    segments = []                    # (samples, ledger columns) per segment
    r_lo, r_hi = domain(params)
    nsteps = rejected = 0
    reason = "time"
    s_done = 0.0
    state, sign_xi = _enter_chart(start, chart)
    _check_start("r", state[0], r_lo, r_hi)

    for _segment in range(64):
        rhs = hamilton_kernel(params, horizon_sign,
                              sign_xi if chart == "compact" else None)
        run = _dop853(rhs, T - s_done, state, tol, tol * 1e-2,
                      _events_kds(r_lo, r_hi, chart))
        seg_len = run.t
        k_samp = max(4, int(n_samples * seg_len / max(T, 1e-30)))
        ss = np.linspace(0.0, seg_len, k_samp)
        Y = run.sample(ss)
        theta = Y[:, 1]
        if np.any(np.minimum(theta, math.pi - theta) < THETA_AXIS_TOL):
            raise PolarSingularity("phase point on the axis")
        segments.append(_segment_samples(params, horizon_sign, chart, sign_xi,
                                         s_done + ss, Y))
        nsteps += run.steps
        rejected += run.rejected
        s_done += seg_len
        if run.event < 0:
            reason = "time"
            break
        if run.event < 2:            # events: r_lo, r_hi, axis, handoff
            reason = "domain"
            break
        if run.event == 2:
            reason = "axis"
            break
        # chart handoff in the overlap band
        y = run.y
        if chart == "affine":
            point, chart = PhasePoint(*y), "compact"
        else:
            point = CompactPhasePoint((y[0], y[1], y[2]), y[3], y[4], y[5], sign_xi)
            chart = "affine"
        state, sign_xi = _enter_chart(point, chart)
    parts = [np.concatenate(cols) for cols in zip(*segments)]
    samples = FlowSamples(*parts[:4])
    ledger = dict(zip(("p", "zeta", "ptilde", "p_scaled", "ptilde_scaled"),
                      parts[4:]))
    return Bicharacteristic(samples, ledger,
                            (nsteps, rejected, tol), reason)


def _segment_samples(params, horizon_sign, chart, sign_xi, s, Y):
    """Sample columns (s, y, compact, sign_xi) and ledger columns (p, zeta,
    ptilde, p_scaled, ptilde_scaled) of one segment's dense states Y (k, 6).

    The ledger evaluates the symbol once on the whole segment.  In the
    compact chart it reads the scaled point xi = sign_xi; the actual
    conserved quantities are only reconstructed (by 1/nu^2, which amplifies
    absolute integrator noise) on the outer part nu > 0.1 of the chart, and
    read NaN below it.  Affine samples are stored compactified where
    |xi| > 1e-8.
    """
    k = len(s)
    if chart == "compact":
        nu = np.maximum(Y[:, 3], 0.0)
        scaled = Y.copy()
        scaled[:, 3] = float(sign_xi)
        p_hat = kds_classical_symbol(params, scaled, horizon_sign)
        ptil_hat = kds_angular_part(params, scaled)
        ok = nu > 1e-1
        nu2 = np.float_power(nu, 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(ok, p_hat / nu2, np.nan)
            zeta = np.where(ok, Y[:, 5] / nu, np.nan)
            ptil = np.where(ok, ptil_hat / nu2, np.nan)
        Y[:, 3] = nu
        return (s, Y, np.ones(k, bool), np.full(k, sign_xi),
                p, zeta, ptil, p_hat, ptil_hat)
    p = kds_classical_symbol(params, Y, horizon_sign)
    ptil = kds_angular_part(params, Y)
    xi, zeta = Y[:, 3].copy(), Y[:, 5].copy()
    ax = np.abs(xi)
    big = ax > 1e-8
    xi2 = np.where(big, np.float_power(xi, 2.0), np.nan)
    Y[big, 3] = 1.0 / ax[big]
    Y[big, 4:] /= ax[big, None]
    return (s, Y, big, np.where(xi > 0, 1, -1),
            p, zeta, ptil, p / xi2, ptil / xi2)


def _integrate_ds_reduced(start, T, tol, n_samples):
    """Reduced static-patch flow from start = (mu, nu, eta_hat, sign_xi); it
    leaves the domain below mu = -0.68, above mu = 0.99 or above nu = 10,
    and a start on a bound that moves inward runs on."""
    mu0, nu0, ehat0, sxi = start
    # the chart ends at the centre mu = 1, where the field has 1/(1 - mu)^2,
    # and at xi = 0 (nu = infinity), where a ray with eta != 0 turns; with
    # these bounds no run failed a step over 151 starts, tol 1e-12 to 1e-4,
    # both signs of xi and T = 10 (a mu bound alone fails from 0.9 on)
    mu_lo, mu_hi, nu_hi = -0.68, 0.99, 10.0
    _check_start("mu", mu0, mu_lo, mu_hi)
    _check_start("nu", nu0, -math.inf, nu_hi)
    events = [(lambda y: y[0] - mu_lo, -1.0), (lambda y: mu_hi - y[0], -1.0),
              (lambda y: nu_hi - y[1], -1.0)]
    run = _dop853(lambda y: ds_reduced_compact_field(*y, sxi), T,
                  [mu0, nu0, ehat0], tol, tol * 1e-2, events)
    ss = np.linspace(0.0, run.t, n_samples)
    Y = run.sample(ss)
    samples = FlowSamples(ss, Y, np.ones(n_samples, bool),
                          np.full(n_samples, sxi))
    mu, ehat2 = Y[:, 0], Y[:, 2] ** 2
    p = ds_symbol_polar(mu, 1.0, ehat2)
    ledger = {"p": p, "zeta": np.zeros(len(ss)), "ptilde": p, "p_scaled": p,
              "ptilde_scaled": ehat2}
    return Bicharacteristic(samples, ledger, (run.steps, run.rejected, tol),
                            "domain" if run.event >= 0 else "time")


def _fit_log_rate(s, vals):
    """Slope of log(vals) vs s over the final half of the samples."""
    s = np.asarray(s)
    vals = np.asarray(vals)
    keep = (vals > 0) & np.isfinite(vals)
    s, vals = s[keep], vals[keep]
    k = max(4, len(s) // 2)
    s, vals = s[-k:], np.log(vals[-k:])
    A = np.vstack([s, np.ones_like(s)]).T
    slope, _ = np.linalg.lstsq(A, vals, rcond=None)[0]
    return slope


# flow parameter the radial-rate fit integrates to: the fit is accurate there
# at the outer horizon (rel_err 5.5e-6 ds, 7.5e-7 dss, 1.0e-6 kds) and not
# far from it (0.33 on ds at T = 8, 2.0e-4 on dss at T = 0.5); at the inner
# horizon it is looser (2.1e-4 dss, 4.2e-4 kds, 20 trajectories, seed 0)
_CLASSIFY_T = 4.0

# radius of the shell around the sink that the radial-rate fit, and the
# reduced de Sitter flow study, start from
_SHELL_EPS = 1e-3


def _ds_shell_start(rng):
    """A start (mu, nu, eta_hat, +1) of the reduced de Sitter flow on the
    _SHELL_EPS-shell around the sink, from three uniforms of `rng`."""
    return (_SHELL_EPS * rng.uniform(-1, 1), _SHELL_EPS * rng.uniform(0.5, 1),
            _SHELL_EPS * rng.uniform(-1, 1), 1)


def classify_radial(params: SpacetimeParams, horizon_sign: int = +1,
                    n_traj: int = 20, tol: float = 1e-11,
                    seed: int = 0) -> RadialSetReport:
    """Measure the attraction rate at the radial set from a bundle of trajectories.

    Launches max(n_traj, 20) trajectories, the count it reports, from the
    _SHELL_EPS-shell around the sink L_+ of the requested horizon, runs each
    to s = _CLASSIFY_T, fits the decay of rho~ = nu and of the quadratic
    defining function rho_0, and compares with the surface-gravity constant
    (or 4 in the static-patch normalization).
    """
    rng = np.random.default_rng(seed)
    ds = params.model == "deSitter"
    if ds:
        expected = 4.0
        n_samples = 400
    else:
        hd = horizon_roots(params)
        r_h = hd.r_plus if horizon_sign > 0 else hd.r_minus
        if r_h is None:
            raise NoHorizons("requested horizon does not exist")
        expected = hd.gamma_plus if horizon_sign > 0 else hd.gamma_minus
        sxi = -horizon_sign
        n_samples = 200
    rates, rho0_rates = [], []
    for _ in range(max(n_traj, 20)):
        if ds:
            start = _ds_shell_start(rng)
        else:
            theta = rng.uniform(0.6, math.pi - 0.6)
            start = CompactPhasePoint(
                (r_h + _SHELL_EPS * rng.uniform(-1, 1), theta, 0.0),
                _SHELL_EPS * rng.uniform(0.5, 1.0),
                _SHELL_EPS * rng.uniform(-1, 1),
                _SHELL_EPS * rng.uniform(-1, 1), sxi)
        bc = integrate_flow(params, start, _CLASSIFY_T, tol=tol,
                            horizon_sign=horizon_sign, n_samples=n_samples)
        s = np.abs(bc.samples.s)
        nu = np.abs(bc.samples.y[:, 1]) if ds else bc.samples.y[:, 3]
        led = bc.conserved_ledger
        rates.append(-_fit_log_rate(s, nu))
        rho0_rates.append(-_fit_log_rate(s, led["ptilde_scaled"]
                                         + led["p_scaled"] ** 2))
    return RadialSetReport(horizon_sign, float(np.mean(rates)),
                           float(np.mean(rho0_rates)), expected, len(rates))


# ---------------------------------------------------------------------------
# trapped set
# ---------------------------------------------------------------------------

def trapping_function(params: SpacetimeParams, r):
    """f(r) = W mu~' - 4 r mu~ with W = r^2 + alpha^2."""
    mt, dmt, _ = mu_tilde(params, r)
    W = np.asarray(r) ** 2 + params.alpha ** 2
    return W * dmt - 4.0 * np.asarray(r) * mt


def find_trapped_set(params: SpacetimeParams) -> TrappedSetPoint:
    """Solve f(r) = 0 on (r_-, r_+) by bracketed root-finding.

    Uniqueness is asserted by counting sign changes on a fine grid; a missing
    root raises NoRoot and several raise MultipleRoots.
    """
    hd = horizon_roots(params)
    if hd.r_minus is None:
        raise NoRoot("no inner horizon; the static patch has no trapping")
    a, b = hd.r_minus * (1 + 1e-9), hd.r_plus * (1 - 1e-9)
    rr = np.linspace(a, b, 2048)
    fv = trapping_function(params, rr)
    flips = np.nonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0)[0]
    if len(flips) == 0:
        raise NoRoot("no sign change of the trapping function in (r_-, r_+)")
    if len(flips) > 1:
        raise MultipleRoots(f"{len(flips)} sign changes found")
    i = flips[0]
    r_c = _brentq(lambda r: trapping_function(params, r),
                  rr[i], rr[i + 1], 1e-15, 8.9e-16)
    mt = mu_tilde(params, r_c)[0]
    xi_c = -(1.0 + params.gamma) * (r_c ** 2 + params.alpha ** 2) / mt
    return TrappedSetPoint(float(r_c), float(xi_c),
                           abs(float(trapping_function(params, r_c))))


def _Fpp(params: SpacetimeParams, tsp: TrappedSetPoint) -> float:
    """Second derivative of F = W^2/mu~ at the critical radius."""
    r = tsp.r_c
    mt, dmt, d2mt = mu_tilde(params, r)
    W = r * r + params.alpha ** 2
    fprime = W * d2mt - 4.0 * mt - 2.0 * r * dmt
    return -W * fprime / mt ** 2


def trapping_linearization(params: SpacetimeParams,
                           tsp: TrappedSetPoint) -> LinearizationSpectrum:
    """2x2 linearization of the reduced flow at the trapped radius.

    In the variables (r - r_c, mu~ xi + (1+gamma) W), W = r^2 + alpha^2 (the
    slice zeta = 0, z = 1 of the semiclassical flow), the matrix is
    [[0, -mu~ (1+gamma)^2 F''], [-2, 0]] with eigenvalues
    +-sqrt(2 mu~ (1+gamma)^2 F''); hyperbolic saddle when F'' > 0.
    """
    mt = mu_tilde(params, tsp.r_c)[0]
    gp1 = 1.0 + params.gamma
    Fpp = _Fpp(params, tsp)
    if Fpp <= 0:
        raise DegenerateLinearization(f"F'' = {Fpp} <= 0 at the trapped radius")
    M = np.array([[0.0, -mt * gp1 ** 2 * Fpp], [-2.0, 0.0]])
    lam = math.sqrt(2.0 * mt * gp1 ** 2 * Fpp)
    return LinearizationSpectrum((lam, -lam), M)
