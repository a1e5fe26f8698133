"""Numerical Mellin transform pair, resonance-expansion synthesis,
decay-rate fitting, and the time-domain solve that referees an expansion.

The transform is the Fourier transform in x = log(tau), so all quadrature runs
on a log-uniform grid where the trapezoid rule is spectrally accurate for
smooth pulses.  Expansions shift the inversion contour down and collect
residues at the poles of the spectral family; Jordan structure appears as
log(tau) powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .resonances import DiscretizedOperator, resolvent_apply, solve_resonances, \
    refine_roots, mirror_map, NearPole, _TRUST_TOL, _SAME_ROOT, _companion


class ContourDivergence(Exception):
    """The weighted integrand fails the tail test on the requested contour."""


class PoleOnContour(Exception):
    """A resonance sits on the shifted contour; choose a different weight."""


class DegenerateFit(Exception):
    """Too few samples in the fitting window."""


def _require_uniform(grid: np.ndarray, message: str) -> None:
    """ValueError(message) unless the steps of `grid` agree to 1e-12 relative."""
    d = np.diff(grid)
    if len(d) and (d.max() - d.min()) > 1e-12 * max(1.0, abs(d.mean())):
        raise ValueError(message)


def _log_tau(tau_grid: np.ndarray) -> np.ndarray:
    """log tau of a positive, log-uniform tau grid decreasing toward 0."""
    if np.any(tau_grid <= 0):
        raise ValueError("tau grid must be positive")
    x = np.log(tau_grid)
    _require_uniform(x, "tau grid must be log-uniform")
    if len(x) > 1 and x[1] >= x[0]:
        raise ValueError("tau grid must be strictly decreasing toward 0")
    return x


def _require_columns(a: np.ndarray, rows: int, message: str) -> None:
    """ValueError(message) unless `a` has shape (rows, n): a (rows,) array
    would broadcast against the (rows, 1) weights into (rows, rows)."""
    if a.ndim != 2 or len(a) != rows:
        raise ValueError(message)


@dataclass
class TemporalSamples:
    tau_grid: np.ndarray
    values: np.ndarray          # shape (n_tau, n)

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        self.values = np.asarray(self.values)
        _log_tau(self.tau_grid)
        _require_columns(self.values, len(self.tau_grid),
                         "values must have shape (n_tau, n)")


def default_tau_grid() -> np.ndarray:
    """1024 points from tau = 1 down to 1e-6, equally spaced in log tau."""
    return np.geomspace(1.0, 1e-6, 1024)


@dataclass(frozen=True)
class ExpansionTerm:
    sigma_j: complex
    kappa: int
    a: np.ndarray               # coefficient, shape (n,)


def evaluate_terms(terms: Iterable[ExpansionTerm], tau):
    """Sum of tau^(i sigma_j) log(tau)^kappa a over `terms`, shape
    (len(tau), n); 0 for no terms."""
    x = np.log(np.asarray(tau, dtype=float))
    return sum((np.outer(np.exp(1j * t.sigma_j * x) * x ** t.kappa, t.a)
                for t in terms), 0)


# the weighted samples at the grid ends may reach this fraction of their
# largest value before a transform is refused, whatever that value's scale
_TAIL_TOL = 1e-6


def mellin_transform(u: TemporalSamples, alpha: float,
                     sigma_re: np.ndarray) -> np.ndarray:
    """Quadrature of int tau^(-i sigma) u dtau/tau on the contour Im sigma = -alpha,
    shape (len(sigma_re), n).

    Trapezoid in x = log tau; raises ContourDivergence when the weighted
    integrand has not decayed at the grid ends to _TAIL_TOL of its largest
    value, at any scale (an all-zero u passes).
    """
    x = np.log(u.tau_grid)
    w = np.exp(-alpha * x)      # |tau^(-i sigma)| on the contour, tail test only
    weighted = w[:, None] * u.values
    scale = np.max(np.abs(weighted))
    if scale > 0:
        ends = max(np.max(np.abs(weighted[0])), np.max(np.abs(weighted[-1])))
        if ends > _TAIL_TOL * scale:
            raise ContourDivergence("weighted samples do not decay at the grid ends")
    sig = np.asarray(sigma_re, dtype=float) - 1j * alpha
    # integrate along increasing x; the complex sigma carries the weight
    order = np.argsort(x)
    xs = x[order]
    ph = np.exp(-1j * np.outer(sig, xs))
    f = u.values[order]
    dx = xs[1] - xs[0]
    wts = np.full(len(xs), dx)
    wts[0] = wts[-1] = dx / 2
    return ph @ (f * wts[:, None])


def _five_smooth(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def inverse_mellin(v: np.ndarray, alpha: float, sigma_re: np.ndarray,
                   tau_grid: np.ndarray) -> TemporalSamples:
    """(2 pi)^-1 int tau^(i sigma) v dsigma along Im sigma = -alpha.

    Trapezoid on the uniform sigma grid, summed as a chirp-z transform: with
    sigma_m = sigma_0 + m ds and x_t = x_0 + t dx on the log-uniform tau grid,
    Bluestein's t m = (t^2 + m^2 - (t - m)^2) / 2 splits tau_t^(i sigma_m) into
    two chirps and one convolution, done by FFT for all columns at once.
    Rows of `v` that are exactly zero at either end of the grid add nothing:
    they are dropped first, so the chirp starts at the first row kept.  The
    FFT length is the smallest 5-smooth integer (no prime factor above 5)
    that holds the linear convolution, M + T - 1 for M rows kept and T tau
    points: 2250 for the 1,214 rows of an expand line, not the power of two
    4096.  The rows kept keep their weights on the whole grid (half only at
    an end of it).
    Both grids must be uniform: a sigma grid with fewer than 2
    points or uneven steps, a tau grid that TemporalSamples refuses, or a
    `v` not of shape (len(sigma_re), n) raises ValueError before any work.
    """
    sig = np.asarray(sigma_re, dtype=float)
    if sig.size < 2:
        raise ValueError("sigma grid needs at least 2 points")
    _require_uniform(sig, "sigma grid must be uniform")
    x = _log_tau(np.asarray(tau_grid, dtype=float))
    v = np.asarray(v)
    _require_columns(v, len(sig), "v must have shape (n_sigma, n)")
    M, T = len(sig), len(x)
    ds = (sig[-1] - sig[0]) / (M - 1)
    dx = (x[-1] - x[0]) / (T - 1) if T > 1 else 0.0
    a = dx * ds
    wts = np.full(M, ds)
    wts[0] = wts[-1] = ds / 2
    rows = np.flatnonzero(np.any(v != 0, axis=1))
    lo, hi = (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 1)
    v, wts, M = v[lo:hi], wts[lo:hi], hi - lo
    m, t = np.arange(M), np.arange(T)
    n_fft = _five_smooth(M + T - 1)
    k = np.arange(1 - M, T)
    kernel = np.zeros(n_fft, dtype=complex)
    kernel[k] = np.exp(-0.5j * a * k * k)      # k < 0 wraps to the tail
    pre = wts * np.exp(1j * (x[0] * ds * m + 0.5 * a * m * m))
    b = np.zeros((v.shape[1], n_fft), dtype=complex)
    b[:, :M] = (v * pre[:, None]).T
    np.fft.fft(b, out=b)
    b *= np.fft.fft(kernel)
    np.fft.ifft(b, out=b)
    post = np.exp(1j * x * (sig[lo] - 1j * alpha) + 0.5j * a * t * t) / (2.0 * math.pi)
    return TemporalSamples(tau_grid, b[:, :T].T * post[:, None])


# ---------------------------------------------------------------------------
# residues and expansion
# ---------------------------------------------------------------------------

_RESIDUE_RADIUS = 1e-2      # circle about each pole for its Laurent data
_RESIDUE_NODES = 64         # trapezoid nodes on that circle
# those nodes less the pole, the first on the positive real axis
_RESIDUE_OFFSETS = _RESIDUE_RADIUS * np.exp(
    1j * (2.0 * math.pi * np.arange(_RESIDUE_NODES) / _RESIDUE_NODES))
_LAURENT_ORDERS = 3         # c_-1 .. c_-3: Jordan chains up to length 3
_JORDAN_TOL = 1e-8          # c_-m below this fraction of the largest is zero
_POLE_MARGIN = 1e-6         # closest a pole may sit to the shifted contour
# the expansion lines span |Re sigma| <= SIGMA_MAX, but `driven_solve` solves
# them only where the pulse factor e^(-w^2 (Re sigma)^2 / 2) is above
# _PULSE_FLOOR: |Re sigma| < _PULSE_REACH (18.209 at w = _PULSE_WIDTH)
SIGMA_MAX = 60.0
_PULSE_CENTER = -3.0        # centre x0 in log tau of the default log-Gaussian pulse
_PULSE_WIDTH = 0.5          # width w in log tau of every log-Gaussian pulse
_PULSE_FLOOR = 1e-18
_PULSE_REACH = math.sqrt(-2.0 * math.log(_PULSE_FLOOR)) / _PULSE_WIDTH


def sigma_line(n_sigma: int) -> np.ndarray:
    """n_sigma uniform points from -SIGMA_MAX to SIGMA_MAX; point k is minus
    point n_sigma - 1 - k bit for bit (np.linspace's are not), so a line
    sigma_line(n) - i ell is its own mirror image under sigma -> -conj(sigma)."""
    return SIGMA_MAX * (2 * np.arange(n_sigma) - (n_sigma - 1)) / (n_sigma - 1)


def laurent_coefficients(vals: np.ndarray) -> list:
    """c_{-m}, m = 1.._LAURENT_ORDERS, at an isolated pole p of a family,
    from its vectors `vals`, shape (_RESIDUE_NODES, n), at the nodes
    p + _RESIDUE_OFFSETS.

    Trapezoid on the circle (spectrally accurate).
    """
    return [((_RESIDUE_OFFSETS ** m)[:, None] * vals).mean(axis=0)
            for m in range(1, _LAURENT_ORDERS + 1)]


def _circle_terms(pole: complex, vals: np.ndarray) -> list:
    """The terms of `pole` from the family's vectors `vals` on its residue
    circle, one per order of its Jordan chain; none when that data is all
    zero."""
    cs = laurent_coefficients(vals)
    scale = max(np.max(np.abs(c)) for c in cs)
    order = max((m for m in range(1, _LAURENT_ORDERS + 1)
                 if np.max(np.abs(cs[m - 1])) > _JORDAN_TOL * scale), default=0)
    # contour shift picks up -i times the residue of tau^{i sigma} u^
    return [ExpansionTerm(pole, k, -1j * cs[k] * (1j) ** k / math.factorial(k))
            for k in range(order)]


def expand_family(solve: Callable, poles: Iterable[complex], ell_target: float,
                  n_sigma: int, mirrored: bool):
    """Terms and remainder of the inverse transform shifted to Im sigma = -ell.

    `solve` maps an array of sigma, shape (M,), to the spatial vectors of the
    transformed solution there, shape (M, n).  Poles with
    Im sigma > -ell_target contribute tau^(i sigma_j) log(tau)^kappa terms
    whose coefficients are Laurent data (a_{j,kappa} = i^kappa/kappa! c_{-kappa-1})
    read off a residue circle about the pole; the remainder is the inverse
    transform along the shifted contour, n_sigma points of `sigma_line`
    (|Re sigma| <= SIGMA_MAX; `driven_solve` solves only its pulse window),
    sampled on `default_tau_grid()`.  A pole on the contour raises
    PoleOnContour before anything is solved.  A NearPole from `solve` is
    raised again with the residue circle or the contour line of the sigma
    its gate refused named first.

    `solve` is called once, on one array: first the _RESIDUE_NODES = 64
    nodes of each residue circle, in pole order, then the contour line.
    The circles go first because they fill whole multiples of 64 columns,
    so the line keeps the column alignment, and the bits, of a call of its
    own in the BLAS matrix-vector kernels of the back-substitution.

    `mirrored` says that solve(-conj sigma) = conj solve(sigma) (`_mirrored`).
    The Laurent coefficients at -conj p are then c_-m(p) conjugated times
    (-1)^m, so each term at -conj p is the conjugate of the term at p, kappa
    by kappa, and one circle per mirror pair is solved (`mirror_map`).  The
    line is its own mirror image bit for bit, so only its Re sigma >= 0 half
    is solved, and each point of the other half gets the conjugate of its
    twin's vector.  Otherwise every circle and every point is solved.
    """
    poles = list(poles)
    for pj in poles:
        if abs(pj.imag + ell_target) < _POLE_MARGIN:
            raise PoleOnContour(f"pole {pj} sits on Im sigma = {-ell_target}")
    above = [pj for pj in poles if pj.imag > -ell_target]
    centres = []

    def circle(pj):
        """Queue the circle of pj; return the reader of its terms."""
        k = len(centres) * _RESIDUE_NODES
        centres.append(pj)
        return lambda vals: _circle_terms(pj, vals[k:k + _RESIDUE_NODES])
    flip = lambda read: lambda vals: [
        ExpansionTerm(-t.sigma_j.conjugate(), t.kappa, t.a.conj()) for t in read(vals)]
    readers = list(mirror_map(circle, above, flip).values() if mirrored
                   else map(circle, above))
    sig_re = sigma_line(n_sigma)
    half = n_sigma // 2 if mirrored else 0
    sig = np.concatenate([pj + _RESIDUE_OFFSETS for pj in centres]
                         + [sig_re[half:] - 1j * ell_target])
    try:
        vals = solve(sig)
    except NearPole as exc:
        hit = np.flatnonzero(sig == exc.sigma)
        if not hit.size:
            raise
        k = hit[0] // _RESIDUE_NODES
        where = (f"residue circle of the pole {complex(centres[k])}"
                 if k < len(centres) else f"contour line Im sigma = {-ell_target}")
        named = NearPole(f"{where}: {exc}")
        named.sigma = exc.sigma
        raise named from exc
    terms = [t for read in readers for t in read(vals)]
    # the line is filled in place, with no temporary of its size; the twin
    # of point k < half is point n_sigma - 1 - k
    v = vals[len(centres) * _RESIDUE_NODES:]
    line = np.empty((n_sigma,) + v.shape[1:], dtype=v.dtype)
    line[half:] = v
    np.conjugate(v[n_sigma - 2 * half:][::-1], out=line[:half])
    remainder = inverse_mellin(line, ell_target, sig_re, default_tau_grid())
    return terms, remainder


def _mirrored(op: DiscretizedOperator, f0: np.ndarray) -> bool:
    """Whether the driven solution at -conj sigma is the conjugate of the one
    at sigma: the pencil is real in tau = -i sigma (`op.real_in_tau`: every
    pencil `build_operator` makes without an absorber), so L(-conj sigma) =
    conj L(sigma), and f0 is real; phi_hat(-conj sigma) = conj
    phi_hat(sigma) holds for every log-Gaussian pulse."""
    return op.real_in_tau and not np.imag(f0).any()


def driven_solve(op: DiscretizedOperator, f0: np.ndarray) -> Callable:
    """sigma -> R(sigma)(phi_hat(sigma) f0) on the pencil of `op`, (M,) -> (M, n).

    phi_hat is the Mellin transform of the default log-Gaussian pulse,
    centred at tau = e^-3; along a line |phi_hat| falls like
    e^(-w^2 (Re sigma)^2 / 2).  Only the sigma where that factor exceeds
    _PULSE_FLOOR = 1e-18, |Re sigma| < _PULSE_REACH, are solved, in one
    `resolvent_apply` call; the others get exact zeros.  This assumes the
    resolvent grows more slowly than e^(w^2 (Re sigma)^2 / 2) along the line,
    as measured on dS and Minkowski (|sigma| ||R(sigma) f|| / ||f|| between
    0.02 and 5 up to Re sigma = 60), so the dropped vectors lie below the
    rounding of the kept ones.  `_converged_poles` keeps every residue
    circle inside that window.  Every sigma kept is solved: `expand_family`
    pairs the mirror twins of its circles and its line before it calls this.
    """
    f0 = np.asarray(f0, dtype=complex)
    def solve(sigma):
        keep = np.abs(sigma.real) < _PULSE_REACH
        s = sigma[keep]
        u = resolvent_apply(op, s, log_gaussian_pulse_hat(s)[:, None] * f0)
        # allocated after the solve, whose temporaries are then freed first
        # and their pages reused, for fewer minor page faults
        out = np.zeros(sigma.shape + f0.shape, dtype=complex)
        out[keep] = u
        return out
    return solve


def time_domain_solve(op: DiscretizedOperator, f0: np.ndarray) -> TemporalSamples:
    """The causal solution of A0 u - i A1 u' - u'' = phi(x) f0 on
    `default_tau_grid()`, x = log tau and phi the default log-Gaussian
    pulse: the u that vanishes as x -> +inf.  It touches no resolvent,
    contour or transform, so it referees the expansion.

    On a pencil real in tau with a real f0 (`_mirrored`; ValueError
    otherwise), the pencil's own tau-companion C = [[0, I], [A0.real,
    -A1.imag]] (`resonances._companion`) is real, and z = (u, -u') solves
    z' = -C z + phi [0; f0]: z is the x = log tau image of the companion's
    state [u; tau u].  z = 0 at the first point of the grid, extended
    upward, where phi has fallen below _PULSE_FLOOR, and it is stepped down
    the grid by the grid's own log spacing h with exact exponentials (Van
    Loan, IEEE TAC 23 (1978) 395): z(x - h) = E z(x) + G c(x), E = e^(Ch).
    c_j = (-h)^j phi^(j)(x) are the pulse's Taylor jets, kept up to the
    first whose bound (h/w)^j / sqrt(j!) is below _PULSE_FLOOR, and column j
    of G is h int_0^1 e^(Ch(1 - r)) r^j / j! dr [0; -f0], the top right
    block of the exponential of hC augmented by a nilpotent shift.  Each
    step is one real K x K matvec, K = 2 (N + 1); the steps stay bounded
    only while no eigenvalue of the pencil has Im sigma > 0, so one above
    1e-8 raises ValueError: Im sigma = Re tau, on the diagonal of
    `op.triangular_form` (both entries of a 2 x 2 block).

    hC is balanced first (no permutation).  G is a Taylor series at h / 2^s,
    s the fewest halvings that bring the balanced norm to 1 or less, doubled
    s times as the augmented exponential is squared.  E comes straight from
    expm: its error enters every step, and an E squared up from h / 2^s
    costs accuracy against the direct line; G's error enters once.  Forming
    G and E apart, and not as the exponential of the whole augmented matrix,
    keeps the result's bits at 1 and 2 BLAS threads where expm's own
    products keep them.
    """
    if not _mirrored(op, f0):
        raise ValueError("the time-domain solve needs a pencil real in "
                         "tau = -i sigma and a real forcing profile")
    grow = np.diag(op.triangular_form.T).max()      # the largest Im sigma
    if grow > 1e-8:
        raise ValueError(f"the time-domain solve needs a pencil without growing "
                         f"modes, and one has Im sigma = {grow:.6g}")
    from scipy.linalg import expm, matrix_balance
    n = op.N + 1
    tau_grid = default_tau_grid()
    x = _log_tau(tau_grid)
    h = (x[0] - x[-1]) / (len(x) - 1)
    A, (d, _) = matrix_balance(h * _companion(op), permute=False, separate=True)
    r = h / _PULSE_WIDTH
    p = 1
    while r ** p / math.sqrt(math.factorial(p)) >= _PULSE_FLOOR:
        p += 1
    # G at theta = 2^-s: column j is h theta^(j+1) sum_i (theta A)^i b / (i+j+1)!;
    # ||theta A||_1 <= 1, so term i is below ||b|| / (i + 1)!, and the first
    # term below eps ||b|| ends the sum
    s = max(0, math.ceil(math.log2(np.abs(A).sum(axis=0).max())))
    theta = 2.0 ** -s
    V = [h * np.concatenate([np.zeros(n), -np.real(f0)]) / d]
    while math.factorial(len(V) + 1) * np.finfo(float).eps < 1.0:
        V.append(theta * (A @ V[-1]))
    fact = np.cumprod(np.r_[1.0, np.arange(1.0, len(V) + p + 1)])
    i, j = np.arange(len(V)), np.arange(p + 1)
    G = np.array(V).T @ (theta ** (j + 1) / fact[i[:, None] + j + 1])
    Et = expm(theta * A)
    lag = j - j[:, None]                      # lag[a, b] = b - a
    for _ in range(s):
        # [[Et, G], [0, P]]^2, with P = e^(theta J) upper Toeplitz
        G = Et @ G + G @ np.triu(theta ** lag / fact[np.abs(lag)])
        Et = Et @ Et
        theta *= 2.0
    E = d[:, None] * expm(A) / d
    G = d[:, None] * G
    reach = _PULSE_WIDTH * math.sqrt(-2.0 * math.log(_PULSE_FLOOR))
    top = math.ceil((_PULSE_CENTER + reach - x[0]) / h)
    xs = x[0] + h * np.arange(top, -len(x), -1)
    t = (xs - _PULSE_CENTER) / _PULSE_WIDTH
    phi = np.exp(-0.5 * t * t)
    live = np.flatnonzero(phi[:-1] > _PULSE_FLOOR)
    # c_j = (h/w)^j He_j(t) phi, He the probabilists' Hermite polynomials
    C = np.empty((p + 1, len(live)))
    he_prev, he, tl = np.zeros(len(live)), np.ones(len(live)), t[live]
    for k in range(p + 1):
        C[k] = r ** k * he * phi[live]
        he_prev, he = he, tl * he - k * he_prev
    # Y[m + 1] holds first the forcing of step m, then z after it
    Y = np.zeros((len(xs), 2 * n))
    Y[live + 1] = (G @ C).T
    for m in range(len(xs) - 1):
        Y[m + 1] += E @ Y[m]
    return TemporalSamples(tau_grid, Y[top:, :n])


def _converged_poles(op: DiscretizedOperator, im_min: float) -> list:
    """Converged rows of the ladder capped at op.N, with Im sigma in
    [im_min, 0.5] and every node of their residue circles inside
    `driven_solve`'s window (past it the pulse weights a residue below
    _PULSE_FLOOR), refined on `op` to centre the circles on its poles; a row
    the refinement moves by _SAME_ROOT or more is left to the remainder."""
    half = _PULSE_REACH - _RESIDUE_RADIUS
    rl = solve_resonances(op.params, op.ell, op.N, (-half, half, im_min, 0.5))
    poles = refine_roots(op, [e.sigma for e in rl.converged(_TRUST_TOL)])
    return [z for s, z in poles.items() if abs(z - s) < _SAME_ROOT]


def forcing_profile(grid: np.ndarray) -> np.ndarray:
    """The forcing f0 of `qnmkit expand` and the expansion demo on `grid`."""
    return np.exp(-((grid - 0.5) / 0.15) ** 2)


def resonance_expand(f0: np.ndarray, op: DiscretizedOperator, ell_target: float,
                     n_sigma: int):
    """Expansion of the driven solution of the discretized family.

    f0 is the spatial forcing profile of the default log-Gaussian pulse,
    and `op` is absorber-free (`op.real_in_tau`; ValueError otherwise).
    Pole locations come from `_converged_poles`, down to 0.8 below the
    contour; the transformed solution is sigma -> R(sigma)(phi_hat(sigma)
    f0).  `n_sigma` goes to `expand_family`, which makes one `driven_solve`
    call, so one `resolvent_apply` call, and solves one residue circle per
    mirror pair and half the line when `_mirrored` holds.
    """
    if not op.real_in_tau:
        raise ValueError("the expansion needs a pencil real in tau = -i sigma")
    poles = _converged_poles(op, -ell_target - 0.8)
    return expand_family(driven_solve(op, f0), poles, ell_target, n_sigma,
                         _mirrored(op, f0))


def log_gaussian_pulse_hat(sigma):
    """Closed-form Mellin transform at sigma of exp(-(log tau - x0)^2 /
    (2 w^2)), `log_gaussian_pulse` at x0 = _PULSE_CENTER, w = _PULSE_WIDTH."""
    x0, width = _PULSE_CENTER, _PULSE_WIDTH
    return width * math.sqrt(2.0 * math.pi) \
        * np.exp(-1j * sigma * x0) * np.exp(-sigma * sigma * width * width / 2.0)


def log_gaussian_pulse(tau, x0: float):
    """exp(-(log tau - x0)^2 / (2 w^2)) with w = _PULSE_WIDTH."""
    x = np.log(np.asarray(tau, dtype=float))
    return np.exp(-(x - x0) ** 2 / (2.0 * _PULSE_WIDTH * _PULSE_WIDTH))


# ---------------------------------------------------------------------------
# decay fitting and thresholds
# ---------------------------------------------------------------------------

def fit_decay(u: TemporalSamples):
    """(rate, log_power, residual) from a least-squares fit of log ||u|| on
    the window 1e-4 <= tau <= 3e-2.

    Model: log||u|| = rate * log(tau) + kappa * log(-log tau) + const; the
    log-log regressor is kept only when it clearly improves the fit.
    """
    tau = u.tau_grid
    mask = (tau >= 1e-4) & (tau <= 3e-2)
    if np.count_nonzero(mask) < 8:
        raise DegenerateFit("need at least 8 samples in the window")
    x = np.log(tau[mask])
    mag = np.linalg.norm(u.values[mask], axis=1)
    good = mag > 0
    if np.count_nonzero(good) < 8:
        raise DegenerateFit("window is dominated by exact zeros")
    x, y = x[good], np.log(mag[good])
    A1 = np.vstack([x, np.ones_like(x)]).T
    c1, res1 = np.linalg.lstsq(A1, y, rcond=None)[:2]
    A2 = np.vstack([x, np.log(-x), np.ones_like(x)]).T
    c2, res2 = np.linalg.lstsq(A2, y, rcond=None)[:2]
    r1 = float(res1[0]) if len(res1) else 0.0
    r2 = float(res2[0]) if len(res2) else 0.0
    if r2 < 0.5 * r1 and abs(c2[1]) > 0.5:
        return float(c2[0]), int(round(c2[1])), r2
    return float(c1[0]), 0, r1


def save_time_series(u: TemporalSamples, path) -> None:
    """CSV dump: tau, Re u, Im u (one block of columns per spatial index)."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau"] + [f"{part}_u{j}" for j in range(u.values.shape[1])
                              for part in ("re", "im")])
        for tau, row in zip(u.tau_grid, u.values):
            w.writerow([f"{tau:.17g}"]
                       + [f"{f:.17g}" for v in row for f in (v.real, v.imag)])
