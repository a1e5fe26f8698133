"""Collocation resonance solver for the spherically symmetric model families.

The radial operator is discretized by Chebyshev collocation on a grid that
crosses the event horizon(s); no boundary row is imposed at a horizon, so the
polynomial basis itself selects the solutions that extend smoothly across --
the defining feature of the continuation.  Resonances are the values of the
spectral parameter where the sigma-quadratic pencil becomes singular, and the
poles of the resolvent.  Each row is divided by its sigma^2 coefficient, so
the pencil is monic and its resonances are the eigenvalues of its companion
matrix.  Without an absorber the pencil is real in tau = -i sigma: its
eigenvalues come from one real eigensolve, in exact pairs sigma, -conj sigma,
and one member of each pair is refined (`mirror_map`), by a secant on the
zeros of a scalar resolvent probe 1/<u, A(sigma)^-1 v>, and validated
against an independent monodromy oracle.

Each radial family (`_RadialFamily`, one record per model) has polynomial
coefficients, whose only singular points are regular ones at the roots of the
principal coefficient c2; the pencil assembles A0 and A1 from their values.
The oracle continues the branch analytic at the regular end, normalized there
to u = 1, around the horizon by power series: a Frobenius recurrence at the
regular end and Taylor recurrences at a chain of centres, each step at most
half the distance to the nearest singular point (Leaver's route for
quasinormal modes).  The steps and the Taylor coefficients of the six
polynomials form a plan built once per (params, ell); for each sigma one
lower-banded triangular solve runs every step's recurrence, and the steps'
2 x 2 transfers are chained along the path.  Its detector is the raw
difference of the branch's end values along the two sides of the horizon,
which is holomorphic in sigma.  On the imaginary axis every family is real,
so the two sides are conjugate: rows born there are written there, and the
oracle continues one side and refines them by its one complex secant,
started along the axis, which then never leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Optional

import numpy as np
# scipy.linalg is imported by its three callers (the resolvent probe, the
# Schur form and the oracle's banded solve), so that importing qnmkit loads no
# scipy module

from .collocation import cheb_grid
# mu_tilde is not called here; perfbench/tracing.py wraps it by this attribute
from .spacetime import SpacetimeParams, NoHorizons, mu_tilde, horizon_roots, \
    _domain_of, _mu_coeffs
from .absorption import AbsorbingSpec, smooth_step


class UnsupportedModel(Exception):
    """The model has no radial family: the solver covers only the spherically
    symmetric (alpha = 0) ones."""


class SolverFailure(Exception):
    """The eigenvalue routine did not converge."""


class NearPole(Exception):
    """The requested spectral parameter is too close to a resonance; `sigma`
    is the first one the near-pole gate refused, where it is known."""

    sigma = None


class StiffFailure(Exception):
    """The shooting oracle's series continuation failed."""


# ---------------------------------------------------------------------------
# radial families, shared by the pencil and the oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RadialFamily:
    """All the pencil and the oracle read of one radial family c2 u'' + c1
    u' + c0 u, for one (params, ell).

    `polys` = (c2, c1a, c1b, c0a, c0b, c0c), read-only, highest power
    first: c1 = c1a + sigma c1b and c0 = c0a + sigma c0b + sigma^2 c0c.
    `interval`: the ends of the grid, which crosses the horizon(s).  `loop`
    = (regular end, horizon, far end, radius) of the oracle's path [regular
    end, horizon + radius, horizon +- i radius, far end], which winds once
    around the horizon and around no other root of c2.

    deSitter: static-patch model on mu = 1 - r^2 with the s^ell ansatz
    factored out, r in units of the horizon radius sqrt(3 / lam), so sigma
    is in units of sqrt(lam / 3); lam <= 0 has no horizon and raises
    NoHorizons.  MinkowskiBoundary: forward-problem family of the flat
    boundary model (adjoint orientation), deSitter's but for 1/4 - ((n -
    1)/2)^2 added to c0a.  In both, c0c = 1, the grid is [-0.6, 1] in mu
    (the centre r = 0 is the end mu = 1) and the loop (1, 0, -0.35, 0.35).

    dSSchwarzschild: two-horizon model on r in the gauge t* = t + h(r), h'
    = s / mu, with s = 1 - 2t linear in t = (r - r_-) / (r_+ - r_-), so s =
    1 at r_- and -1 at r_+.  Then t* is smooth across the future black-hole
    horizon and the future cosmological horizon, and smoothness at both
    selects the quasinormal condition: waves that fall into the black hole
    and leave through the cosmological horizon (Vasy, section 6).  The
    coefficients are c2 = mu~, c1 = mu~' - 2i sigma s r^2 and c0 =
    -i sigma (r^2 s)' - l(l + 1) + sigma^2 r^4 (1 - s^2) / mu~, with mu~ =
    r^2 mu = (lam / 3) r (r - r_-) (r_+ - r) P and P = r + r_- + r_+.  Each
    is multiplied by P, which leaves c0c = 4 r^3 / ((lam / 3) (r_+ - r_-)^2),
    positive on the grid: every coefficient is a polynomial, which keeps
    spectral convergence.  The grid is `spacetime.domain`, and the loop
    (r_+, r_-, r_- - 0.6 rad, rad) with rad = min(0.3 (r_+ - r_-), r_-):
    both stay right of the root r = 0 of c2 on a small black hole.
    """

    polys: tuple
    interval: tuple
    loop: tuple


@lru_cache(maxsize=64)
def _radial_family(params: SpacetimeParams, ell: int) -> _RadialFamily:
    """The `_RadialFamily` of params.model in dimension params.n, cached and
    shared; UnsupportedModel for a model with none."""
    model, n = params.model, params.n
    if model == "deSitter":
        horizon_roots(params)       # NoHorizons at lam <= 0
    if model in ("deSitter", "MinkowskiBoundary"):
        c0a = -ell * (ell + n - 1.0)
        if model == "MinkowskiBoundary":
            c0a += 0.25 - ((n - 1) / 2.0) ** 2
        polys = (np.array([-4.0, 4.0, 0.0]),
                 np.array([-(2.0 * n + 2 + 4 * ell), 4.0]), np.array([4j, -4j]),
                 np.array([c0a]), np.array([(n - 1.0 + 2 * ell) * 1j]),
                 np.array([1.0]))
        interval, loop = (-0.6, 1.0), (1.0, 0.0, -0.35, 0.35)
    elif model == "dSSchwarzschild":
        hd = horizon_roots(params)
        if hd.r_minus is None:
            raise NoHorizons("dSSchwarzschild needs a black-hole horizon (r_s > 0)")
        rm, rp = hd.r_minus, hd.r_plus
        P = np.array([1.0, rm + rp])
        r2s = np.polymul([1.0, 0.0, 0.0], np.array([-2.0, rp + rm]) / (rp - rm))
        mt = _mu_coeffs(params)                                 # mu~
        polys = (np.polymul(mt, P), np.polymul(np.polyder(mt), P),
                 -2j * np.polymul(r2s, P), -ell * (ell + 1.0) * P,
                 -1j * np.polymul(np.polyder(r2s), P),
                 np.array([4.0 / (params.lam / 3.0 * (rp - rm) ** 2),
                           0.0, 0.0, 0.0]))
        rad = min(0.3 * (rp - rm), rm)
        interval, loop = _domain_of(hd), (rp, rm, rm - 0.6 * rad, rad)
    else:
        raise UnsupportedModel(f"no radial family for {model!r}")
    for p in polys:
        p.flags.writeable = False
    return _RadialFamily(polys, interval, loop)


@dataclass
class DiscretizedOperator:
    """Monic pencil L(sigma) = A0 + sigma A1 + sigma^2 I of one sector.

    `build_operator` fixes the pencil once: P_sigma itself without an
    absorbing spec, P_sigma - iQ with one (A0 then holds -iQ), each row
    divided by its sigma^2 coefficient, which is so I by construction.
    `pencil` is the one place that forms L(sigma), which the resolvent
    probe solves.  The eigensolve and `resolvent_apply` read the pencil's
    one companion in tau = -i sigma (`_companion`), the latter through
    `triangular_form`, its Schur form, computed on first use and kept.
    """

    params: SpacetimeParams
    ell: int
    grid: np.ndarray
    matrices: tuple                 # (A0, A1), with -iQ in A0 if absorbed

    @property
    def N(self) -> int:
        """len(grid) - 1."""
        return len(self.grid) - 1

    def pencil(self, sigma):
        """A0 + sigma A1 + sigma^2 I, with sigma^2 added on the diagonal."""
        A0, A1 = self.matrices
        L = A0 + sigma * A1
        L.flat[::len(L) + 1] += sigma * sigma
        return L

    @cached_property
    def triangular_form(self) -> "_TriangularForm":
        return _TriangularForm.of(self)

    @property
    def real_in_tau(self) -> bool:
        """Whether A0 is real and A1 imaginary, bit for bit, as in every
        pencil built without an absorber.  The pencil is then real in tau =
        -i sigma, and L(-conj sigma) = conj L(sigma)."""
        A0, A1 = self.matrices
        return not (A0.imag.any() or A1.real.any())


def build_operator(params: SpacetimeParams, ell: int, N: int,
                   spec: Optional[AbsorbingSpec] = None) -> DiscretizedOperator:
    """Assemble the collocation pencil of one angular sector on the N + 1
    Chebyshev points of its family's interval (`_radial_family`).

    Every row is a collocation row of the operator, divided by the real part
    of its sigma^2 coefficient c0c (positive on the grid), so the pencil is
    monic.  Without `spec` the pencil has no absorber: the horizon-crossing
    basis needs none.  With it, A0 carries -iQ, Q = q (1 + scaled
    second-derivative stencil), with q = spec.chi(mu) (mu < mu0 < 0); the
    one-horizon models only, ValueError on the two-horizon one.
    """
    if N < 16:
        raise ValueError("need N >= 16")
    if spec is not None and params.model == "dSSchwarzschild":
        raise ValueError("no absorbing window on the two-horizon model")
    fam = _radial_family(params, ell)
    x, D = cheb_grid(N, *fam.interval)
    C2, C1a, C1b, C0a, C0b, C0c = (np.polyval(p, x).astype(complex)
                                   for p in fam.polys)
    D2 = D @ D
    scale = C0c.real[:, None]
    A0 = (C2[:, None] * D2 + C1a[:, None] * D + np.diag(C0a)) / scale
    A1 = (C1b[:, None] * D + np.diag(C0b)) / scale

    if spec is not None:
        # multiplication plus a second-derivative stencil whose scale matches
        # the quadratic fiber growth of the principal coefficient in the collar
        w = spec.chi(x)
        active = w > 1e-12 * max(spec.digamma_scale, 1e-30)
        lsc2 = float(np.mean(np.abs(C2)[active])) if active.any() else 1.0
        A0 = A0 - 1j * (w[:, None] * (np.eye(N + 1) - lsc2 * D2))
    return DiscretizedOperator(params, ell, x, (A0, A1))

# ---------------------------------------------------------------------------
# resonance extraction
# ---------------------------------------------------------------------------

# convergence_delta below which a row is converged, and oracle distance
# below which the oracle agrees with it
_TRUST_TOL = 1e-6
# two rungs' roots closer than this are one root; a delta above it is suspect
_SAME_ROOT = 1e-4
# roots closer than this are one row; a higher rung's replaces a lower's within it
_SAME_ROW = 1e-6
# grid sizes of the resolution ladder; 512 only judges the rung below it
_LADDER = (24, 32, 48, 64, 96, 128, 192, 256, 384, 512)


@dataclass(frozen=True)
class Resonance:
    sigma: complex
    multiplicity: int
    convergence_delta: float
    N: int                          # the rung the row was solved at
    suspect: bool                   # convergence_delta above _SAME_ROOT


@dataclass
class ResonanceList:
    entries: list = field(default_factory=list)

    def converged(self, tol: float) -> list:
        return [e for e in self.entries if e.convergence_delta < tol]


def _companion(op: DiscretizedOperator):
    """The companion C = [[0, I], [A0, i A1]] of the pencil of `op` in tau =
    -i sigma: (C - tau) [u; tau u] = [0; L(sigma) u] for every pencil, so
    its eigenvalues are the tau = -i sigma of the pencil's.

    On a pencil real in tau (`real_in_tau`), C is assembled in real
    arithmetic, [[0, I], [A0.real, -A1.imag]]; otherwise it is complex.
    """
    A0, A1 = op.matrices
    A0, A1 = (A0.real, -A1.imag) if op.real_in_tau else (A0, 1j * A1)
    return np.block([[np.zeros_like(A0), np.eye(len(A0))], [A0, A1]])


def _linearized_eigs(op: DiscretizedOperator):
    """Eigenvalues s = i tau of the pencil A0 + s A1 + s^2 I of `op`, with
    tau the eigenvalues of its companion in tau (`_companion`), by geev,
    which balances the companion itself.

    On a pencil real in tau the companion is real: a real tau gives Re s =
    0 exactly, and the complex tau come in exact conjugate pairs, so the s
    come in exact pairs s, -conj(s).
    """
    try:
        return 1j * np.linalg.eigvals(_companion(op))
    except np.linalg.LinAlgError as exc:   # pragma: no cover
        raise SolverFailure(str(exc)) from exc


def _probe_g(op: DiscretizedOperator):
    """The resolvent probe g(s) = 1 / <u, L(s)^-1 v> of `op`, with u and v
    drawn from a generator seeded with 7: a zero of g is a pole of the
    resolvent.

    Each probe is one LAPACK zgesv on the pencil at s: numpy's `solve`
    would add its wrapper's cost to a 10-45 us call at the table's N.  g is
    0 where the LU factor is exactly singular (info > 0), and infinite
    where <u, x> = 0.
    """
    from scipy.linalg.lapack import zgesv
    Nn = op.N + 1
    rng = np.random.default_rng(7)
    u = rng.standard_normal(Nn) + 1j * rng.standard_normal(Nn)
    v = rng.standard_normal(Nn) + 1j * rng.standard_normal(Nn)
    uc = u.conj()
    def g(s):
        _, _, x, info = zgesv(op.pencil(s), v)
        if info > 0:
            return 0.0 + 0.0j
        denom = uc @ x
        if denom == 0:
            return np.inf
        return 1.0 / denom
    return g


def _secant(f, s1, s2):
    """Secant iteration for a zero of f from the iterates s1, s2.

    Steps longer than 1 are clamped to length 1, to keep the iteration in
    its basin.  On an ill-conditioned f the steps shrink until the iterates
    reach the rounding band of f, where they stop shrinking and wander.  So
    below 1e-6 max(1, |s|) only shrinking steps are taken: the iteration
    stops at the first proposed step there that is no shorter than the one
    before it, and returns the iterate it stands on, the last one a
    shrinking step reached.  The first proposed step is always taken, so a
    start pair closer than that band is still refined.  It also stops after
    a step below 1e-13 max(1, |s|), when f repeats, or after 80 steps.  A
    point where f is not finite (a zero of the resolvent probe's
    denominator) is never returned: the iteration stops at the iterate
    before it.
    """
    f1, f2 = f(s1), f(s2)
    if not np.isfinite(f2):
        return s1
    step = np.inf
    for _ in range(80):
        if f2 == f1:
            break
        s3 = s2 - f2 * (s2 - s1) / (f2 - f1)
        if not np.isfinite(s3):
            break
        if abs(s3 - s2) > 1.0:
            s3 = s2 + (s3 - s2) / abs(s3 - s2)
        if step <= abs(s3 - s2) < 1e-6 * max(1.0, abs(s2)):
            break
        f3 = f(s3)
        if not np.isfinite(f3):
            break
        s1, f1, s2, f2, step = s2, f2, s3, f3, abs(s3 - s2)
        if step < 1e-13 * max(1.0, abs(s2)):
            break
    return s2


def mirror_map(f, sigmas, reflect) -> dict:
    """{s: f(s)} over `sigmas`, in their order, with f called once per mirror
    pair: an s whose mirror -conj(s) came earlier gets reflect(its value).
    This is the symmetry L(-conj s) = conj L(s) of a pencil real in tau."""
    out = {}
    for s in sigmas:
        if s not in out:
            m = -s.conjugate()
            out[s] = reflect(out[m]) if m in out else f(s)
    return out


def _locate(op: DiscretizedOperator, region) -> dict:
    """{root: born on the axis} in `region`, one root per _SAME_ROW: the
    eigenvalues c of `op` in the padded region, refined (`refine_roots`)
    nearest 0 first and, of an exact pair c, -conj(c), the one with Re c > 0
    first, whose root the twin gets mirrored.  A root is born on the axis
    when its c has Re c == 0, as a real eigenvalue tau of a pencil real in
    tau has; the root itself is the secant's iterate, whose Re is rounding."""
    x0, x1, y0, y1 = region
    pad = 0.35
    cands = sorted((complex(z) for z in _linearized_eigs(op)
                    if np.isfinite(z) and x0 - pad <= z.real <= x1 + pad
                    and y0 - pad <= z.imag <= y1 + pad),
                   key=lambda c: (abs(c), -c.real))
    roots = {}
    for c, s in refine_roots(op, cands).items():
        if (x0 - 1e-8 <= s.real <= x1 + 1e-8 and y0 - 1e-8 <= s.imag <= y1 + 1e-8
                and all(abs(s - r) > _SAME_ROW for r in roots)):
            roots[s] = c.real == 0
    return roots


def refine_roots(op: DiscretizedOperator, sigmas) -> dict:
    """Each s of `sigmas` -> the secant on `op`'s resolvent probe from (s, s +
    1e-4), once per mirror pair (`mirror_map`)."""
    g = _probe_g(op)
    return mirror_map(lambda s: _secant(g, s, s + 1e-4), sigmas,
                      lambda z: -z.conjugate())


def solve_resonances(params: SpacetimeParams, ell: int, N: int,
                     region) -> ResonanceList:
    """Resonances of one ell-sector in the rectangle `region` = (re_min,
    re_max, im_min, im_max), from the resolution ladder capped at N.

    The rungs are the members of _LADDER below N, then N, each pencil built
    once, without an absorber.  The next rung's pencil (the next ladder
    member's, for N) judges a rung's roots (`_locate`, one per row),
    `convergence_delta` being |s' - s| with s' = `refine_roots` on it from
    the root s, and is located next.  A row whose root was born on the axis
    is written there, with Re sigma = +0.0; its delta and Im sigma are its
    root's, since a judge started on the axis would restart in its
    secant's rounding band.  Converged is a delta below _TRUST_TOL; roots
    of two rungs within _SAME_ROOT are one root, and a converged root
    replaces a lower rung's row only within _SAME_ROW.  The ladder stops
    after the first rung past the first that converges no new root, or at
    N; its unconverged roots follow, but for those within _SAME_ROOT of a
    converged row.  `Resonance.N` is the rung of the row; `multiplicity`
    is 1 on every row: nothing counts it yet.
    """
    if N >= _LADDER[-1]:
        raise ValueError(f"N = {N}: the ladder judges caps below {_LADDER[-1]}")
    rungs = [m for m in _LADDER if m < N] + [N]
    judges = rungs[1:] + [next(m for m in _LADDER if m > N)]
    op = build_operator(params, ell, rungs[0])
    found = []                      # converged rows, one per root
    for i, (n, m) in enumerate(zip(rungs, judges)):
        zs = _locate(op, region)
        op = build_operator(params, ell, m)
        judged = refine_roots(op, zs)
        rows = []
        for z, axis in zs.items():
            delta = float(abs(judged[z] - z))
            s = complex(0.0, z.imag) if axis else z
            rows.append(Resonance(s, 1, delta, n, delta > _SAME_ROOT))
        conv = [e for e in rows if e.convergence_delta < _TRUST_TOL]
        new = [e for e in conv
               if all(abs(e.sigma - f.sigma) >= _SAME_ROOT for f in found)]
        found = [next((e for e in conv if abs(e.sigma - f.sigma) < _SAME_ROW), f)
                 for f in found] + new
        if i and not new:
            break
    found += [e for e in rows if e.convergence_delta >= _TRUST_TOL
              and all(abs(e.sigma - f.sigma) >= _SAME_ROOT for f in found)]
    found.sort(key=lambda e: (-e.sigma.imag, abs(e.sigma.real)))
    return ResonanceList(found)


# ---------------------------------------------------------------------------
# two-sided shooting oracle
# ---------------------------------------------------------------------------

_STEP_RATIO = 0.5       # step / distance to the nearest root of c2
_SERIES_EPS = 1e-17     # truncation: term below this fraction of the sum ...
_SERIES_RUN = 3         # ... for this many consecutive terms
_SERIES_MAX = 2000      # terms; a step within _STEP_RATIO converges far sooner
_FROBENIUS_MIN = 1e-12  # smallest |k (K c2'(x0) + c1(x0))| at a horizon
_SERIES_TERMS = 80      # terms a step in the first solve, doubled while the
                        # stop rule fails (the CLI box needs at most 76)


def _taylor_at(p, z):
    """Taylor coefficients of the polynomial p about z, lowest order first.

    Repeated synthetic division by (x - z) on Python scalars; p is given
    highest power first.
    """
    a = [complex(c) for c in p]
    out = []
    for m in range(len(a), 0, -1):
        for i in range(1, m):
            a[i] += a[i - 1] * z
        out.append(a[m - 1])
    return out


def _walk(roots, path, frobenius: bool) -> list:
    """Series steps (centre, step, frobenius) along a piecewise-linear path.

    Each step is at most _STEP_RATIO of the distance from its centre to the
    nearest root of c2 in `roots`; a path that starts at a root (frobenius)
    measures its first step to the nearest other one.
    """
    steps = []
    z = complex(path[0])
    for z1 in path[1:]:
        z1 = complex(z1)
        while z != z1:
            dist = sorted(abs(z - r) for r in roots)
            radius = _STEP_RATIO * dist[1 if frobenius else 0]
            h = z1 - z
            if abs(h) > radius:
                h *= radius / abs(h)
                z_next = z + h
            else:
                z_next = z1
            steps.append((z, h, frobenius))
            z, frobenius = z_next, False
    return steps


@dataclass(frozen=True, eq=False)
class _SeriesPlan:
    """The sigma-independent half of a series continuation along some legs.

    `legs[k]` lists the steps (centre z, step h, frobenius) of leg k.  About
    each centre, the coefficient of t^(n+j-2) (t = x - z) in c2 u'' + c1 u'
    + c0 u gives a linear recurrence for the scaled coefficients v_n = u_n
    h^n, in which v_n enters with L_j(n) = q2_j n(n-1) + q1_j n + q0_j, q
    the h^j-scaled Taylor coefficients of c2, c1 and c0 (the last two
    shifted by one and two orders).  With c1 = c1a + s c1b and c0 = c0a +
    s c0b + s^2 c0c, `coeffs[i, r, k]` holds part r of q at order j = k +
    lead of step i.  The equation for t^(n+lead-2) is solved for v_n: lead
    = 1 at a Frobenius centre (a root of c2, where q2_0 = 0) and 0 elsewhere.
    """

    legs: tuple
    h: np.ndarray               # (S,) h of every step, legs in order
    frobenius: np.ndarray       # (S,) bool
    coeffs: np.ndarray          # (S, 6, depth): parts of q_{k + lead}
    _bands: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of(cls, split, legs) -> "_SeriesPlan":
        """Plan of the legs for the polynomials split = (c2, c1a, c1b, c0a,
        c0b, c0c), each highest power first."""
        legs = tuple(tuple(leg) for leg in legs)
        steps = [s for leg in legs for s in leg]
        shifts = (0, 1, 1, 2, 2, 2)
        depth = max(len(p) + j for p, j in zip(split, shifts))
        Q = np.zeros((len(steps), 6, depth + 1), complex)
        for i, (z, h, _) in enumerate(steps):
            for r, (p, j) in enumerate(zip(split, shifts)):
                Q[i, r, j:j + len(p)] = _taylor_at(p, z)
            Q[i] *= np.cumprod([1.0] + [h] * depth)
        frob = np.array([s[2] for s in steps], bool)
        coeffs = np.where(frob[:, None, None], Q[:, :, 1:], Q[:, :, :-1])
        return cls(legs, np.array([s[1] for s in steps], complex), frob, coeffs)

    def band(self, K: int):
        """(A, B, C, rhs) for K terms a step.

        A + s B + s^2 C is the block-diagonal lower-banded matrix of every
        step's recurrence, indexed [step, column m, band offset k] for the
        entry at row m + k of the step's block (LAPACK lower band storage,
        transposed): the equation for v_{m+k} takes v_m with L_{k+lead}(m).
        The first rows of a block are identity rows, one at a Frobenius
        centre and two elsewhere, and `rhs` sets the basis sequences there:
        u_0 = 1 at a Frobenius centre, (v_0, v_1) = (1, 0) and (0, 1)
        elsewhere.
        """
        if K not in self._bands:
            S, depth = len(self.h), self.coeffs.shape[2]
            m = np.arange(K, dtype=float)[:, None]
            q = self.coeffs[:, :, None, :]                  # (S, 6, 1, depth)
            A = q[:, 0] * (m * (m - 1)) + q[:, 1] * m + q[:, 3]
            B = q[:, 2] * m + q[:, 4]
            C = np.broadcast_to(q[:, 5], A.shape).copy()
            outside = m + np.arange(depth) >= K             # row past the block
            for X in (A, B, C):
                X[:, outside] = 0.0
            # the identity rows' other entries in A, B and C are already 0
            A[:, 0, 0] = 1.0
            A[~self.frobenius, 1, 0] = 1.0
            rhs = np.zeros((S, K, 2), complex)
            rhs[:, 0, 0] = 1.0
            rhs[~self.frobenius, 1, 1] = 1.0
            self._bands[K] = (A, B, C, np.asfortranarray(rhs.reshape(S * K, 2)))
        return self._bands[K]


def _chain(legs, y, transfer, base) -> tuple:
    """Starts (v_0, v_1) = (u, h u') of every step and ends (u, u') of every
    leg of `legs`.

    Step i maps the start w_i = base[i][:2] to (c_0, c_1 / h), c = base[i][2:],
    and any other start v to that plus transfer[i] = (S_0, S_1, N_0, N_1)
    applied to v - w: (S_0, S_1) and (N_0, N_1) are the sums of v_n and of
    n v_n over its two basis sequences.
    """
    starts, ends = [], []
    steps = zip(transfer, base)
    for leg in legs:
        u, du = ends[0] if ends else y
        for (_, h, frobenius), ((s0, s1, n0, n1), (w0, w1, c0, c1)) in zip(leg, steps):
            v0, v1 = (1.0, 0.0) if frobenius else (u, h * du)
            d0, d1 = v0 - w0, v1 - w1
            u, du = c0 + s0 * d0 + s1 * d1, (c1 + n0 * d0 + n1 * d1) / h
            starts.append((v0, v1))
        ends.append((u, du))
    return starts, ends


def _continue(plan: _SeriesPlan, sigma: complex, y=(1.0, 0.0),
              legs=None) -> list:
    """(u, u') at the end of each leg of `plan`, for the spectral parameter
    sigma; of its first `legs` legs only, if given.

    The coefficients are polynomial in the radius, so the solutions continue
    analytically off the real axis.  Leg 0 starts from y = (u, u'), or, if
    it starts at a root of c2, on the branch analytic there with u = 1;
    every later leg starts from the end of leg 0.  With `legs`, only the
    steps of those legs are solved, on views of the first rows of the
    plan's bands: the steps' blocks do not couple, so their ends are the
    whole plan's wherever the stop rule below settles on the same term
    count.  One banded triangular solve gives every step's two basis
    sequences, and so its 2 x 2 transfer of (u, h u'); chained along the
    legs, they give every step's start.  A second solve from those starts
    gives each step's own terms, and a second chain carries through the
    transfers only the (rounding-sized) differences from those starts: a
    start that is a small combination of the basis sequences would
    otherwise lose digits to the cancellation.

    Every step must meet the stop rule on its own terms: each of the last
    _SERIES_RUN n |v_n| is below _SERIES_EPS of the larger of the sums of
    v_n and n v_n.  The term count doubles until it does, up to
    _SERIES_MAX.  StiffFailure is raised there, on non-finite sums, and
    where the indicial divisor n ((n - 1) c2'(z) + c1(z)) of a Frobenius
    centre falls below _FROBENIUS_MIN for some term n: the other exponent
    is the integer n there.
    """
    from scipy.linalg.lapack import ztbtrs
    legs = plan.legs[:legs]
    S, K = sum(map(len, legs)), _SERIES_TERMS
    h, frobenius = plan.h[:S], plan.frobenius[:S]
    while True:
        A, B, C, basis = plan.band(K)
        band = A[:S] + sigma * (B[:S] + sigma * C[:S])
        basis = basis[:S * K]
        divisor = band[frobenius, 1:, 0] / h[frobenius, None]
        if (np.abs(divisor) < _FROBENIUS_MIN).any():
            raise StiffFailure("indicial coincidence at the horizon; perturb sigma")
        band = band.reshape(S * K, -1).T
        n = np.arange(K, dtype=float)

        def solve(rhs):
            x, info = ztbtrs(band, rhs, uplo="L")
            if info != 0:
                raise StiffFailure("a series recurrence is singular")
            x = x.T.reshape(-1, S, K)                   # sequence, step, term
            return x, np.stack([x.sum(axis=2), (x * n).sum(axis=2)])

        _, sums = solve(basis)                          # sum, basis, step
        transfer = sums.transpose(2, 0, 1).reshape(S, 4).tolist()
        starts, _ = _chain(legs, y, transfer, repeat((0.0, 0.0, 0.0, 0.0)))
        rhs = np.zeros((S, K), complex)
        rhs[:, :2] = starts
        terms, own = solve(rhs.reshape(S * K, 1))
        terms, own = terms[0], own[:, 0]
        if not np.isfinite(own).all():
            raise StiffFailure("the series continuation overflowed")
        tail = n[-_SERIES_RUN:] * np.abs(terms[:, -_SERIES_RUN:])
        if (tail <= _SERIES_EPS * np.abs(own).max(axis=0)[:, None]).all():
            base = np.column_stack([starts, own.T]).tolist()
            return _chain(legs, y, transfer, base)[1]
        if K == _SERIES_MAX:
            raise StiffFailure("the series continuation did not converge")
        K = min(2 * K, _SERIES_MAX)


@lru_cache(maxsize=32)
def _oracle_plan(params: SpacetimeParams, ell: int) -> _SeriesPlan:
    """The shooting's plan on the loop of `_radial_family`: legs [start,
    entry] and [entry, horizon +- i radius, far end] (above, then below),
    with entry = horizon + radius; start, the regular end, is a root of c2."""
    fam = _radial_family(params, ell)
    start, sing, end, rad = fam.loop
    entry = sing + rad
    paths = [(start, entry)] + [(entry, sing + 1j * half * rad, end)
                                for half in (+1.0, -1.0)]
    roots = np.roots(fam.polys[0]).tolist()
    legs = [_walk(roots, path, k == 0) for k, path in enumerate(paths)]
    return _SeriesPlan.of(fam.polys, legs)


def oracle_shooting(params: SpacetimeParams, ell: int, sigma: complex) -> complex:
    """Monodromy detector of the regular branch continued around the horizon.

    The branch analytic at the regular end, normalized there to u = 1, runs
    by power series to entry = horizon + radius and on along [entry,
    horizon +- i radius, far end], above and below; the two halves close a
    loop around the horizon and no other root of c2.  The detector is the
    raw difference of the two end values (u, u'), read by the fixed
    functional (1, 0.37).  It is holomorphic in sigma and vanishes exactly
    when the branch extends analytically across the horizon, which is the
    defining property of a resonance; this holds at indicial coincidences too.

    On the axis, Re sigma == 0, every family is real (c2, c1a, c0a and c0c
    are real, c1b and c0b imaginary), so the continuation below is the
    conjugate of the one above, bit for bit, and the detector is 2i Im(u +
    0.37 u') of the upper end alone: leg 0 and the upper half, the plan's
    first two legs.
    """
    sigma = complex(sigma)
    plan = _oracle_plan(params, ell)
    if sigma.real == 0:
        _, (u, du) = _continue(plan, sigma, legs=2)
        return complex(0.0, 2.0 * (u + 0.37 * du).imag)
    _, (u_up, du_up), (u_dn, du_dn) = _continue(plan, sigma)
    return complex((u_up - u_dn) + 0.37 * (du_up - du_dn))


def oracle_refine(params: SpacetimeParams, ell: int, sigma0: complex) -> complex:
    """Secant refinement of a zero of the shooting detector near sigma0.

    The secant starts at the row itself, from (sigma0 + 1e-5 max(1,
    |sigma0|), sigma0): the solver holds a row to about 1e-8, so a start
    1e-4 away would spend its first steps coming back.  The spacing is ten
    times the secant's 1e-6 max(1, |s|) band, so the first step is taken
    outside it.  A row on the axis, Re sigma0 == 0, starts along the axis,
    from sigma0 + 1e-5 max(1, |sigma0|) i: there the detector is 2i Im(u +
    0.37 u'), Re = +0.0, so every secant quotient is imaginary, each iterate
    keeps Re = +0.0, and every shooting runs on the half loop.
    """
    step = 1e-5 * max(1.0, abs(sigma0)) * (1j if sigma0.real == 0 else 1.0)
    return _secant(lambda s: oracle_shooting(params, ell, s), sigma0 + step,
                   sigma0)


# ---------------------------------------------------------------------------
# resolvent, gluing, and the cutoff-resolvent correspondence
# ---------------------------------------------------------------------------

# the near-pole gate: a solve whose forward-error estimate exceeds this
# fraction of the solution is refused (resolvent_apply gives the measured gap)
_FORWARD_ERROR_MAX = 1e-6
_SIGMA_BLOCK = 1024     # sigma per shifted factor; bounds its K x block arrays


@dataclass(frozen=True)
class _TriangularForm:
    """L(sigma)^-1 = right (T - tau)^-1 left for every sigma at once, tau =
    -i sigma.

    The companion C of the pencil in tau (`_companion`), (C - tau) [u; tau
    u] = [0; L(sigma) u], is balanced by a diagonal D (no permutation) and
    reduced to Schur form, D^-1 C D = Z T Z^H; so left = Z^H[:, n:] / d[n:]
    and right = d[:n] Z[:n].  One reduction per pencil makes each shifted
    solve a back-substitution, O(K^2) per sigma (Laub, IEEE TAC 26 (1981)
    407).  The Schur form follows C's dtype: on a pencil real in tau
    (`real_in_tau`) it is the real one, whose quasi-triangular T has 1 x 1
    blocks for the real tau and 2 x 2 blocks for the conjugate pairs, and
    left, T and right are real; otherwise it is the complex one, with a
    triangular T.  A 2 x 2 block starts at each nonzero subdiagonal entry
    of T, so the complex form has none.
    """

    left: np.ndarray                # K x n
    T: np.ndarray                   # K x K, upper (quasi-)triangular
    right: np.ndarray               # n x K
    blocks: tuple                   # (start, size) of T's diagonal blocks, last first

    @classmethod
    def of(cls, op: DiscretizedOperator) -> "_TriangularForm":
        """The form of the monic pencil of `op`."""
        C, n = _companion(op), op.N + 1
        from scipy.linalg import matrix_balance, schur
        try:
            Cb, (d, _) = matrix_balance(C, permute=False, separate=True)
            T, Z = schur(Cb, output="real" if np.isrealobj(C) else "complex")
        except np.linalg.LinAlgError as exc:   # pragma: no cover
            raise SolverFailure(str(exc)) from exc
        pair = np.diagonal(T, -1) != 0
        blocks, i = [], 0
        while i < len(T):
            size = 2 if i < len(pair) and pair[i] else 1
            blocks.append((i, size))
            i += size
        return cls(Z.conj().T[:, n:] / d[n:], T, d[:n, None] * Z[:n],
                   tuple(blocks[::-1]))


class _ShiftedFactor:
    """T - tau of a `_TriangularForm` for one block of M sigma values, tau =
    -i sigma.

    The shifted diagonal D = diag(T) - tau and the determinant D[i] D[i+1]
    - b c of each 2 x 2 block are formed once, and every back-substitution
    of the block runs through them in place: `solve` writes Y = left X into
    the one K x M work array and turns it into W row by row, with two (M,)
    scratch rows.  On a real T each product runs on the real (k, 2M) views
    of its complex operands.
    """

    def __init__(self, tf: _TriangularForm, sig: np.ndarray):
        T = tf.T
        self.tf = tf
        self.D = D = np.diag(T)[:, None] - (-1j * sig)
        self.det = {i: D[i] * D[i + 1] - T[i, i + 1] * T[i + 1, i]
                    for i, size in tf.blocks if size == 2}
        self.W = np.empty(D.shape, dtype=complex)
        self.r = np.empty((2, len(sig)), dtype=complex)

    def _mul(self, A: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        if A.dtype == float:    # a real T: one real product on X's real view
            np.matmul(A, np.ascontiguousarray(X).view(float), out=out.view(float))
        else:
            np.matmul(A, X, out=out)
        return out

    def solve(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Columns L(sig[m])^-1 X[:, m], by one back-substitution for all m,
        written to `out` (a new n x M array if None).

        Each 2 x 2 block is solved by Cramer's rule for all m at once.
        """
        tf, D, W, r, mul = self.tf, self.D, self.W, self.r, self._mul
        T = tf.T
        mul(tf.left, X, W)                  # Y, overwritten by W row by row
        for i, size in tf.blocks:
            if size == 1:
                w = W[i]
                np.subtract(w, mul(T[i, i + 1:], W[i + 1:], r[0]), out=w)
                np.divide(w, D[i], out=w)
            else:
                p = mul(T[i:i + 2, i + 2:], W[i + 2:], r)
                r0, r1 = np.subtract(W[i:i + 2], p, out=r)
                b, c, det = T[i, i + 1], T[i + 1, i], self.det[i]
                w0, w1 = W[i], W[i + 1]
                # W[i] = (D[i+1] r0 - b r1) / det, with b r1 held in W[i+1]
                np.subtract(np.multiply(D[i + 1], r0, out=w0),
                            np.multiply(b, r1, out=w1), out=w0)
                np.divide(w0, det, out=w0)
                # W[i+1] = (D[i] r1 - c r0) / det, with c r0 held in r0
                np.subtract(np.multiply(D[i], r1, out=w1),
                            np.multiply(c, r0, out=r0), out=w1)
                np.divide(w1, det, out=w1)
        if out is None:
            out = np.empty((len(tf.right), W.shape[1]), dtype=complex)
        return mul(tf.right, W, out)


def _solve(op: DiscretizedOperator, sig: np.ndarray, F: np.ndarray):
    """(U, err): rows U[m] = L(sig[m])^-1 F[m] and forward-error estimates.

    Each block of _SIGMA_BLOCK sigma values is solved through one
    `_ShiftedFactor` of `op.triangular_form` (real on an absorber-free
    pencil, complex otherwise), whose shifts tau = -i sigma are formed once
    for the block's four back-substitutions, and refined twice on the
    residual F - L(sig) U of the pencil itself, in complex arithmetic on
    either form; the residual and the correction live in two n x M arrays
    reused by both steps and by the error estimate.  err[m] estimates ||u_m
    - L^-1 f_m|| by one more solve, of g = eps (|A0||u| + |s||A1||u| +
    |s|^2 |u| + |f|) times fixed unit-modulus signs: the componentwise
    bound || |L^-1| g || behind LAPACK's xGERFS FERR (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 12).  It is nan where the solve
    is not finite.  The real form and the complex form of the same
    companion agree within the sum of their two estimates.
    """
    sig = np.asarray_chkfinite(sig)
    F = np.asarray_chkfinite(F)
    tf = op.triangular_form
    A0, A1 = op.matrices
    abs0, abs1 = np.abs(A0), np.abs(A1)
    signs = np.exp(2j * np.pi * np.random.default_rng(0).random(F.shape[1]))
    eps = np.finfo(float).eps
    U = np.empty(F.shape, dtype=complex)
    err = np.empty(len(sig))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(0, len(sig), _SIGMA_BLOCK):
            s, X = sig[j:j + _SIGMA_BLOCK], F[j:j + _SIGMA_BLOCK].T
            fac = _ShiftedFactor(tf, s)
            V = fac.solve(X)
            R, C = np.empty_like(V), np.empty_like(V)
            ss = s * s
            for _ in range(2):
                # R = X - (A0 V + s (A1 V) + s^2 V), then V = V + L^-1 R
                np.add(np.matmul(A0, V, out=R),
                       np.multiply(s, np.matmul(A1, V, out=C), out=C), out=R)
                np.add(R, np.multiply(ss, V, out=C), out=R)
                np.subtract(X, R, out=R)
                np.add(V, fac.solve(R, C), out=V)
            # g = eps (|A0||V| + |s| (|A1||V|) + |s|^2 |V| + |X|) in g, with
            # h and then R reused
            aV, a_s = np.abs(V), np.abs(s)
            g, h = np.empty_like(aV), np.empty_like(aV)
            np.add(np.matmul(abs0, aV, out=g),
                   np.multiply(a_s, np.matmul(abs1, aV, out=h), out=h), out=g)
            np.add(g, np.multiply(a_s * a_s, aV, out=h), out=g)
            np.add(g, np.abs(X, out=h), out=g)
            np.multiply(eps, g, out=g)
            np.multiply(signs[:, None], g, out=R)
            e = np.linalg.norm(fac.solve(R, C), axis=0)
            err[j:j + _SIGMA_BLOCK] = np.where(np.isfinite(V).all(axis=0), e, np.nan)
            U[j:j + _SIGMA_BLOCK] = V.T
    return U, err


def resolvent_apply(op: DiscretizedOperator, sigma, f: np.ndarray) -> np.ndarray:
    """Solve op.pencil(sigma) u = f for one sigma or a whole array of them.

    sigma of shape (M,) with f of shape (M, n) (or any shape that
    broadcasts to it) gives u of shape (M, n); a scalar sigma with f of
    shape (n,) gives u of shape (n,).  A non-finite sigma or f raises
    ValueError.  The pencil is reduced once per operator
    (`op.triangular_form`: the Schur form of its companion in tau = -i
    sigma, real when the pencil is real in tau, as every pencil without an
    absorber is, and complex otherwise).  Each block of sigma
    values gets one shifted factor, whose shifts serve its four
    back-substitutions in place: the solve, two refinement steps on the
    pencil's own residual and the forward-error solve.  The near-pole gate
    reads the forward-error estimate of `_solve`: NearPole is raised when it
    exceeds _FORWARD_ERROR_MAX ||u|| at any sigma, or when the solve there
    is not finite (sigma on an eigenvalue); its `sigma` is the first such
    sigma.  u = f = 0 passes.  The bound lies between the estimates on the
    lines and residue circles of `qnmkit expand`, far below it, and those
    at the solver's converged roots, far above it; near a pole the estimate
    grows as 1 / distance (`TestResolvent` pins both sides).
    """
    sig = np.asarray(sigma, dtype=complex)
    n = op.N + 1
    F = np.broadcast_to(np.asarray(f, dtype=complex), sig.shape + (n,))
    sig = sig.reshape(-1)
    U, err = _solve(op, sig, F.reshape(-1, n))
    bad = ~(err <= _FORWARD_ERROR_MAX * np.linalg.norm(U, axis=1))
    if bad.any():
        exc = NearPole(f"pencil nearly singular at sigma = {sig[np.argmax(bad)]}")
        exc.sigma = sig[np.argmax(bad)]
        raise exc
    return U.reshape(F.shape)


# the gluing check's Q' is a bump of height _QPRIME_STRENGTH and half-width
# _QPRIME_WIDTH about _QPRIME_CENTER in the grid coordinate; _GLUING_PROBES
# vectors, drawn from a generator seeded with 0, probe the norm
_QPRIME_STRENGTH = 3.0
_QPRIME_CENTER = 0.5
_QPRIME_WIDTH = 0.1
_GLUING_PROBES = 20


def gluing_check(op: DiscretizedOperator, sigma: complex) -> float:
    """Probe-estimated operator norm of the resolvent gluing identity residual.

    Q' is a compactly supported multiplication absorber inside the physical
    region with a cutoff chi == 1 on its support, so the identity
    R = R' - R'(iQ' + Q' chi R chi Q') R' is algebraically exact.  The norm
    is the largest ratio over _GLUING_PROBES random probe vectors.  R = A^-1
    is one `resolvent_apply` of the n unit vectors at sigma, whose gate
    raises NearPole.
    """
    x = op.grid
    c, w = _QPRIME_CENTER, _QPRIME_WIDTH
    t_up = smooth_step((x - (c - w)) / (0.4 * w))
    t_dn = smooth_step(((c + w) - x) / (0.4 * w))
    qp = _QPRIME_STRENGTH * t_up * t_dn
    chi = np.where(np.abs(x - c) <= 1.6 * w, 1.0, 0.0)
    chi = np.maximum(chi, (qp > 0).astype(float))   # chi == 1 on supp q'
    Qp = np.diag(qp).astype(complex)
    CHI = np.diag(chi).astype(complex)
    n = len(x)
    R = resolvent_apply(op, np.full(n, sigma), np.eye(n)).T
    Rp = np.linalg.inv(op.pencil(sigma) - 1j * Qp)
    rhs = Rp - Rp @ (1j * Qp + Qp @ (CHI @ R @ CHI) @ Qp) @ Rp
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(_GLUING_PROBES):
        v = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        worst = max(worst, np.linalg.norm((R - rhs) @ v) / np.linalg.norm(v))
    return worst
