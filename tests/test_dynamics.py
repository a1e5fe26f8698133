import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import qnmkit.dynamics as dynamics
from qnmkit.spacetime import SpacetimeParams, NoHorizons, mu_tilde, \
    horizon_roots, domain
from qnmkit.symbols import PhasePoint, CompactPhasePoint, ds_symbol_polar
from qnmkit.dynamics import (
    integrate_flow, classify_radial, find_trapped_set, trapping_function,
    trapping_linearization, NoRoot, MultipleRoots, Bicharacteristic,
    StepFailure,
)

KDS = SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter")
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")


def points(samples):
    """The samples as the point objects they stand for (a tuple on deSitter)."""
    out = []
    for y, compact, sign_xi in zip(samples.y.tolist(), samples.compact.tolist(),
                                   samples.sign_xi.tolist()):
        if len(y) == 3:
            out.append(tuple(y))
        elif compact:
            out.append(CompactPhasePoint(tuple(y[:3]), *y[3:], sign_xi))
        else:
            out.append(PhasePoint(*y))
    return out


def reflected(point):
    """The fiber reflection (x, xi) -> (x, -xi) of a point: the symbol is
    even in the fiber, so the flow from the reflected point runs the
    reflected trajectory backwards.  On deSitter it flips sign_xi."""
    if isinstance(point, tuple):
        return (*point[:3], -point[3])
    if isinstance(point, CompactPhasePoint):
        return CompactPhasePoint(point.base, point.nu, -point.eta_hat,
                                 -point.zeta_hat, -point.sign_xi)
    return PhasePoint(point.r, point.theta, point.phi, -point.xi, -point.eta,
                      -point.zeta)


def bisect(f, a, b, iters=200):
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if fa * f(m) <= 0:
            b = m
        else:
            a, fa = m, f(m)
    return 0.5 * (a + b)


class TestIntegrateFlow:
    def test_hamiltonian_conserved_off_shell(self):
        # the flow preserves every level set of p, not only p = 0
        pt = PhasePoint(0.8, 1.1, 0.0, 0.9, 0.4, -0.6)
        tol = 1e-10
        bc = integrate_flow(KDS, pt, 8.0, tol=tol)
        assert abs(bc.conserved_ledger["p"][0]) > 1e-3
        assert bc.drift("p") <= 10 * tol
        assert bc.drift("zeta") <= 10 * tol
        assert bc.drift("ptilde") <= 10 * tol

    def test_sink_attraction_near_outer_horizon(self):
        hd = horizon_roots(DSS)
        # seed with |mu~| ~ 1e-4, nu = eta^ = zeta^ = 1e-3 just outside L_+
        r0 = hd.r_plus - 1e-4 / hd.gamma_plus
        cpt = CompactPhasePoint((r0, 1.3, 0.0), 1e-3, 1e-3, 1e-3, -1)
        bc = integrate_flow(DSS, cpt, 12.0, tol=1e-11)
        last = points(bc.samples)[-1]
        assert last.nu < 1e-8
        assert abs(last.eta_hat) < 1e-8
        assert abs(mu_tilde(DSS, last.base[0])[0]) < 1e-7

    def test_time_reversal(self):
        # the run from the reflected end point lands on the reflected start
        pt = PhasePoint(0.7, 1.4, 0.2, 0.6, -0.3, 0.5)
        tol = 1e-11
        bc = integrate_flow(KDS, pt, 1.5, tol=tol)
        s_end, end = bc.samples.s[-1], points(bc.samples)[-1]
        endpt = end.affine() if isinstance(end, CompactPhasePoint) else end
        back = integrate_flow(KDS, reflected(endpt), s_end, tol=tol)
        back_end = points(back.samples)[-1]
        bp = back_end.affine() if isinstance(back_end, CompactPhasePoint) else back_end
        got = np.array([bp.r, bp.theta, bp.phi, bp.xi, bp.eta, bp.zeta])
        want = np.array([pt.r, pt.theta, pt.phi, -pt.xi, -pt.eta, -pt.zeta])
        assert np.max(np.abs(got - want)) <= 100 * tol

    def test_domain_exit_recorded(self):
        pt = PhasePoint(0.9, 1.2, 0.0, 1.5, 0.0, 0.0)
        bc = integrate_flow(KDS, pt, 100.0, tol=1e-9)
        assert bc.exit_reason == "domain"

    @pytest.mark.parametrize("params", [KDS, DSS], ids=["kds", "dss"])
    @pytest.mark.parametrize("start", [
        PhasePoint(0.6, 0.3, 0.0, 0.5, 2.0, 0.0),
        PhasePoint(0.6, 1.2, 0.0, 2.5, 1.0, 0.0),
    ], ids=["theta-0.3", "theta-1.2"])
    def test_flow_aimed_at_the_axis_ends_there(self, params, start):
        # with zeta = 0 the ray runs into theta = 0; a trial stage that jumps
        # past it raises PolarSingularity in the kernel, which rejects the
        # step as an overflow does, so the run ends at the axis event
        bc = integrate_flow(params, start, 4.0, tol=1e-10)
        assert bc.exit_reason == "axis"
        assert bc.samples.y[-1, 1] == pytest.approx(dynamics._AXIS_MARGIN,
                                                    rel=1e-9)
        steps, rejected, _ = bc.integrator_stats
        assert rejected > 0 and steps < 20

    @pytest.mark.parametrize("start, sign_xi", [
        (PhasePoint(0.8, 1.1, 0.0, 2.0, 0.4, -0.6), None),
        (PhasePoint(0.8, 1.1, 0.0, -2.2, 0.4, -0.6), -1),
        (CompactPhasePoint((0.8, 1.1, 0.0), 0.45, 0.2, -0.3, +1), +1),
        (CompactPhasePoint((0.8, 1.1, 0.0), 0.5, 0.2, -0.3, -1), None),
    ], ids=["affine-xi-2", "compact-xi-2.2", "compact-nu-0.45", "affine-nu-0.5"])
    def test_chart_follows_the_start(self, monkeypatch, start, sign_xi):
        # the first segment runs the compact chart (its kernel takes the sign
        # of xi) from |xi| > 2 or nu < 0.5, else the affine one (None)
        seen = []

        def spied(params, horizon_sign, sxi=None, _f=dynamics.hamilton_kernel):
            seen.append(sxi)
            return _f(params, horizon_sign, sxi)
        monkeypatch.setattr(dynamics, "hamilton_kernel", spied)
        integrate_flow(KDS, start, 0.1, tol=1e-10)
        assert seen[0] == sign_xi

    @pytest.mark.parametrize("params, start, T, n_calls", [
        (KDS, PhasePoint(0.8, 1.1, 0.0, 0.9, 0.4, -0.6), 8.0, 2),
        (KDS, PhasePoint(0.8, 1.1, 0.0, 2.2, 0.4, -0.6), 4.0, 3),
        (DS, (1e-4, 8e-4, -5e-4, 1), 4.0, 1),
    ], ids=["kds-one-handoff", "kds-two-handoffs", "ds"])
    def test_rejected_count_matches_attempts(self, monkeypatch, params, start,
                                             T, n_calls):
        # a run evaluates the field twice to start, 12 times per step attempt
        # and 3 more times per accepted step for the step's interpolant
        evals, calls = [], []

        def counted(field):
            def wrapped(*a):
                evals.append(1)
                return field(*a)
            return wrapped
        monkeypatch.setattr(dynamics, "hamilton_kernel",
                            lambda *a, _f=dynamics.hamilton_kernel:
                            counted(_f(*a)))
        monkeypatch.setattr(dynamics, "ds_reduced_compact_field",
                            counted(dynamics.ds_reduced_compact_field))

        def counted_run(*a, _f=dynamics._dop853, **k):
            calls.append(1)
            return _f(*a, **k)
        monkeypatch.setattr(dynamics, "_dop853", counted_run)
        bc = integrate_flow(params, start, T, tol=1e-10)
        steps, rejected, _ = bc.integrator_stats
        assert len(calls) == n_calls
        attempts, rest = divmod(len(evals) - 2 * len(calls) - 3 * steps, 12)
        assert rest == 0
        assert steps + rejected == attempts

    @pytest.mark.parametrize("params, start", [
        (KDS, PhasePoint(0.5, 1.2, 0.3, 0.4, 0.2, 0.1)),
        (DS, (1e-4, 8e-4, -5e-4, 1)),
    ], ids=["kds", "ds"])
    def test_kernels_get_python_floats(self, monkeypatch, params, start):
        # on numpy float64 states a kernel's x ** 2 gives inf with a warning
        # instead of the OverflowError that _dop853 turns into a rejected step
        kinds = set()

        def spied(field):
            def wrapped(*a):
                y = a[0] if len(a) == 1 else a[:3]
                kinds.update(type(v) for v in y)
                return field(*a)
            return wrapped
        monkeypatch.setattr(dynamics, "hamilton_kernel",
                            lambda *a, _f=dynamics.hamilton_kernel:
                            spied(_f(*a)))
        monkeypatch.setattr(dynamics, "ds_reduced_compact_field",
                            spied(dynamics.ds_reduced_compact_field))
        integrate_flow(params, start, 4.0, tol=1e-10)
        assert kinds == {float}

    @pytest.mark.parametrize("n_samples", [200, 2000])
    def test_point_objects_do_not_scale_with_samples(self, monkeypatch,
                                                     n_samples):
        # the samples stay arrays: point objects are built for the start and
        # per chart handoff, never per sample or right-hand-side evaluation
        built, calls = [], []
        for cls in (PhasePoint, CompactPhasePoint):
            def counted(self, _f=cls.__post_init__):
                built.append(1)
                _f(self)
            monkeypatch.setattr(cls, "__post_init__", counted)

        def counted_run(*a, _f=dynamics._dop853, **k):
            calls.append(1)
            return _f(*a, **k)
        monkeypatch.setattr(dynamics, "_dop853", counted_run)
        start = PhasePoint(0.8, 1.1, 0.0, 2.2, 0.4, -0.6)
        built.clear()   # the start itself is built by the caller
        bc = integrate_flow(KDS, start, 4.0, tol=1e-10, n_samples=n_samples)
        handoffs = len(calls) - 1
        assert handoffs == 2
        assert len(bc.samples.s) >= n_samples - 4
        assert len(built) <= 2 * handoffs + 4

    def test_step_failure_below_float_spacing(self):
        # the field is NaN from y = 1/2 on: steps reaching it are rejected
        # and shrink until the step is below ten float spacings at y ~ 1/2
        finite = []

        def field(y):
            if y[0] < 0.5:
                finite.append(y[0])
                return [1.0]
            return [math.nan]
        with pytest.raises(StepFailure):
            dynamics._dop853(field, 1.0, [0.0], 1e-10, 1e-12)
        assert 0.5 - max(finite) < 10 * math.ulp(0.5)

    def test_overflow_rejects_the_trial_step(self):
        # Python's ** raises OverflowError where numpy gives inf: in a trial
        # stage it rejects the step (0.2 times, as scipy does for an infinite
        # error norm) until the step falls below the float spacing; outside
        # a trial step it raises StepFailure at once
        with pytest.raises(StepFailure, match="spacing"), \
                np.errstate(over="ignore", invalid="ignore"):
            dynamics._dop853(
                lambda y: [1.0 + (max(y[0] - 1.0, 0.0) * 1e160) ** 2],
                2.0, [0.0], 1e-10, 1e-12)
        with pytest.raises(StepFailure, match="overflow"):
            dynamics._dop853(lambda y: [(y[0] * 1e160) ** 2], 1.0, [1.0],
                             1e-10, 1e-12)

    @pytest.mark.parametrize("params, start", [
        (DS, (0.995, 0.5, 0.1, 1)),
        (DS, (-0.9, 0.5, 0.1, 1)),
        (DS, (0.1, 10.5, 0.1, 1)),
        (DSS, PhasePoint(5.0, 1.2, 0.3, 0.5, 0.2, 0.1)),
        (KDS, CompactPhasePoint((0.01, 1.2, 0.3), 0.2, 0.1, 0.1, 1)),
    ], ids=["ds-mu-high", "ds-mu-low", "ds-nu-high", "dss-r-high",
            "kds-r-low"])
    def test_start_outside_domain_refused(self, params, start):
        # an exit event fires only on a sign change, so a start beyond a
        # bound would run on as if inside (the first two to mu = 0.99 and
        # -0.68 in 34 steps, the dss start into a StepFailure)
        with pytest.raises(ValueError, match="outside the flow domain"):
            integrate_flow(params, start, 10.0)

    @pytest.mark.parametrize("params, start, T", [
        (DSS, PhasePoint(0.9, 1.2, 0.0, 1.5, 0.0, 0.0), 100.0),
        (DS, (-0.05, 0.3, 0.2, -1), 10.0),
        (DS, (0.05, 0.3, 0.2, -1), 10.0),
    ], ids=["dss-domain-exit", "ds-domain-exit", "ds-chart-exit"])
    def test_domain_exit_end_point_is_a_valid_start(self, params, start, T):
        # the exit root lies to 4 eps in the flow parameter, so the end point
        # can lie on its bound (r = r_hi exactly on dss-domain-exit) or
        # overshoot it (nu = 10 + 4.2e-13 on ds-chart-exit); the reversed run
        # starts there, moves inward without firing the exit it sits on, and
        # runs back its full length to the start
        tol = 1e-10
        ds = params.model == "deSitter"
        bc = integrate_flow(params, start, T, tol=tol)
        assert bc.exit_reason == "domain"
        last = points(bc.samples)[-1]
        back = integrate_flow(params, reflected((*last, start[3]) if ds else last),
                              bc.samples.s[-1], tol=tol)
        assert back.exit_reason == "time"
        first = points(back.samples)[0]
        assert first == (last if ds else reflected(last))
        got = points(back.samples)[-1]
        if not ds:
            got = dataclasses.astuple(reflected(
                got.affine() if isinstance(got, CompactPhasePoint) else got))
        want = start[:3] if ds else dataclasses.astuple(start)
        assert np.max(np.abs(np.subtract(got, want))) <= 100 * tol

    def test_minkowski_boundary_rejected(self):
        mink = SpacetimeParams(0.0, model="MinkowskiBoundary", n=4)
        for start in (PhasePoint(0.5, 1.0, 0.0, 1.0, 0.2, 0.3),
                      (1e-4, 8e-4, -5e-4, 1)):
            with pytest.raises(ValueError, match="MinkowskiBoundary"):
                integrate_flow(mink, start, 1.0)

    def test_de_sitter_has_no_inner_horizon(self):
        # the static patch has one horizon, the cosmological one: a run at
        # horizon_sign = -1 names none and raises, as classify_radial does
        # for a missing horizon of a two-horizon model
        start = (1e-4, 8e-4, -5e-4, 1)
        with pytest.raises(NoHorizons, match="no inner horizon"):
            integrate_flow(DS, start, 4.0, horizon_sign=-1)
        with pytest.raises(NoHorizons, match="no inner horizon"):
            classify_radial(DS, -1, n_traj=1)

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            integrate_flow(KDS, PhasePoint(0.8, 1.0, 0, 1, 0, 0), 1.0, tol=1e-2)


def solve_ivp_referee(fun, T, y0, rtol, atol, events):
    """scipy's solve_ivp on a `_dop853` problem, with its steps counted."""
    evs = []
    for g, direction in events:
        def ev(t, y, g=g):
            return g(np.asarray(y).tolist())
        ev.terminal, ev.direction = True, direction
        evs.append(ev)
    sol = solve_ivp(lambda t, y: fun(y.tolist()), (0.0, T), y0,
                    method="DOP853", rtol=rtol, atol=atol, dense_output=True,
                    events=evs)
    # 2 evaluations to start, 12 per attempt, 3 per accepted step
    steps = len(sol.t) - 1
    rejected, rest = divmod(sol.nfev - 2 - 15 * steps, 12)
    assert rest == 0
    return sol, steps, rejected


def assert_run_matches_referee(args, run):
    """A `_dop853` run is bit for bit solve_ivp's: steps, rejections, the
    event and its parameter, the end state, every step's interpolant
    coefficients F and the dense output, also at the step ends, where the
    step that closes wins."""
    sol, steps, rejected = solve_ivp_referee(*args)
    assert (run.steps, run.rejected) == (steps, rejected)
    assert sol.status == (1 if run.event >= 0 else 0)
    fired = [i for i, te in enumerate(sol.t_events) if len(te)]
    assert fired == ([run.event] if run.event >= 0 else [])
    assert run.t == sol.t[-1]
    assert run.y == sol.y[:, -1].tolist()
    assert np.array_equal(run.t_old, sol.t[:-1])
    for k, dense in enumerate(sol.sol.interpolants):
        assert np.array_equal(run.F[k], dense.F)
    s = np.union1d(np.linspace(0.0, run.t, 301), sol.t)
    assert np.array_equal(run.sample(s), sol.sol(s).T)


class TestDop853Referee:
    @pytest.mark.parametrize("params, start, T, n_runs, reason", [
        (KDS, PhasePoint(0.8, 1.1, 0.0, 2.2, 0.4, -0.6), 4.0, 3, "time"),
        (DSS, PhasePoint(0.9, 1.2, 0.0, 1.5, 0.0, 0.0), 100.0, 1, "domain"),
        (DS, (1e-4, 8e-4, -5e-4, 1), 4.0, 1, "time"),
        (DS, (-0.05, 0.3, 0.2, -1), 10.0, 1, "domain"),
        # toward the centre mu = 1 the ray turns at xi = 0 (nu -> infinity)
        (DS, (0.05, 0.3, 0.2, -1), 10.0, 1, "domain"),
        # the time reversal of the run from (0.7, 1.4, 0.2, 0.6, -0.3, 0.5)
        (KDS, reflected(PhasePoint(0.7, 1.4, 0.2, 0.6, -0.3, 0.5)), 6.0, 2,
         "time"),
    ], ids=["kds-two-handoffs", "dss-domain-exit", "ds", "ds-domain-exit",
            "ds-chart-exit", "kds-reversed"])
    def test_runs_match_solve_ivp(self, monkeypatch, params, start, T,
                                  n_runs, reason):
        # every run of a flow is bit for bit solve_ivp's
        runs = []

        def recorded(*a, _f=dynamics._dop853):
            runs.append((a, _f(*a)))
            return runs[-1][1]
        monkeypatch.setattr(dynamics, "_dop853", recorded)
        bc = integrate_flow(params, start, T, tol=1e-10)
        assert bc.exit_reason == reason
        assert len(runs) == n_runs
        for args, run in runs:
            assert_run_matches_referee(args, run)

    def test_interpolants_match_scipy(self):
        # with every F[0] scaled, a step's interpolant at x = 1 no longer
        # meets the next step's start, so the step ends tell the step that
        # closes (OdeSolution's pick) from the one that opens; the scalar
        # interpolant of the event search must be Dop853DenseOutput's too
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput
        run = dynamics._dop853(lambda y: [y[1], -y[0]], 5.0, [1.0, 0.0],
                               1e-10, 1e-12)
        F = run.F.copy()
        F[:, 0] *= 1 + 1e-6
        run = dataclasses.replace(run, F=F)
        ends = np.append(run.t_old, run.t)
        dense = [Dop853DenseOutput(a, b, y, Fk)
                 for a, b, y, Fk in zip(ends[:-1], ends[1:], run.y_old, F)]
        s = np.union1d(np.linspace(0.0, run.t, 101), ends)
        assert np.array_equal(run.sample(s), OdeSolution(ends, dense)(s).T)
        for k, (a, h, y, Fk) in enumerate(zip(run.t_old, run.h, run.y_old, F)):
            point = dynamics._interpolant(Fk, a, h, y.tolist())
            for u in np.linspace(a, a + h, 7).tolist():
                assert point(u) == dense[k](u).tolist()


# a polynomial, a step interpolant, roots at either bracket end and the
# trapping function at find_trapped_set's tolerances: (f, a, b, xtol, rtol)
def _brentq_cases():
    eps4 = 4 * np.finfo(float).eps
    run = dynamics._dop853(lambda y: [y[1], -y[0]], 5.0, [1.0, 0.0],
                           1e-10, 1e-12)
    k = int(np.searchsorted(run.t_old, math.pi / 2)) - 1
    point = dynamics._interpolant(run.F[k], run.t_old[k], run.h[k],
                                  run.y_old[k].tolist())
    hd = horizon_roots(KDS)
    return {
        "polynomial": (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, 2e-12, eps4),
        "interpolant": (lambda u: point(u)[0], run.t_old[k],
                        run.t_old[k] + run.h[k], eps4, eps4),
        "root-at-a": (lambda x: x - 1.0, 1.0, 2.0, eps4, eps4),
        "root-at-b": (lambda x: x - 1.0, 0.0, 1.0, eps4, eps4),
        "trapping": (lambda r: trapping_function(KDS, r),
                     hd.r_minus * (1 + 1e-9), hd.r_plus * (1 - 1e-9),
                     1e-15, 8.9e-16),
    }


class TestScipyReferees:
    def test_tableau_is_scipys(self):
        # read from scipy's coefficient module by path: it must equal what
        # scipy.integrate.DOP853 holds, or the module has moved
        from scipy.integrate import DOP853 as M
        want = (M.A, M.B, M.E3, M.E5, M.D, M.A_EXTRA, M.n_stages)
        got = dynamics._tableau()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", ["polynomial", "interpolant",
                                      "root-at-a", "root-at-b", "trapping"])
    def test_brentq_matches_scipy(self, case):
        from scipy.optimize import brentq
        f, a, b, xtol, rtol = _brentq_cases()[case]
        root = dynamics._brentq(f, a, b, xtol, rtol)
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol)

    @pytest.mark.parametrize("f, a, b, xtol, rtol", [
        (lambda x: math.nan if 0.5 < x < 0.9 else x - 0.7, 0.0, 1.0, 1e-12,
         1e-15),
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15),
        (lambda x: 1.0 if x > 0 else -1.0, -1.0, 2.0, 1e-300, 1e-15),
        (lambda x: x, -1.0, 2.0, 0.0, 1e-15),
        (lambda x: x, -1.0, 2.0, 1e-12, 1e-16),
    ], ids=["nan", "same-sign", "no-convergence", "xtol", "rtol"])
    def test_brentq_raises_as_scipy(self, f, a, b, xtol, rtol):
        from scipy.optimize import brentq
        with pytest.raises((ValueError, RuntimeError)) as want:
            brentq(f, a, b, xtol=xtol, rtol=rtol)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            dynamics._brentq(f, a, b, xtol, rtol)


class TestSegmentLedger:
    @pytest.mark.parametrize("horizon_sign", [+1, -1])
    @pytest.mark.parametrize("params", [KDS, DSS], ids=["kds", "dss"])
    def test_matches_pointwise_symbol_bit_for_bit(self, monkeypatch, params,
                                                  horizon_sign):
        # the ledger evaluates the symbol once per segment on arrays; every
        # value must equal the pointwise one, which pins the squares to pow
        seen = []         # (pointwise function, states, values) per call

        def spy(name):
            def wrapped(p, states, *a, _f=getattr(dynamics, name)):
                vals = _f(p, states, *a)
                seen.append((lambda pt, _a=a: _f(p, pt, *_a), states.copy(),
                             vals))
                return vals
            monkeypatch.setattr(dynamics, name, wrapped)
        spy("kds_classical_symbol")
        spy("kds_angular_part")
        start = PhasePoint(0.8, 1.1, 0.0, 2.2, 0.4, -0.6)
        bc = integrate_flow(params, start, 4.0, tol=1e-10,
                            horizon_sign=horizon_sign)
        charts = []
        for pointwise, states, vals in seen:
            compact = bool(np.all(np.abs(states[:, 3]) == 1.0))
            charts.append(compact)
            want = [pointwise(y) for y in states]
            np.testing.assert_array_equal(vals, want)
        assert set(charts) == {True, False}
        # the ledger holds these values: the scaled symbol in the compact
        # chart, the symbol itself in the affine one
        led = bc.conserved_ledger
        at = 0
        for (_, states, p), (_, _, ptil), compact in zip(seen[::2], seen[1::2],
                                                          charts[::2]):
            seg = slice(at, at + len(states))
            keys = ("p_scaled", "ptilde_scaled") if compact else ("p", "ptilde")
            np.testing.assert_array_equal(led[keys[0]][seg], p)
            np.testing.assert_array_equal(led[keys[1]][seg], ptil)
            at += len(states)
        assert at == len(bc.samples.s)


def rho0_closed_form(params, point, horizon_sign):
    """The quadratic defining function rho_0 at a sample, in closed form.

    deSitter: eta_hat^2 + p_hat^2 with p_hat = -4 (1 - mu) mu - eta_hat^2 / (1 - mu).
    Kerr family: ptilde_hat + p_hat^2 at the scaled point xi = sign_xi.
    """
    if params.model == "deSitter":
        mu, _, ehat = point
        return ehat ** 2 + (4 * (1 - mu) * mu + ehat ** 2 / (1 - mu)) ** 2
    r, theta, _ = point.base
    gamma, a = params.gamma, params.alpha
    kap = 1.0 + gamma * math.cos(theta) ** 2
    st2 = math.sin(theta) ** 2
    ptil_hat = kap * point.eta_hat ** 2 \
        + (1 + gamma) ** 2 * point.zeta_hat ** 2 / (kap * st2)
    p_hat = (-mu_tilde(params, r)[0]
             + 2.0 * horizon_sign * (1 + gamma) * a * point.sign_xi * point.zeta_hat
             - ptil_hat)
    return ptil_hat + p_hat ** 2


class TestClassifyRadial:
    @pytest.mark.parametrize("params, horizon_sign, start, kw", [
        (DS, +1, (4e-4, 8e-4, -5e-4, 1), {"n_samples": 400}),
        (DSS, +1, CompactPhasePoint((horizon_roots(DSS).r_plus + 5e-4, 1.1, 0.0),
                                    8e-4, -6e-4, 3e-4, -1), {}),
        (KDS, -1, CompactPhasePoint((horizon_roots(KDS).r_minus - 5e-4, 1.9, 0.0),
                                    8e-4, 6e-4, -3e-4, +1), {}),
    ], ids=["ds", "dss", "kds-inner"])
    def test_ledger_rho0_matches_closed_form(self, params, horizon_sign, start, kw):
        # classify_radial reads rho_0 from the ledger; the formulas it used to
        # compute inline stay here as the reference
        bc = integrate_flow(params, start, 4.0, tol=1e-11,
                            horizon_sign=horizon_sign, **kw)
        led = bc.conserved_ledger
        got = led["ptilde_scaled"] + led["p_scaled"] ** 2
        want = np.array([rho0_closed_form(params, p, horizon_sign)
                         for p in points(bc.samples)])
        assert len(got) == len(bc.samples.s) >= 200
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_traj, calls", [(3, 20), (23, 23)])
    def test_de_sitter_runs_through_integrate_flow(self, monkeypatch, n_traj,
                                                   calls):
        seen = []

        def counted(*a, _f=dynamics.integrate_flow, **k):
            seen.append(k.get("n_samples"))
            return _f(*a, **k)
        monkeypatch.setattr(dynamics, "integrate_flow", counted)
        rep = classify_radial(DS, +1, n_traj=n_traj)
        assert seen == [400] * calls
        assert rep.n_trajectories == calls

    def test_de_sitter_rate_is_four(self):
        rep = classify_radial(DS, +1, n_traj=20, tol=1e-11)
        assert rep.beta0_expected == 4.0
        assert abs(rep.beta0_measured - 4.0) / 4.0 < 0.05
        assert rep.rho0_rate > 0

    def test_kerr_rates_match_surface_gravity(self):
        hd = horizon_roots(KDS)
        for sign, gam in ((+1, hd.gamma_plus), (-1, hd.gamma_minus)):
            rep = classify_radial(KDS, sign, n_traj=20, tol=1e-11)
            assert abs(rep.beta0_measured - gam) / gam < 0.05


class TestTrappedSet:
    def test_alpha_zero_closed_form(self):
        tsp = find_trapped_set(DSS)
        assert tsp.r_c == pytest.approx(1.5 * DSS.r_s, abs=1e-12)
        assert tsp.f_residual <= 1e-10

    def test_rotating_vs_bisection_oracle(self):
        f = lambda r: trapping_function(KDS, r)
        hd = horizon_roots(KDS)
        r_or = bisect(f, hd.r_minus + 1e-6, hd.r_plus - 1e-6)
        tsp = find_trapped_set(KDS)
        assert tsp.r_c == pytest.approx(r_or, abs=1e-10)

    def test_no_root_for_static_patch(self):
        with pytest.raises(NoRoot):
            find_trapped_set(DS)

    def test_second_derivative_positive(self):
        from qnmkit.dynamics import _Fpp
        assert _Fpp(KDS, find_trapped_set(KDS)) > 0


def kds_reduced_semiclassical_field(params, r, xi):
    """Autonomous (r, xi) subsystem of the semiclassical flow at zeta = 0,
    z = 1."""
    mt, dmt, _ = mu_tilde(params, r)
    gp1 = 1.0 + params.gamma
    W = r * r + params.alpha ** 2
    dr = -2.0 * (mt * xi + gp1 * W)
    dxi = dmt * xi ** 2 + 4.0 * r * gp1 * xi
    return np.array([dr, dxi])


def trapping_linearization_fd(params, tsp, h=1e-6):
    """Eigenvalues of the finite-difference Jacobian of the reduced flow."""
    x0 = np.array([tsp.r_c, tsp.xi_c])
    J = np.zeros((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h * max(1.0, abs(x0[j]))
        fp = kds_reduced_semiclassical_field(params, *(x0 + dx))
        fm = kds_reduced_semiclassical_field(params, *(x0 - dx))
        J[:, j] = (fp - fm) / (2 * dx[j])
    return np.linalg.eigvals(J)


class TestTrappingLinearization:
    def test_alpha_zero_closed_form(self):
        # eigenvalues +-3 sqrt(3) r_s (1 - 9/4 lam r_s^2)^(-1/2)
        tsp = find_trapped_set(DSS)
        spec = trapping_linearization(DSS, tsp)
        lam = 3.0 * math.sqrt(3.0) * DSS.r_s / math.sqrt(1.0 - 2.25 * 3.0 * DSS.r_s ** 2)
        got = sorted(spec.eigenvalues)
        assert got[1] == pytest.approx(lam, rel=1e-8)
        assert got[0] == pytest.approx(-lam, rel=1e-8)

    def test_trace_det_consistency(self):
        tsp = find_trapped_set(KDS)
        spec = trapping_linearization(KDS, tsp)
        tr = spec.matrix[0, 0] + spec.matrix[1, 1]
        det = np.linalg.det(spec.matrix)
        s, p = sum(spec.eigenvalues), spec.eigenvalues[0] * spec.eigenvalues[1]
        assert s == pytest.approx(tr, abs=1e-12 * max(1, abs(tr)))
        assert p == pytest.approx(det, rel=1e-12)
        assert det < 0  # saddle

    def test_matches_fd_linearization_of_flow(self):
        tsp = find_trapped_set(KDS)
        spec = trapping_linearization(KDS, tsp)
        fd = sorted(trapping_linearization_fd(KDS, tsp).real)
        got = sorted(spec.eigenvalues)
        assert fd[1] == pytest.approx(got[1], rel=0.05)
        assert fd[0] == pytest.approx(got[0], rel=0.05)

    def test_hyperbolic_across_parameters(self):
        for alpha in (0.0, 0.02, 0.05, 0.08):
            p = SpacetimeParams(3.0, 0.2, alpha,
                                "KerrDeSitter" if alpha else "dSSchwarzschild")
            tsp = find_trapped_set(p)
            spec = trapping_linearization(p, tsp)
            lams = spec.eigenvalues
            assert lams[0] == pytest.approx(-lams[1], rel=1e-12)
            assert abs(lams[0]) > 0

    def test_trapped_point_is_equilibrium(self):
        tsp = find_trapped_set(KDS)
        v = kds_reduced_semiclassical_field(KDS, tsp.r_c, tsp.xi_c)
        assert np.max(np.abs(v)) < 1e-9


class TestEscapeScan:
    def test_beyond_horizon_slice_bound(self):
        # at zeta = alpha sin^2(theta) z the on-shell |H r| is bounded below by
        # (r^2 + alpha^2 cos^2 theta)|z|
        gp1 = 1.0 + KDS.gamma
        z = 1.0
        r_lo, _ = domain(KDS)
        hd = horizon_roots(KDS)
        for r in np.linspace(r_lo * 1.01, hd.r_minus * 0.999, 8):
            mt = mu_tilde(KDS, r)[0]
            assert mt <= 0
            for theta in np.linspace(0.3, math.pi - 0.3, 7):
                st2 = math.sin(theta) ** 2
                zeta = KDS.alpha * st2 * z
                W = (r * r + KDS.alpha ** 2) * z - KDS.alpha * zeta
                bound = (r * r + KDS.alpha ** 2 * math.cos(theta) ** 2) * abs(z)
                for xi in (0.0, -2.0 * gp1 * W / mt if mt != 0 else 0.0):
                    Hr = -2.0 * (mt * xi + gp1 * W)
                    assert abs(Hr) >= bound

    def test_ah_convexity(self):
        # static patch: H mu = 0, p = 0 and 0 < mu < 1 imply H^2 mu < 0
        z = 1.0
        for mu in np.linspace(0.02, 0.98, 60):
            r2 = 1.0 - mu
            xi = z / (2.0 * mu)           # H mu = 4 r^2 (-2 mu xi + z) = 0
            eta_sq = r2 * (r2 * z * z / mu + z * z)
            p = ds_symbol_polar(mu, xi, eta_sq, z)
            assert abs(p) < 1e-9 * max(1.0, xi * xi)
            dp_dmu = -4.0 * (1 - 2 * mu) * xi ** 2 - 4.0 * z * xi - eta_sq / r2 ** 2
            assert 8.0 * r2 * mu * dp_dmu < 0


class TestConservationSuite:
    def test_random_bicharacteristics(self):
        # smaller sibling of the acceptance criterion: 20 trajectories here
        rng = np.random.default_rng(123)
        r_lo, r_hi = domain(KDS)
        worst = 0.0
        count = 0
        while count < 20:
            zeta = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
            pt = PhasePoint(rng.uniform(r_lo * 1.05, r_hi * 0.95),
                            rng.uniform(0.5, math.pi - 0.5),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(-1, 1), rng.uniform(-1, 1), zeta)
            bc = integrate_flow(KDS, pt, 50.0, tol=1e-10)
            count += 1
            worst = max(worst, bc.drift("p"), bc.drift("zeta"),
                        bc.drift("ptilde"))
        assert worst <= 1e-8


class TestHorizonGrowthRates:
    def test_angular_part_rate_near_sink(self):
        # |xi|^-2 ptilde decays at 2 Gamma_+ along the flow into the sink
        hd = horizon_roots(KDS)
        cpt = CompactPhasePoint((hd.r_plus - 1e-4, 1.2, 0.0), 1e-3, 1e-3, 1e-3, -1)
        bc = integrate_flow(KDS, cpt, 3.0, tol=1e-11)
        s = bc.samples.s
        vals = np.array([kv for kv in bc.conserved_ledger["ptilde_scaled"]])
        keep = vals > 1e-280
        k = np.count_nonzero(keep) // 2
        A = np.vstack([s[keep][-k:], np.ones(k)]).T
        slope = np.linalg.lstsq(A, np.log(vals[keep][-k:]), rcond=None)[0][0]
        assert abs(-slope - 2 * hd.gamma_plus) / (2 * hd.gamma_plus) < 0.05

    def test_monotone_approach_to_sink(self):
        hd = horizon_roots(DSS)
        cpt = CompactPhasePoint((hd.r_plus - 5e-4, 1.0, 0.0), 2e-3, 2e-3, 2e-3, -1)
        bc = integrate_flow(DSS, cpt, 8.0, tol=1e-11)
        q = []
        for p in points(bc.samples):
            rho_t2 = p.nu ** 2
            kap = 1.0
            ptil_hat = p.eta_hat ** 2 + p.zeta_hat ** 2 / math.sin(p.base[1]) ** 2
            scaled = mu_tilde(DSS, p.base[0])[0]
            p_hat = -scaled * 1.0 - ptil_hat   # sign_xi^2 = 1
            q.append(rho_t2 + ptil_hat + p_hat ** 2)
        tail = np.array(q[len(q) // 3:])
        assert np.all(np.diff(tail) <= 1e-12)
