"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable; run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from qnmkit.spacetime import SpacetimeParams, mu_tilde, horizon_roots, domain, \
    admissibility
from qnmkit.symbols import PhasePoint
from qnmkit.dynamics import (integrate_flow, classify_radial, find_trapped_set,
                             trapping_linearization)
from qnmkit.absorption import AbsorbingSpec, ellipticity_scan, q_semiclassical, \
    extend_p, pairing_ds
from qnmkit.resonances import (build_operator, solve_resonances, oracle_refine,
                               resolvent_apply, gluing_check)
from qnmkit.mellin import (TemporalSamples, default_tau_grid, mellin_transform,
                           inverse_mellin, log_gaussian_pulse,
                           log_gaussian_pulse_hat, expand_family, fit_decay)

DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
KDS = SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter")
MK = SpacetimeParams(model="MinkowskiBoundary", lam=0.0, n=4)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  criterion {num:>2}: {name} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


class TestAcceptance:
    def test_01_minkowski_lattice(self):
        union = []
        worst_time = 0.0
        for ell in (0, 1, 2):
            t0 = time.time()
            rl = solve_resonances(MK, ell, 80, (-6, 6, -3.6, 0.4))
            worst_time = max(worst_time, time.time() - t0)
            union += [e.sigma for e in rl.converged(1e-6)]
        dists = [min(abs(z + 1j * (1 + j)) for z in union) for j in range(3)]
        ok = all(d < 1e-6 for d in dists) and worst_time < 30.0
        report(1, "Minkowski resonance lattice",
               ok, f"(dists={[f'{d:.1e}' for d in dists]}, "
                   f"worst {worst_time:.1f}s per ell)")

    def test_02_oracle_equivalence(self):
        t0 = time.time()
        unmatched = 0
        n_conv = 0
        worst = 0.0
        # the ladder capped at 110 stops at rung 32 on each ell (pencils 24,
        # 32 and 48): every row it certifies must agree with the oracle
        for ell in (0, 1, 2):
            rl = solve_resonances(DS, ell, 110, (-6, 6, -3.95, 0.5))
            for e in rl.converged(1e-6):
                n_conv += 1
                z = oracle_refine(DS, ell, e.sigma)
                d = abs(z - e.sigma)
                worst = max(worst, d)
                if d >= 1e-6:
                    unmatched += 1
        took = time.time() - t0
        ok = unmatched == 0 and n_conv > 0 and took < 300.0
        report(2, "de Sitter oracle equivalence", ok,
               f"({n_conv} converged, worst bracket {worst:.1e}, {took:.0f}s)")

    def test_03_trapping_eigenvalues(self):
        tsp = find_trapped_set(DSS)
        spec = trapping_linearization(DSS, tsp)
        lam = 3.0 * math.sqrt(3.0) * 0.2 / math.sqrt(1.0 - 2.25 * 3.0 * 0.04)
        got = max(spec.eigenvalues)
        ok = abs(got - lam) / lam < 1e-8
        tsp2 = find_trapped_set(KDS)
        spec2 = trapping_linearization(KDS, tsp2)
        l1, l2 = spec2.eigenvalues
        ok = ok and abs(l1 + l2) < 1e-12 * abs(l1) and abs(l1) > 0 \
            and abs(complex(l1).imag) == 0.0
        report(3, "trapping linearization eigenvalues", ok,
               f"(closed-form rel err {abs(got - lam) / lam:.1e})")

    def test_04_trapped_set_location(self):
        tsp = find_trapped_set(DSS)
        err0 = abs(tsp.r_c - 1.5 * DSS.r_s)
        # independent bisection oracle for the rotating case
        from qnmkit.dynamics import trapping_function
        hd = horizon_roots(KDS)
        lo, hi = hd.r_minus + 1e-6, hd.r_plus - 1e-6
        flo = trapping_function(KDS, lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = trapping_function(KDS, mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        r_oracle = 0.5 * (lo + hi)
        tsp2 = find_trapped_set(KDS)
        err1 = abs(tsp2.r_c - r_oracle)
        ok = err0 <= 1e-12 and err1 <= 1e-10
        report(4, "trapped-set location", ok,
               f"(static err {err0:.1e}, rotating vs bisection {err1:.1e})")

    def test_05_radial_point_rates(self):
        hd = horizon_roots(KDS)
        errs = []
        for sign, gam in ((+1, hd.gamma_plus), (-1, hd.gamma_minus)):
            rep = classify_radial(KDS, sign, n_traj=20, tol=1e-11, seed=1)
            errs.append(abs(rep.beta0_measured - gam) / gam)
        rep_ds = classify_radial(DS, +1, n_traj=20, tol=1e-11, seed=1)
        err_ds = abs(rep_ds.beta0_measured - 4.0) / 4.0
        ok = all(e < 0.05 for e in errs) and err_ds < 0.05
        report(5, "radial-point decay rates", ok,
               f"(Kerr rel errs {[f'{e:.3f}' for e in errs]}, "
               f"static-patch rate {rep_ds.beta0_measured:.3f})")

    def test_06_conservation_suite(self):
        rng = np.random.default_rng(2026)
        r_lo, r_hi = domain(KDS)
        worst = 0.0
        for _ in range(100):
            zeta = rng.uniform(0.2, 1.0) * float(rng.choice([-1.0, 1.0]))
            pt = PhasePoint(rng.uniform(r_lo * 1.05, r_hi * 0.95),
                            rng.uniform(0.5, math.pi - 0.5),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(-1, 1), rng.uniform(-1, 1), zeta)
            bc = integrate_flow(KDS, pt, 50.0, tol=1e-10)
            worst = max(worst, bc.drift("p"), bc.drift("zeta"),
                        bc.drift("ptilde"))
        ok = worst <= 1e-8
        report(6, "conserved-quantity drift", ok, f"(max drift {worst:.1e})")

    def test_07_ergoregion_bound(self):
        # uniform draws of (r, theta, xi, zeta), 4 per row in that order and
        # in blocks, until 10,000 on-shell points (each sign of eta counts)
        rng = np.random.default_rng(7)
        gamma = KDS.gamma
        gp1 = 1.0 + gamma
        r_lo, r_hi = domain(KDS)
        lo = np.array([r_lo, 0.2, -3.0, -3.0])
        hi = np.array([r_hi, math.pi - 0.2, 3.0, 3.0])
        worst = -np.inf
        count = draws = 0
        while count < 10_000:
            r, theta, xi, zeta = (lo + (hi - lo) * rng.random((100_000, 4))).T
            mt = mu_tilde(KDS, r)[0]
            kap = 1.0 + gamma * np.cos(theta) ** 2
            st2 = np.sin(theta) ** 2
            hits = sum((-mt * xi ** 2 + 2 * sign * gp1 * KDS.alpha * xi * zeta
                        - gp1 ** 2 * zeta ** 2 / (kap * st2)) / kap >= 0
                       for sign in (+1, -1)) * (np.abs(xi) >= 1e-3)
            total = count + np.cumsum(hits)
            stop = min(np.searchsorted(total, 10_000), len(total) - 1) + 1
            worst = np.max(mt[:stop][hits[:stop] > 0], initial=worst)
            count, draws = total[stop - 1], draws + stop
        rep = admissibility(KDS)
        ok = worst <= KDS.alpha ** 2 + 1e-10 and rep.classical_nontrapping \
            and rep.ergoregions_disjoint
        report(7, "ergoregion bound and disjointness", ok,
               f"(max mu~ on-shell {worst:.17g} vs alpha^2 = {KDS.alpha**2:.2e}, "
               f"{count} on-shell in {draws} draws)")

    def test_08_absorption_ellipticity(self):
        spec = AbsorbingSpec()
        rep = ellipticity_scan(SpacetimeParams(), spec,
                               [2.0 + 0.0j, -1.5 + 0.0j, 1.0 + 0.5j])
        interior = dict(rep.details)["interior_min_abs"]
        ok = rep.min_abs > 0 and rep.sign_violations == 0 and interior > 0.25
        report(8, "absorption ellipticity", ok,
               f"(collar min {rep.min_abs:.2e}, interior min {interior:.2f} "
               f"> (Im z)^2 = 0.25, {rep.sign_violations} sign violations)")

    def test_09_gluing_identity(self):
        op = build_operator(DS, 0, 60, AbsorbingSpec())
        residuals = [gluing_check(op, s) for s in (2.0 + 1.0j, -1.3 + 0.7j)]
        ok = all(r < 1e-8 for r in residuals)
        report(9, "resolvent gluing identity", ok,
               f"(residuals {[f'{r:.1e}' for r in residuals]})")

    def test_10_q_independence(self):
        sigma = 2.0 + 1.0j
        specA = AbsorbingSpec(digamma_scale=0.5)
        specB = AbsorbingSpec(mu0=-0.08, mu1=-0.50, mu0p=-0.18, mu1p=-0.40,
                              digamma_scale=1.25)
        us = []
        for spec in (specA, specB):
            op = build_operator(DS, 0, 120, spec)
            f = (np.exp(-((op.grid - 0.5) / 0.12) ** 2)
                 * (op.grid > 0.05)).astype(complex)
            us.append((op.grid, resolvent_apply(op, sigma, f)))
        (g, u1), (_, u2) = us
        phys = g > -0.05
        diff = np.linalg.norm(u1[phys] - u2[phys]) / np.linalg.norm(u1[phys])
        ok = diff < 1e-6
        report(10, "absorber independence of the resolvent", ok,
               f"(restricted difference {diff:.1e})")

    def test_11_mellin_pipeline(self):
        tau = default_tau_grid()
        u = TemporalSamples(tau, log_gaussian_pulse(tau, -7.0)[:, None])
        sig = np.linspace(-80, 80, 8000)
        v = mellin_transform(u, 0.1, sig)
        back = inverse_mellin(v, 0.1, sig, tau)
        rt = float(np.max(np.abs(back.values - u.values)))
        # synthetic Jordan block: kappa = 1 log term with analytic coefficient
        pole = -1.0j
        fv = np.array([0.3, 0.9])
        def solve(s):
            d = s - pole
            return log_gaussian_pulse_hat(s)[:, None] * np.stack(
                [fv[0] / d - fv[1] / d ** 2, fv[1] / d], axis=-1)
        terms, rem = expand_family(solve, [pole], 2.5, n_sigma=6000,
                                   mirrored=False)
        t1 = [t for t in terms if t.kappa == 1][0]
        want = -1j * 1j * (-fv[1]) * log_gaussian_pulse_hat(pole)
        cerr = abs(t1.a[0] - want)
        rate, _, _ = fit_decay(TemporalSamples(rem.tau_grid, rem.values))
        ok = rt < 1e-6 and cerr < 1e-8 and rate >= 2.5 * 0.98
        report(11, "Mellin pipeline", ok,
               f"(roundtrip {rt:.1e}, Jordan coeff err {cerr:.1e}, "
               f"remainder rate {rate:.3f} vs 2.5)")

    def test_12_high_energy_trend(self):
        def dphase(m):
            m = np.clip(m, -0.99, 0.97)
            return np.where(np.abs(m) > 1e-8,
                            (1 - 1 / np.sqrt(1 - m)) /
                            np.where(np.abs(m) > 1e-8, 2 * m, 1.0), -0.25)
        op = build_operator(DS, 0, 220,
                            AbsorbingSpec(digamma_scale=0.5))
        mu = op.grid
        idx = np.argsort(mu)
        ph = np.concatenate([[0], np.cumsum(
            0.5 * (dphase(mu[idx][1:]) + dphase(mu[idx][:-1])) * np.diff(mu[idx]))])
        ph -= ph[np.argmin(np.abs(mu[idx]))]
        phase = np.empty_like(ph)
        phase[idx] = ph
        vals = []
        for s in (20.0, 40.0, 80.0):
            f = np.exp(-((mu - 0.5) / 0.15) ** 2) * np.exp(1j * s * phase) \
                * (mu > 0.05)
            u = resolvent_apply(op, s, f.astype(complex))
            vals.append(np.linalg.norm(u) * s / np.linalg.norm(f))
        ratio = max(vals) / min(vals)
        ok = ratio < 3.0
        report(12, "nontrapping high-energy trend", ok,
               f"(|u| sigma/|f| = {[f'{v:.3f}' for v in vals]}, "
               f"spread factor {ratio:.2f})")
