"""Geometry/admissibility tests; oracle values are frozen from independent routes."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnmkit.spacetime import (
    SpacetimeParams, NoHorizons, mu_tilde, horizon_roots, admissibility,
    load_params, domain,
)


def horner_oracle(coeffs, r):
    """Independent polynomial evaluation, highest power first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * r + c
    return acc


def bisect_oracle(f, a, b, tol=1e-14):
    fa, fb = f(a), f(b)
    assert fa * fb < 0
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


KDS = SpacetimeParams(3.0, 0.2, 0.05, "KerrDeSitter")
DSS = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
DS = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
# the sample small black hole, r_s = 0.05, whose r_- - delta is negative
DSS_SMALL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "scripts", "configs", "dss-small.params")


def rescaled(p):
    """Parameters after r' = sqrt(lam) r, which normalizes lam to 1."""
    s = math.sqrt(p.lam)
    return SpacetimeParams(1.0, s * p.r_s, s * p.alpha, p.model, p.n)


class TestMuTilde:
    def test_pure_de_sitter_point(self):
        # mu = r^2(1 - r^2) at lam=3
        v, d1, d2 = mu_tilde(DS, 1.0)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert d1 == pytest.approx(-2.0)
        assert d2 == pytest.approx(-10.0)

    def test_schwarzschild_point(self):
        p = SpacetimeParams(0.0, 1.0, 0.0, "dSSchwarzschild")
        v, d1, d2 = mu_tilde(p, 1.0)
        assert (v, d1, d2) == pytest.approx((0.0, 1.0, 2.0))

    def test_against_horner_oracle(self):
        p = SpacetimeParams(3.0, 0.2, 0.0, "dSSchwarzschild")
        coeffs = [-1.0, 0.0, 1.0, -0.2, 0.0]
        r = 0.2
        assert mu_tilde(p, r)[0] == pytest.approx(horner_oracle(coeffs, r), rel=1e-15)

    @given(st.floats(0.01, 3.0), st.floats(0.0, 0.4), st.floats(0.0, 0.09),
           st.floats(0.05, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_horner_property(self, lam, r_s, alpha, r):
        p = SpacetimeParams(lam, r_s, alpha, "KerrDeSitter")
        gamma = lam * alpha ** 2 / 3.0
        coeffs = [-lam / 3.0, 0.0, 1.0 - gamma, -r_s, alpha ** 2]
        assert mu_tilde(p, r)[0] == pytest.approx(horner_oracle(coeffs, r),
                                                  rel=1e-12, abs=1e-13)

    def test_vectorized(self):
        r = np.array([0.3, 0.7, 1.1])
        v, d1, d2 = mu_tilde(KDS, r)
        assert v.shape == (3,)


class TestHorizonRoots:
    def test_de_sitter_closed_form(self):
        hd = horizon_roots(DS)
        assert hd.r_minus is None
        assert hd.r_plus == pytest.approx(1.0, abs=1e-14)
        assert hd.gamma_plus == pytest.approx(2.0, abs=1e-13)

    def test_ds_schwarzschild_vs_bisection_oracle(self):
        # positive roots of r(1 - r^2) = 0.2
        f = lambda r: r * (1 - r * r) - 0.2
        rm = bisect_oracle(f, 0.05, 0.5)
        rp = bisect_oracle(f, 0.5, 1.0)
        hd = horizon_roots(DSS)
        assert hd.r_minus == pytest.approx(rm, abs=1e-13)
        assert hd.r_plus == pytest.approx(rp, abs=1e-13)
        assert hd.gamma_minus > 0 and hd.gamma_plus > 0
        # root residual contract
        assert abs(mu_tilde(DSS, hd.r_plus)[0]) <= 1e-12

    def test_no_horizons_when_bound_violated(self):
        # 9/4 r_s^2 lam = 27/4 > 1
        with pytest.raises(NoHorizons):
            horizon_roots(SpacetimeParams(3.0, 1.0, 0.0, "dSSchwarzschild"))

    def test_gamma_range(self):
        for p in (KDS, DSS, DS):
            assert 0.0 <= p.gamma < 1.0

    def test_monotone_dependence_on_r_s(self):
        rs = np.linspace(0.05, 0.35, 12)
        rplus = []
        rminus = []
        for r_s in rs:
            hd = horizon_roots(SpacetimeParams(3.0, r_s, 0.0, "dSSchwarzschild"))
            rplus.append(hd.r_plus)
            rminus.append(hd.r_minus)
        assert np.all(np.diff(rplus) < 0)
        assert np.all(np.diff(rminus) > 0)

    @given(st.floats(0.5, 4.0), st.floats(0.02, 0.3), st.floats(0.0, 0.05))
    @settings(max_examples=60, deadline=None)
    def test_rescaling_covariance(self, lam, r_s, alpha):
        p = SpacetimeParams(lam, r_s, alpha, "KerrDeSitter")
        try:
            hd = horizon_roots(p)
        except NoHorizons:
            return
        hd2 = horizon_roots(rescaled(p))
        s = math.sqrt(lam)
        assert hd2.r_plus == pytest.approx(s * hd.r_plus, rel=1e-12)
        assert hd2.r_minus == pytest.approx(s * hd.r_minus, rel=1e-10)


class TestAdmissibility:
    def test_ds_schwarzschild_all_flags(self):
        rep = admissibility(DSS)
        assert rep.horizons_exist and rep.classical_nontrapping
        assert rep.semiclassical_regime and rep.ergoregions_disjoint

    def test_rotation_bound_flag(self):
        rep = admissibility(SpacetimeParams(3.0, 0.2, 0.09, "KerrDeSitter"))
        # 0.09 > sqrt(3)/4 * 0.2 ~ 0.0866
        assert not rep.semiclassical_regime
        assert rep.horizons_exist

    def test_de_sitter(self):
        rep = admissibility(DS)
        assert rep.horizons_exist and rep.classical_nontrapping

    def test_small_black_hole_has_one_interior_component(self):
        # the scan covers domain(params); with r_lo = r_- - delta < 0 it
        # counted the region r < 0 as a second component
        rep = admissibility(load_params(DSS_SMALL))
        assert rep.ergoregions_disjoint
        assert ("interior_components", 1.0, 1.0) in rep.diagnostics

    @pytest.mark.parametrize("r_s", [0.02, 0.05, 0.1])
    def test_two_horizon_domain_stays_right_of_the_centre(self, r_s):
        # r = 0 is a singular point of the radial operator: the domain ends
        # no further left than r_- / 2, and keeps r_- - delta where that is
        # larger (the sample dss.params, 0.14218 against r_- / 2 = 0.10457)
        params = SpacetimeParams(3.0, r_s, 0.0, "dSSchwarzschild")
        hd = horizon_roots(params)
        r_lo, r_hi = domain(params)
        assert r_lo == 0.5 * hd.r_minus > 0
        assert r_hi == hd.r_plus + 0.1 * (hd.r_plus - hd.r_minus)
        delta = 0.1 * (horizon_roots(DSS).r_plus - horizon_roots(DSS).r_minus)
        assert domain(DSS)[0] == horizon_roots(DSS).r_minus - delta

    def test_no_horizons_reported(self):
        rep = admissibility(SpacetimeParams(3.0, 1.0, 0.0, "dSSchwarzschild"))
        assert not rep.horizons_exist

    def test_json_roundtrip(self):
        import json
        from dataclasses import asdict
        rep = admissibility(DSS)
        back = json.loads(json.dumps(asdict(rep)))
        assert back["horizons_exist"] is True


class TestParamFile:
    def test_roundtrip(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("lambda = 3.0\nr_s = 0.2\nalpha = 0.05\nmodel = KerrDeSitter\n")
        p = load_params(f)
        assert p == KDS

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "p.txt"
        # delta, the domain margin, is no longer a model key
        for line in ("bogus = 1", "mu_tilde_1 = 0.3", "delta = 0.1"):
            f.write_text(f"lambda = 3.0\n{line}\n")
            with pytest.raises(ValueError):
                load_params(f)

    def test_malformed_rejected(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("lambda 3.0\n")
        with pytest.raises(ValueError):
            load_params(f)


class TestParamsValidation:
    @pytest.mark.parametrize("n", [2, 0, -3])
    def test_de_sitter_dimension_below_three_rejected(self, n):
        with pytest.raises(ValueError):
            SpacetimeParams(model="deSitter", n=n)

    @pytest.mark.parametrize("given, message", [
        ({"model": "AntiDeSitter"}, "unknown model"),
        ({"model": "dSSchwarzschild", "lam": -3.0}, "nonnegative"),
        ({"model": "dSSchwarzschild", "r_s": -0.2}, "nonnegative"),
        ({"model": "deSitter", "r_s": 0.2}, "deSitter requires"),
        ({"model": "deSitter", "alpha": 0.05}, "deSitter requires"),
        ({"model": "dSSchwarzschild", "r_s": 0.2, "alpha": 0.05},
         "dSSchwarzschild requires"),
    ], ids=["unknown-model", "negative-lambda", "negative-r_s", "ds-r_s",
            "ds-alpha", "dss-alpha"])
    def test_parameters_outside_the_model_rejected(self, given, message):
        with pytest.raises(ValueError, match=message):
            SpacetimeParams(**given)

    @pytest.mark.parametrize("field", ["lam", "r_s", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, field, value):
        # a nan passes every sign test, so it must be refused on its own
        key = "lambda" if field == "lam" else field
        with pytest.raises(ValueError, match=key):
            SpacetimeParams(model="KerrDeSitter", **{field: value})

    @pytest.mark.parametrize("given", [{"r_s": 0.2}, {"alpha": 0.05},
                                       {"lam": 3.0}], ids=["r_s", "alpha", "lam"])
    def test_minkowski_refuses_curved_parameters(self, given):
        # no stage of the flat boundary model reads lambda, r_s or alpha, so
        # a nonzero one would be a setting with no effect
        with pytest.raises(ValueError, match="MinkowskiBoundary"):
            SpacetimeParams(**{"model": "MinkowskiBoundary", "lam": 0.0, **given})
