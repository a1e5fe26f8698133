"""Tests of the benchmark's own arithmetic and checkers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

import workloads
import run
from run import tail_percentile
from tracing import Tracer, layer_totals, self_times, wrapper_costs


# --- percentile with ten samples beyond -------------------------------------

def test_tail_percentile_leaves_ten_samples_above():
    xs = list(range(1, 101))          # 1..100
    p, v = tail_percentile(xs)
    assert p == 90.0 and v == 90
    assert sum(x > v for x in xs) == 10


def test_tail_percentile_is_order_free_and_exact_at_twenty():
    xs = [float(x) for x in range(20, 0, -1)]
    p, v = tail_percentile(xs)
    assert (p, v) == (50.0, 10.0)
    assert sum(x > v for x in xs) == 10


def test_tail_percentile_falls_back_to_max_below_twenty_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert tail_percentile(list(range(19))) == (100.0, 18)


# --- self time ---------------------------------------------------------------

def _span(name, t0, t1, parent):
    return (name, t0, t1, parent, "op")


def test_self_time_subtracts_children_and_sums_to_root():
    spans = [_span("cli", 0.0, 10.0, -1),
             _span("a", 1.0, 4.0, 0),
             _span("b", 2.0, 3.0, 1),
             _span("c", 5.0, 9.0, 0)]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [_span("p", 0.0, 10.0, -1),
             _span("x", 1.0, 5.0, 0),
             _span("y", 4.0, 6.0, 0),
             _span("z", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_nests_spans_and_totals_by_name():
    tr = Tracer()

    def inner(x):
        return x + 1

    def outer(x):
        return tr.run("inner", inner, x) * 2

    tr.op_id = "op1"
    assert tr.run("cli", outer, 1) == 4
    names = [s[0] for s in tr.spans]
    assert names == ["cli", "inner"]
    assert tr.spans[1][3] == 0 and tr.spans[0][3] == -1
    assert all(s[4] == "op1" for s in tr.spans)
    totals = layer_totals(tr.spans)
    assert totals["cli"][0] == 1 and totals["inner"][0] == 1
    root = tr.spans[0][2] - tr.spans[0][1]
    assert totals["cli"][1] + totals["inner"][1] == pytest.approx(root)


def test_tracer_counts_exceptions_and_closes_the_span():
    tr = Tracer()

    class NearPole(Exception):
        pass

    def boom():
        raise NearPole()

    with pytest.raises(NearPole):
        tr.run("resonances.resolvent_apply", boom)
    assert tr.errors["resonances.resolvent_apply", "NearPole"] == 1
    assert tr.spans[0] is not None and not tr._stack


def test_wrapper_costs_are_small_and_positive():
    per_span, per_count = wrapper_costs(calls=2000)
    assert 0 < per_count < per_span < 1e-4


# --- lattice checker ---------------------------------------------------------

def _row(sigma, delta=1e-9, dist="1e-12"):
    return {"re_sigma": repr(sigma.real), "im_sigma": repr(sigma.imag),
            "convergence_delta": repr(delta), "oracle_dist": dist}


def test_lattice_rates_closed_forms():
    assert workloads.lattice_rates("deSitter", 0)[:5] == [0, 2, 3, 4, 5]
    assert workloads.lattice_rates("deSitter", 1)[:3] == [1, 3, 4]
    assert workloads.lattice_rates("MinkowskiBoundary", 1)[:3] == [2, 3, 4]
    assert workloads.next_rate_below("deSitter", 0, 1.5) == 2
    assert workloads.next_rate_below("deSitter", 1, 2.5) == 3
    assert workloads.next_rate_below("MinkowskiBoundary", 0, 1.5) == 2


def test_lattice_checker_accepts_the_closed_form_table():
    rows = [_row(0j), _row(-2j + 3e-7), _row(-3j - 1e-7),
            _row(-2.5j, delta=1e-3)]          # not converged: ignored
    chk = workloads.check_table(rows, "deSitter", 0)
    assert chk.failures == []
    assert chk.values["lattice_poles"] == 3 and chk.values["lattice_found"] == 3
    assert chk.values["pole_err_max"] == pytest.approx(3e-7)
    assert chk.certified == 3 and chk.values["oracle_disagree"] == 0


def test_lattice_checker_rejects_a_perturbed_table():
    rows = [_row(0j), _row(-2j + 5e-6), _row(-3j)]
    chk = workloads.check_table(rows, "deSitter", 0)
    assert len(chk.failures) == 1 and "lattice" in chk.failures[0]
    assert chk.values["lattice_found"] == 2
    assert chk.values["pole_err_max"] == pytest.approx(5e-6)


def test_table_checker_counts_oracle_disagreements_and_blanks():
    rows = [_row(-1j), _row(-2.08j, dist="5.4e-3"), _row(-2j, dist=""),
            _row(-3.2j, delta=1e-3, dist="0.48")]
    chk = workloads.check_table(rows, None, 0)
    assert chk.failures == []
    assert chk.values["converged"] == 3
    assert chk.values["oracle_disagree"] == 2 and chk.certified == 1


def test_expansion_checker_fails_at_the_bound():
    ok = workloads.check_expansion({"reconstruction_residual": 1e-9, "bound": 1e-6,
                                    "remainder_rate": 9.0}, 2.0)
    bad = workloads.check_expansion({"reconstruction_residual": 1.5e-5,
                                     "bound": 1e-6, "remainder_rate": 8.5}, 3.0)
    assert ok.failures == [] and ok.certified == 1
    assert ok.values["decay_rate_err"] == pytest.approx(7.0)
    assert len(bad.failures) == 1 and bad.certified == 0


def test_flow_checker_fails_an_all_nan_ledger_and_skips_missing_columns():
    good = [{"trajectory": "0", "p": "1.0", "zeta": "0.5", "ptilde": "2.0"},
            {"trajectory": "0", "p": "1.0000000001", "zeta": "nan",
             "ptilde": "2.0"}]
    nan = [{"trajectory": "1", "p": "nan", "zeta": "nan", "ptilde": "nan"}]
    reduced = [{"trajectory": "2", "p": None, "zeta": None, "ptilde": None}]
    chk = workloads.check_flow(good + nan + reduced, {"rel_err": 1e-6})
    assert chk.failures == ["trajectory 1: ledger is all NaN"]
    assert chk.certified == 1             # trajectory 0, drift 1e-10
    assert chk.values["flow_drift"] == pytest.approx(1e-10)


# --- end-to-end aggregation --------------------------------------------------

def test_end_to_end_metrics_from_records():
    def rec(op, sec, pass_no, start, failures=(), rc=0, **values):
        return {"op": op, "seconds": sec, "pass_no": pass_no, "start": start,
                "rc": rc, "failures": list(failures), "certified": 1,
                "values": values}
    ref = run.PROBE_REF_S
    records = [rec("a", 1.0, 0, 0.0, converged=2, oracle_disagree=1),
               rec("b", 3.0, 0, 1.0, ["exit code 1"], rc=1, converged=2,
                   oracle_disagree=0),
               rec("a", 1.2, 1, 4.0, converged=2, oracle_disagree=1),
               rec("b", 3.2, 1, 5.2, converged=2, oracle_disagree=0)]
    samples = [(0.5, ref), (2.0, ref), (3.5, 2 * ref), (6.0, 2 * ref),
               (8.0, 2 * ref)]
    setup = [(0.5, ref), (0.7, 2 * ref), (0.6, ref)]
    m = run.end_to_end(records, samples, setup, 100.0)
    assert m["setup_wall_s"][0] == pytest.approx(0.6)
    assert m["setup_s"][0] == pytest.approx(0.5)
    assert m["batch_s"][0] == pytest.approx(4.2)
    assert m["op_s_p50"][0] == pytest.approx(2.1)
    assert m["op_s_tail"][0] == pytest.approx(3.2)
    assert m["passed_frac"][0] == pytest.approx(0.75)
    assert m["certified_per_s"][0] == pytest.approx(4 / 8.4)
    assert m["failed_frac"][0] == pytest.approx(0.25)
    assert m["oracle_disagree_frac"][0] == pytest.approx(0.25)
    assert m["pole_err_max"][0] is None
    # b runs half at full and half at half speed; the second a holds no
    # sample and takes the nearest one, at t = 3.5
    assert run.ref_seconds(records, samples) == pytest.approx(
        [1.0, 2.25, 0.6, 1.6])
    assert m["batch_ref_s"][0] == pytest.approx(0.5 * (3.25 + 2.2))


def test_sampler_collects_probe_times_and_stops():
    pytest.importorskip("scipy.linalg")
    from probe import Sampler
    with Sampler(period=0.01) as s:
        time.sleep(0.5)
    assert len(s.samples) >= 3
    assert all(p > 0 for _, p in s.samples)
    assert not s._thread.is_alive()


def test_checker_reports_missing_outputs(tmp_path):
    op = workloads.operations("table-dss")[0]
    (tmp_path / "manifest.json").write_text("{}")
    chk = workloads.check(op, str(tmp_path), str(tmp_path))
    assert chk.failures == ["missing output resonances.csv, convergence.json"]


def test_every_operation_has_a_unique_id():
    for w in workloads.WORKLOADS:
        ids = [op.id for op in workloads.operations(w)]
        assert len(ids) == len(set(ids)) and "warmup" not in ids
