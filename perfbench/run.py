"""Benchmark of qnmkit's CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/qnmkit and
scripts/configs).  Each workload runs in a fresh interpreter with one BLAS
thread.  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced pass.  The last line of standard output is a JSON object;
the lines before it print every metric by name and unit.  Details and spans
are kept under perfbench/_out/.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from probe import PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
SETUP_REPEATS = 3
TIME_LIMIT = 170.0      # seconds a whole run may take
BLAS2_WORKLOADS = ("table-static", "expand")

# Times `import qnmkit.cli` in a fresh interpreter, then runs the probe.
_SETUP_CODE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
               "t = time.perf_counter(); import qnmkit.cli; "
               "t = time.perf_counter() - t; from probe import probe; "
               "print(t, probe())")


def tail_percentile(samples, beyond: int = 10):
    """(percentile, value): the highest percentile with `beyond` samples above it.

    With n samples that is the (n - beyond)-th smallest, the percentile
    100 (n - beyond) / n.  When fewer than 2 * beyond samples exist that
    percentile would not lie above the median, so the maximum (percentile
    100) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * beyond:
        return 100.0, xs[-1]
    k = n - beyond
    return 100.0 * k / n, xs[k - 1]


def _thread_env(blas: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas)
    return env


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run time limit reached")
    return left


def _worker(workload, seed, seconds, mode, blas, tag, deadline):
    """Run worker.py in a fresh interpreter and return its result.

    Operation outputs go to a scratch directory that is removed afterwards;
    spans of a traced run are kept in _out/.
    """
    work = os.path.join(OUT, f"work-{os.getpid()}-{tag}")
    result = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--work", work, "--result", result, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--blas", str(blas),
           "--mode", mode]
    if mode != "loop":
        spans = os.path.join(OUT, f"{workload}-seed{seed}-{tag}-spans.jsonl")
        cmd += ["--spans", spans]
    try:
        subprocess.run(cmd, env=_thread_env(blas), stdout=sys.stderr,
                       check=True, timeout=_deadline_left(deadline))
        with open(result) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_seconds(deadline) -> list:
    """(import seconds, probe seconds) of fresh interpreters, one BLAS thread."""
    out = []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run([sys.executable, "-c", _SETUP_CODE,
                            os.path.join(ROOT, "src"), HERE],
                           env=_thread_env(1), capture_output=True, text=True,
                           check=True, timeout=_deadline_left(deadline))
        out.append(tuple(map(float, p.stdout.split()[-2:])))
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qnmkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_determinism(records) -> None:
    """Fail every call whose output bytes differ from an earlier call of the op.

    Earlier calls are those of this run and of earlier runs of the same
    source in this checkout (kept in _out/digests.json).
    """
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    known = store.setdefault(_source_digest(), {})
    for r in records:
        first = known.setdefault(r["op"], r["digest"])
        if r["digest"] != first:
            r["failures"].append("output bytes differ from an earlier call")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(store, fh)
    os.replace(tmp, path)


def _failed(records):
    return sum(1 for r in records if r["failures"])


def _silently_wrong(records):
    """Calls that exited 0 but failed a check: wrong answers the program did not flag."""
    return sum(1 for r in records if r["failures"] and r["rc"] == 0)


def _domain(records, key, agg):
    vals = [r["values"][key] for r in records if key in r["values"]]
    return agg(vals) if vals else None


def ref_seconds(records, samples) -> list:
    """Call times scaled to the reference speed of the probe kernel.

    A call's time is multiplied by the mean of PROBE_REF_S / p over the
    probe samples p taken during it, or over the sample nearest to it when
    it was too short to hold one.
    """
    out = []
    for r in records:
        t0, t1 = r["start"], r["start"] + r["seconds"]
        inside = [p for t, p in samples if t0 <= t <= t1]
        if not inside:
            inside = [min(samples, key=lambda s: abs(s[0] - 0.5 * (t0 + t1)))[1]]
        out.append(r["seconds"] * statistics.fmean(PROBE_REF_S / p for p in inside))
    return out


def _timings(records, secs, suffix) -> dict:
    passes = {}
    for r, sec in zip(records, secs):
        passes[r["pass_no"]] = passes.get(r["pass_no"], 0.0) + sec
    p_tail, v_tail = tail_percentile(secs)
    certified = sum(r["certified"] for r in records)
    return {
        f"batch{suffix}_s": (statistics.median(passes.values()), "s",
                             f"median of {len(passes)} pass(es)"),
        f"op{suffix}_s_p50": (statistics.median(secs), "s", f"{len(secs)} calls"),
        f"op{suffix}_s_tail": (v_tail, "s", f"p{p_tail:.4g} of {len(secs)} calls"),
        f"certified_per{suffix}_s": (certified / sum(secs), "1/s",
                                     f"{certified} certified results"),
    }


def end_to_end(records, samples, setup, rss) -> dict:
    """Every named end-to-end metric: name -> (value or None, unit, note)."""
    failed = _failed(records)
    converged = _domain(records, "converged", sum)
    found = _domain(records, "lattice_found", sum)
    m = {"setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup),
                     "s", f"median of {len(setup)} fresh imports, reference speed"),
         "setup_wall_s": (statistics.median(t for t, _ in setup), "s", "")}
    m.update(_timings(records, [r["seconds"] for r in records], ""))
    m.update(_timings(records, ref_seconds(records, samples), "_ref"))
    m.update({
        "probe_ms": (1e3 * statistics.median(p for _, p in samples), "ms",
                     f"median of {len(samples)} samples, reference "
                     f"{1e3 * PROBE_REF_S:g} ms"),
        "peak_rss_mb": (rss, "MB", ""),
        "passed_frac": (1.0 - failed / len(records), "frac", ""),
        "failed_frac": (failed / len(records), "frac",
                        f"{failed}/{len(records)} calls"),
        "oracle_disagree_frac": (
            _domain(records, "oracle_disagree", sum) / converged
            if converged else None, "frac", ""),
        "pole_err_max": (_domain(records, "pole_err_max", max), "1", ""),
        "lattice_recall": (
            found / _domain(records, "lattice_poles", sum)
            if found is not None else None, "frac", ""),
        "decay_rate_err": (_domain(records, "decay_rate_err", max), "1", ""),
        "recon_resid_max": (_domain(records, "recon_resid", max), "1", ""),
        "flow_drift_max": (_domain(records, "flow_drift", max), "1", ""),
        "radial_rate_err": (_domain(records, "radial_rel_err", max), "1", ""),
    })
    return m


def run_e2e(workload, seed, seconds, deadline):
    res = _worker(workload, seed, seconds, "loop", 1, "e2e", deadline)
    check_determinism(res["records"])
    res["setup"] = setup_seconds(deadline)
    return res, end_to_end(res["records"], res["probe_samples"], res["setup"],
                           res["peak_rss_mb"])


def run_traced(workload, seed, deadline):
    res = _worker(workload, seed, 0, "trace", 1, "trace", deadline)
    tr = res["trace"]
    layers = dict(tr["layers"])
    blas2_solve = blas2_apply = 0.0
    if workload in BLAS2_WORKLOADS:
        res2 = _worker(workload, seed, 0, "trace", 2, "trace-blas2", deadline)
        blas2_solve = res2["trace"]["layers"]["resonances.solve_resonances.self_s"]
        blas2_apply = res2["trace"]["layers"]["resonances.resolvent_apply.us_per_call"]
        res["blas2"] = res2["trace"]
    layers["resonances.solve_resonances.self_s.blas2"] = blas2_solve
    layers["resonances.resolvent_apply.us_per_call.blas2"] = blas2_apply
    layers["trace.wall_s"] = tr["wall_s"]
    layers["trace.overhead_s"] = tr["overhead_s"]
    layers["trace.self_sum_s"] = tr["self_sum_s"]
    layers["trace.spans"] = tr["spans"]
    check_determinism(res["records"])
    return res, layers


def _units(kind) -> dict:
    """name -> unit of the `kind` ("end_to_end" or "per_layer") metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def run_one(workload, seed, seconds, trace, deadline) -> dict:
    if trace:
        res, layers = run_traced(workload, seed, deadline)
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in _units("per_layer").items()}
        lines = [f"  {k:52s} {_fmt(v['value']):>12s} {v['unit']}"
                 for k, v in metrics.items()]
        wall, ssum = layers["trace.wall_s"], layers["trace.self_sum_s"]
        lines.append(f"  self times add up to {ssum:.6f} s of {wall:.6f} s traced "
                     f"wall; the wrappers added {layers['trace.overhead_s']:.4f} s")
    else:
        res, named = run_e2e(workload, seed, seconds, deadline)
        metrics = {k: {"value": named[k][0], "unit": u}
                   for k, u in _units("end_to_end").items()}
        lines = [f"  {k:22s} {_fmt(v):>12s} {u:5s} {note}"
                 for k, (v, u, note) in named.items()]
        res["named_metrics"] = named
    env, records = res["env"], res["records"]
    head = (f"[{workload}] seed={seed} trace={int(trace)} "
            + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in records:
        for f in r["failures"]:
            lines.append(f"  FAILED {r['op']}: {f}")
    summary = {"correct": _silently_wrong(records) == 0,
               "attempted": len(records), "failed": _failed(records),
               "metrics": metrics}
    detail = dict(res, summary=summary, seed=seed, workload=workload)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(detail, fh, indent=1)
    print(head)
    print("\n".join(lines))
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    for need in (os.path.join("src", "qnmkit", "cli.py"),
                 os.path.join("scripts", "configs")):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  "qnmkit source checkout", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    names = workloads.WORKLOADS if a.workload == "all" else (a.workload,)
    deadline = time.monotonic() + TIME_LIMIT * len(names)
    results = {w: run_one(w, a.seed, a.seconds, a.trace, deadline) for w in names}
    print(json.dumps(results if a.workload == "all" else results[a.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
