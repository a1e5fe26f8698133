"""One workload in a fresh interpreter: the closed loop of CLI calls.

Started by run.py; not meant to be run by hand.  One client sends the next
call only after the previous one returned.  The result goes to --result as
JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback

import workloads
from probe import Sampler
from tracing import Tracer, layer_totals, self_times, wrapper_costs

RAISED = -1     # exit code recorded for a call that raised


def _output_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _environment(blas: int) -> dict:
    import numpy as np
    import scipy
    blas_dep = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": blas, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": f"{blas_dep.get('name', '?')} {blas_dep.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}


class Runner:
    def __init__(self, root: str, work: str):
        from qnmkit import cli
        self.cli = cli
        self.configs = os.path.join(root, "scripts", "configs")
        self.work = work

    def call(self, op, tracer=None):
        """Run one operation; return (start, seconds, exit code, out dir)."""
        cfg = os.path.join(self.work, op.id + ".cfg")
        out = os.path.join(self.work, op.id)
        with open(cfg, "w") as fh:
            fh.write(op.config_text(self.configs))
        shutil.rmtree(out, ignore_errors=True)
        argv = [op.command, "--config", cfg, "--out", out]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                tracer.op_id = op.id
                rc = tracer.run("cli", self.cli.main, argv)
        except Exception:
            # a call that raises is a failed call; the loop goes on
            traceback.print_exc()
            rc = RAISED
        return t0, time.perf_counter() - t0, rc, out

    def record(self, op, seconds, rc, out, **extra):
        chk = workloads.check(op, out, self.configs) if os.path.isdir(out) \
            else workloads.Check(failures=["no output directory"])
        if rc != 0:
            chk.failures.insert(0, f"exit code {rc}")
        return {"op": op.id, "seconds": seconds, "rc": rc,
                "digest": _output_digest(out) if os.path.isdir(out) else None,
                "failures": chk.failures, "certified": chk.certified,
                "values": chk.values, **extra}


def _layer_metrics(tracer: Tracer, wall: float) -> dict:
    totals = layer_totals(tracer.spans)

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {"cli.self_s": self_s("cli")}
    for name in ("resonances.solve_resonances", "resonances.build_operator",
                 "resonances.oracle_refine", "resonances.resolvent_apply",
                 "mellin.resonance_expand", "mellin.inverse_mellin",
                 "mellin.fit_decay", "dynamics.integrate_flow",
                 "dynamics.classify_radial"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
        m[name + ".share"] = self_s(name) / wall if wall > 0 else 0.0
    sr, ra = "resonances.solve_resonances", "resonances.resolvent_apply"
    entries = tracer.extra[sr + ".entries"]
    m[sr + ".entries"] = entries
    m[sr + ".converged_frac"] = tracer.extra[sr + ".converged"] / entries \
        if entries else 0.0
    m[ra + ".us_per_call"] = 1e6 * self_s(ra) / calls(ra) if calls(ra) else 0.0
    m[ra + ".near_pole"] = tracer.errors[ra, "NearPole"]
    evals = tracer.counts["resonances.oracle_shooting"]
    m["resonances.oracle_shooting.evals"] = evals
    refines = calls("resonances.oracle_refine")
    m["resonances.oracle_refine.evals_per_call"] = evals / refines if refines else 0.0
    m["spacetime.mu_tilde.calls"] = tracer.counts["spacetime.mu_tilde"]
    fl = "dynamics.integrate_flow"
    m[fl + ".steps"] = tracer.extra[fl + ".steps"]
    m[fl + ".rejected"] = tracer.extra[fl + ".rejected"]
    m[fl + ".step_failures"] = tracer.errors[fl, "StepFailure"]
    m["symbols.kds_classical_symbol.calls"] = \
        tracer.counts["symbols.kds_classical_symbol"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--blas", type=int, default=1)
    ap.add_argument("--mode", choices=("loop", "trace"), default="loop")
    a = ap.parse_args()

    # the thread count has to be fixed before numpy is first imported
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS thread count was set")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(a.blas)
    src = os.path.join(a.root, "src")
    sys.path.insert(0, src)
    import qnmkit
    if os.path.dirname(os.path.abspath(qnmkit.__file__)) != os.path.join(src, "qnmkit"):
        raise SystemExit(f"qnmkit imported from {qnmkit.__file__}, not {src}")

    os.makedirs(a.work, exist_ok=True)
    runner = Runner(a.root, a.work)
    runner.call(workloads.warmup_op(a.workload))
    ops = workloads.operations(a.workload)
    rng = random.Random(a.seed)
    records = []
    result = {"env": _environment(a.blas)}

    if a.mode == "loop":
        # whole passes until --seconds have been spent inside operations
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        spent, n_pass = 0.0, 0
        with Sampler() as sampler:
            while n_pass == 0 or spent < a.seconds:
                for op in rng.sample(ops, len(ops)):
                    start, sec, rc, out = runner.call(op)
                    spent += sec
                    records.append(runner.record(op, sec, rc, out,
                                                 pass_no=n_pass, start=start))
                n_pass += 1
        result["probe_samples"] = sampler.samples
    else:
        # one traced pass
        tracer = Tracer()
        tracer.install()
        for op in rng.sample(ops, len(ops)):
            _, sec, rc, out = runner.call(op, tracer)
            records.append(runner.record(op, sec, rc, out))
        tracer.uninstall()
        span_wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        per_span, per_count = wrapper_costs()
        result["trace"] = {
            "wall_s": span_wall,
            "self_sum_s": sum(self_times(tracer.spans)),
            "spans": len(tracer.spans),
            "overhead_s": len(tracer.spans) * per_span
            + sum(tracer.counts.values()) * per_count,
            "layers": _layer_metrics(tracer, span_wall)}
        with open(a.spans, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")

    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(a.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
