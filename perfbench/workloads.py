"""Operations, closed-form references and output checkers of the workloads.

Every operation is one ``qnmkit <command> --config <cfg> --out <dir>`` call.
Only `check` imports qnmkit, so the rest can be tested without it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

# Listed cheapest first: the first workload of a fresh checkout is also the
# one that pays for first-use costs, so it should be short.
WORKLOADS = ("geometry", "expand", "table-static", "table-dss")

CONVERGED = 1e-6      # convergence_delta below which a row counts as converged
ORACLE_AGREE = 1e-6   # oracle distance below which the referee agrees
LATTICE_TOL = 1e-6    # a converged row farther than this from the lattice is wrong
DRIFT_TOL = 1e-8      # conserved-quantity drift a certified trajectory stays under

# Resonance search box of `qnmkit resonances` (its re/im_min/max defaults).
BOX = (-6.0, 6.0, -3.6, 0.4)

_LEDGER = ("p", "zeta", "ptilde")


@dataclass(frozen=True)
class Op:
    """One CLI call: `command` on `params` (a stem in scripts/configs)."""
    id: str
    command: str
    params: str
    knobs: tuple = ()

    def config_text(self, configs_dir: str) -> str:
        lines = [f"params = {os.path.join(configs_dir, self.params + '.params')}"]
        lines += [f"{k} = {v}" for k, v in self.knobs]
        return "\n".join(lines) + "\n"


@dataclass
class Check:
    """What the checker found in one operation's outputs."""
    failures: list = field(default_factory=list)
    certified: int = 0
    values: dict = field(default_factory=dict)


def operations(workload: str) -> list:
    if workload == "table-static":
        return [Op(f"resonances-{p}-N{n}-l{ell}", "resonances", p,
                   (("N", n), ("ell_min", ell), ("ell_max", ell), ("oracle", 1)))
                for p in ("minkowski", "ds") for n in (80, 110, 160)
                for ell in (0, 1, 2)]
    if workload == "table-dss":
        return [Op(f"resonances-dss-N80-l{ell}", "resonances", "dss",
                   (("N", 80), ("ell_min", ell), ("ell_max", ell), ("oracle", 1)))
                for ell in (0, 1, 2)]
    if workload == "expand":
        return [Op(f"expand-{p}-l{ell}", "expand", p,
                   (("N", 48), ("n_sigma", 4000), ("ell", ell),
                    ("ell_target", target)))
                for p, ell, target in (("ds", 0, 1.5), ("ds", 1, 2.5),
                                       ("minkowski", 0, 1.5))]
    if workload == "geometry":
        return [Op(f"flow-{p}", "flow", p,
                   (("n_traj", 20), ("include_classify", 1)))
                for p in ("dss", "kds", "ds")]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_op(workload: str) -> Op:
    """A small call of the workload's subcommand, run untimed before the loop."""
    first = operations(workload)[0]
    small = {"resonances": (("N", 16), ("ell_min", 0), ("ell_max", 0),
                            ("oracle", 0)),
             "expand": (("N", 16), ("n_sigma", 128)),
             "flow": (("n_traj", 1), ("T", 0.1), ("include_classify", 0))}
    return Op("warmup", first.command, first.params, small[first.command])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def lattice_rates(model: str, ell: int, n: int = 4, k_max: int = 12) -> list:
    """Decay rates r of the closed-form resonances sigma = -i r, ascending.

    de Sitter: -i(ell + 2k) and -i(ell + n - 1 + 2k); the flat boundary
    model: -i(1 + ell + j).
    """
    if model == "deSitter":
        rates = [ell + 2 * k for k in range(k_max)] \
            + [ell + n - 1 + 2 * k for k in range(k_max)]
    elif model == "MinkowskiBoundary":
        rates = [1 + ell + j for j in range(2 * k_max)]
    else:
        raise ValueError(f"no closed-form lattice for {model!r}")
    return sorted(set(rates))


def next_rate_below(model: str, ell: int, ell_target: float, n: int = 4) -> float:
    """Rate of the first closed-form pole below the contour Im sigma = -ell_target."""
    return float(min(r for r in lattice_rates(model, ell, n) if r > ell_target))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    return float(text) if text.strip() else math.nan


def read_table(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_table(rows: list, model, ell: int, n: int = 4, box=BOX) -> Check:
    """Check one ell-sector of a resonance table.

    `model` is None when there is no closed form (dSS): then only the oracle
    verdicts are counted.  Otherwise every converged row must lie within
    LATTICE_TOL of the lattice, and the lattice poles inside the box that
    come back as converged rows are counted.
    """
    out = Check()
    converged = []
    for r in rows:
        sigma = complex(float(r["re_sigma"]), float(r["im_sigma"]))
        if float(r["convergence_delta"]) < CONVERGED:
            converged.append(sigma)
            dist = _float(r.get("oracle_dist", ""))
            if dist < ORACLE_AGREE:       # a blank distance is nan: no verdict
                out.certified += 1
    out.values["converged"] = len(converged)
    out.values["oracle_disagree"] = len(converged) - out.certified
    if model is None:
        return out
    poles = [-1j * r for r in lattice_rates(model, ell, n)]
    errs = [min(abs(s - z) for z in poles) for s in converged]
    for s, e in zip(converged, errs):
        if e > LATTICE_TOL:
            out.failures.append(f"converged row {s:.9g} is {e:.2e} from the lattice")
    out.values["pole_err_max"] = max(errs, default=0.0)
    in_box = [z for z in poles if box[2] <= z.imag <= box[3]]
    out.values["lattice_poles"] = len(in_box)
    out.values["lattice_found"] = sum(
        any(abs(s - z) < LATTICE_TOL for s in converged) for z in in_box)
    return out


def check_expansion(out_json: dict, expected_rate: float) -> Check:
    out = Check()
    resid = float(out_json["reconstruction_residual"])
    if resid < float(out_json["bound"]):
        out.certified = 1
    else:
        out.failures.append(f"reconstruction residual {resid:.3e} "
                            f">= bound {out_json['bound']:.1e}")
    out.values["recon_resid"] = resid
    out.values["decay_rate_err"] = abs(float(out_json["remainder_rate"])
                                       - expected_rate)
    return out


def check_flow(rows: list, radial: dict) -> Check:
    """Ledger drift per trajectory; a trajectory with a ledger of only NaN fails.

    Rows of the reduced de Sitter flow carry no ledger (blank or missing
    columns) by design and are not checked.
    """
    out = Check()
    ledgers = {}
    for r in rows:
        if (r.get("p") or "").strip():
            led = ledgers.setdefault(r["trajectory"], {k: [] for k in _LEDGER})
            for k in _LEDGER:
                led[k].append(float(r[k]))
    drift_max = 0.0
    for traj, led in ledgers.items():
        drifts = []
        for vals in led.values():
            finite = [v for v in vals if math.isfinite(v)]
            if finite:
                ref = max(1.0, abs(finite[0]))
                drifts.append(max(abs(v - finite[0]) for v in finite) / ref)
        if not drifts:
            out.failures.append(f"trajectory {traj}: ledger is all NaN")
            continue
        drift_max = max(drift_max, max(drifts))
        out.certified += max(drifts) <= DRIFT_TOL
    out.values["flow_drift"] = drift_max
    out.values["radial_rel_err"] = float(radial["rel_err"])
    return out


_OUTPUTS = {"resonances": ("manifest.json", "resonances.csv", "convergence.json"),
            "expand": ("manifest.json", "expansion.json"),
            "flow": ("manifest.json", "trajectories.csv", "radial_report.json")}


def check(op: Op, out_dir: str, configs_dir: str) -> Check:
    """Run the checker of `op` on the files it wrote to `out_dir`."""
    missing = [f for f in _OUTPUTS[op.command]
               if not os.path.isfile(os.path.join(out_dir, f))]
    if missing:
        return Check(failures=[f"missing output {', '.join(missing)}"])
    from qnmkit.spacetime import load_params
    params = load_params(os.path.join(configs_dir, op.params + ".params"))
    model, n = params.model, params.n
    knobs = dict(op.knobs)
    if op.command == "resonances":
        rows = read_table(os.path.join(out_dir, "resonances.csv"))
        closed_form = model if model in ("deSitter", "MinkowskiBoundary") else None
        return check_table(rows, closed_form, knobs["ell_min"], n)
    if op.command == "expand":
        with open(os.path.join(out_dir, "expansion.json")) as fh:
            data = json.load(fh)
        return check_expansion(data, next_rate_below(model, knobs["ell"],
                                                     knobs["ell_target"], n))
    with open(os.path.join(out_dir, "radial_report.json")) as fh:
        radial = json.load(fh)
    return check_flow(read_table(os.path.join(out_dir, "trajectories.csv")), radial)
