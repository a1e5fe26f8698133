"""Batch front-end: admissibility sweeps, flow studies, resonance tables,
expansion fits.  One subcommand per study, every setting read from its run
config (the flow's randomness from the config's `seed`), and outputs
deterministic byte-for-byte."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .spacetime import NoHorizons, SpacetimeParams, load_params, \
    read_key_values, admissibility, domain
from .symbols import PhasePoint
from .dynamics import integrate_flow, classify_radial, StepFailure, \
    _CLASSIFY_T, _ds_shell_start
# resolvent_apply and inverse_mellin are not called here; perfbench/tracing.py
# wraps them by these attributes
from .resonances import build_operator, solve_resonances, oracle_refine, \
    mirror_map, resolvent_apply, SolverFailure, NearPole, StiffFailure, \
    UnsupportedModel, _TRUST_TOL
from .mellin import resonance_expand, time_domain_solve, evaluate_terms, \
    fit_decay, forcing_profile, PoleOnContour, inverse_mellin

EXIT_OK = 0
EXIT_FLAGS = 1
EXIT_CONFIG = 2
EXIT_STEP = 3
EXIT_SOLVER = 4
EXIT_CONTOUR = 5

_SCHEMAS = {
    "admissible": {},
    "flow": {
        "n_traj": (int, 1, 500, 20),
        "T": (float, 0.1, 500.0, 4.0),
        "horizon_sign": (int, -1, 1, 1),
        "include_classify": (int, 0, 1, 1),
        "seed": (int, 0, 2 ** 63 - 1, 0),
    },
    "resonances": {
        "N": (int, 16, 400, 80),
        "ell_min": (int, 0, 16, 0),
        "ell_max": (int, 0, 16, 2),
        "oracle": (int, 0, 1, 1),
    },
    "expand": {
        "N": (int, 16, 400, 48),
        "ell": (int, 0, 16, 0),
        "ell_target": (float, 0.1, 10.0, 1.5),
        "n_sigma": (int, 128, 100_000, 4000),
    },
}

# resonance search box (re_min, re_max, im_min, im_max); the dSS oracle's
# series (resonances._SERIES_TERMS) are sized for it, and a wider region is
# a solve_resonances argument
_BOX = (-6.0, 6.0, -3.6, 0.4)

# reconstruction residual below which expand exits 0
_RECON_BOUND = 1e-6

# integrate_flow's tolerance, then its retries after a StepFailure; the
# radial fit runs at the first
_FLOW_TOLS = (1e-10, 1e-9, 1e-8)


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """All a run reads: its subcommand, the spacetime of its params file, its
    output folder and each knob of `_SCHEMAS[command]`, defaults filled in."""
    command: str
    params: SpacetimeParams
    out_dir: str
    knobs: dict

    @property
    def params_entries(self) -> dict:
        """The spacetime keyed as in a params file."""
        return {"lambda" if k == "lam" else k: v
                for k, v in asdict(self.params).items()}

    @property
    def digest(self) -> str:
        payload = json.dumps({"command": self.command, "knobs": self.knobs,
                              "params": self.params_entries}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def parse_config(path, command, out_dir) -> RunConfig:
    """The run config at `path` for `command`, read by `read_key_values`
    with the rows of `_SCHEMAS[command]`, and the SpacetimeParams of the
    params file it names (`load_params`, relative to the config's folder).
    The flow's `seed` is one of these rows.  A bad entry in either file, a
    missing params key, horizon_sign = 0 and an empty resonance ell range
    raise ConfigError."""
    schema = {"params": (str, None, None),
              **{k: row[:3] for k, row in _SCHEMAS[command].items()}}
    try:
        kv = read_key_values(path, schema)
        if "params" not in kv:
            raise ValueError("config must name a params file (params = PATH)")
        params = load_params(os.path.join(os.path.dirname(os.path.abspath(path)),
                                          kv["params"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    knobs = {k: kv.get(k, row[3]) for k, row in _SCHEMAS[command].items()}
    if command == "flow" and knobs["horizon_sign"] == 0:
        raise ConfigError("horizon_sign must be +1 or -1")
    # an empty ell range would write a header-only table
    if command == "resonances" and knobs["ell_min"] > knobs["ell_max"]:
        raise ConfigError(f"ell_min = {knobs['ell_min']} above "
                          f"ell_max = {knobs['ell_max']}")
    return RunConfig(command, params, out_dir, knobs)


def _write_json(cfg: RunConfig, name: str, obj):
    """`obj` as the JSON output `name` of the run: indent 2, sorted keys."""
    with open(os.path.join(cfg.out_dir, name), "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _fmt(x) -> str:
    return f"{x:.17g}"


def cmd_admissible(cfg: RunConfig) -> int:
    rep = admissibility(cfg.params)
    _write_json(cfg, "admissibility.json", asdict(rep))
    ok = rep.horizons_exist and rep.classical_nontrapping
    return EXIT_OK if ok else EXIT_FLAGS


def _flow_with_retries(params, start, k):
    """integrate_flow at each tolerance of `_FLOW_TOLS` in turn, the next
    after a StepFailure; the failure at the last propagates."""
    for tol in _FLOW_TOLS:
        try:
            return integrate_flow(params, start, k["T"], tol=tol,
                                  horizon_sign=k["horizon_sign"])
        except StepFailure:
            if tol == _FLOW_TOLS[-1]:
                raise


# one trajectories.csv row (csv.writer's excel dialect: comma, CRLF)
_FLOW_ROW = "%d,%s," + ",".join(["%.17g"] * 10) + "\r\n"
_DS_FLOW_ROW = "%d,ds_reduced," + ",".join(["%.17g"] * 4) + ",,,,,,\r\n"


def cmd_flow(cfg: RunConfig) -> int:
    params = cfg.params
    k = cfg.knobs
    rng = np.random.default_rng(k["seed"])
    lines = ["trajectory,chart,parameter,c1,c2,c3,c4,c5,c6,p,zeta,ptilde\r\n"]
    r_lo, r_hi = domain(params)
    for traj_id in range(k["n_traj"]):
        if params.model == "deSitter":
            bc = _flow_with_retries(params, _ds_shell_start(rng), k)
            # c4-c6 and the ledger columns stay blank
            cols = np.column_stack([bc.samples.s, bc.samples.y])
            lines += [_DS_FLOW_ROW % (traj_id, *row) for row in cols.tolist()]
        else:
            zeta = rng.uniform(0.2, 1.0) * float(rng.choice([-1.0, 1.0]))
            pt = PhasePoint(rng.uniform(r_lo * 1.05, r_hi * 0.95),
                            rng.uniform(0.5, math.pi - 0.5),
                            rng.uniform(0, 2 * math.pi),
                            rng.uniform(-1, 1), rng.uniform(-1, 1), zeta)
            bc = _flow_with_retries(params, pt, k)
            led = bc.conserved_ledger
            cols = np.column_stack([bc.samples.s, bc.samples.y, led["p"],
                                    led["zeta"], led["ptilde"]])
            charts = np.where(bc.samples.compact, "compact", "affine").tolist()
            lines += [_FLOW_ROW % (traj_id, chart, *row)
                      for chart, row in zip(charts, cols.tolist())]
    with open(os.path.join(cfg.out_dir, "trajectories.csv"), "w", newline="") as fh:
        fh.write("".join(lines))
    if k["include_classify"]:
        # the fit runs to dynamics._CLASSIFY_T, whatever the knob T (which
        # sets trajectories.csv only)
        rep = classify_radial(params, k["horizon_sign"], n_traj=k["n_traj"],
                              tol=_FLOW_TOLS[0], seed=k["seed"])
        _write_json(cfg, "radial_report.json", {
            "classify_T": _CLASSIFY_T, "horizon_sign": rep.horizon_sign,
            "beta0_measured": rep.beta0_measured,
            "beta0_expected": rep.beta0_expected,
            "rho0_rate": rep.rho0_rate, "rel_err": rep.beta0_rel_err})
    return EXIT_OK


def _oracle_verdict(params, ell: int, sigma: complex) -> tuple:
    """(oracle root, verdict) of one row; the root is None when the oracle
    fails."""
    try:
        z = oracle_refine(params, ell, sigma)
    except StiffFailure:
        return None, "failed"
    return z, "agree" if abs(z - sigma) < _TRUST_TOL else "disagree"


def cmd_resonances(cfg: RunConfig) -> int:
    """Resonance table, one row per root of the ladder capped at N, with the
    oracle's verdict; the `N` column is the rung a row was solved at.

    The oracle runs once per mirror pair of a sector (`mirror_map`): the
    detector of a pencil real in tau has the same symmetry, so the second
    row gets -conj of its twin's oracle root, and its verdict.
    Exits 1 when the oracle disagrees with a converged row.
    """
    params, k = cfg.params, cfg.knobs
    rows = []
    appendix = []
    refuted = []
    for ell in range(k["ell_min"], k["ell_max"] + 1):
        entries = solve_resonances(params, ell, k["N"], _BOX).entries
        if k["oracle"]:
            verdicts = mirror_map(lambda s: _oracle_verdict(params, ell, s),
                                  [e.sigma for e in entries],
                                  lambda zv: (None if zv[0] is None
                                              else -zv[0].conjugate(), zv[1]))
        for e in entries:
            row = [params.model, ell, e.N, _fmt(e.sigma.real),
                   _fmt(e.sigma.imag), e.multiplicity, _fmt(e.convergence_delta)]
            if k["oracle"]:
                z, verdict = verdicts[e.sigma]
                if z is None:
                    row += ["", "", "", verdict]
                else:
                    row += [_fmt(z.real), _fmt(z.imag), _fmt(abs(z - e.sigma)),
                            verdict]
                if verdict == "disagree" and e.convergence_delta < _TRUST_TOL:
                    refuted.append(f"ell = {ell}, sigma = {e.sigma:.9g}")
            rows.append(row)
            appendix.append({"N": e.N, "ell": ell, "sigma_re": e.sigma.real,
                             "sigma_im": e.sigma.imag,
                             "convergence_delta": e.convergence_delta,
                             "suspect": e.suspect})
    header = ["model", "ell", "N", "re_sigma", "im_sigma", "multiplicity",
              "convergence_delta"]
    if k["oracle"]:
        header += ["oracle_re", "oracle_im", "oracle_dist", "oracle_verdict"]
    with open(os.path.join(cfg.out_dir, "resonances.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    _write_json(cfg, "convergence.json", appendix)
    for r in refuted:
        print(f"oracle disagrees with the converged row {r}", file=sys.stderr)
    return EXIT_FLAGS if refuted else EXIT_OK


def cmd_expand(cfg: RunConfig) -> int:
    k = cfg.knobs
    op = build_operator(cfg.params, k["ell"], k["N"])
    f0 = forcing_profile(op.grid)
    terms, rem = resonance_expand(f0, op, k["ell_target"], n_sigma=k["n_sigma"])
    # reconstruction residual against the causal solution stepped in time,
    # which shares no resolvent, contour or transform with the expansion
    ref = time_domain_solve(op, f0).values
    synth = rem.values + evaluate_terms(terms, rem.tau_grid)
    resid = float(np.max(np.abs(ref - synth))
                  / max(np.max(np.abs(ref)), 1e-300))
    rate, logpow, fitres = fit_decay(rem)
    _write_json(cfg, "expansion.json", {
        "terms": [{"sigma_re": t.sigma_j.real, "sigma_im": t.sigma_j.imag,
                   "kappa": t.kappa,
                   "coeff_norm": float(np.linalg.norm(t.a)
                                       / math.sqrt(op.N + 1))}
                  for t in terms],
        "remainder_rate": rate,
        "remainder_log_power": logpow,
        "remainder_fit_residual": fitres,
        "reconstruction_residual": resid,
        "bound": _RECON_BOUND,
    })
    print(f"reconstruction residual: {resid:.3e}")
    return EXIT_OK if resid < _RECON_BOUND else EXIT_FLAGS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="qnmkit")
    ap.add_argument("command", choices=sorted(_SCHEMAS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        return EXIT_CONFIG
    try:
        cfg = parse_config(ns.config, ns.command, ns.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(cfg, "manifest.json", {
        "command": cfg.command, "config_hash": cfg.digest,
        "version": __version__, "knobs": cfg.knobs,
        "params": cfg.params_entries})
    try:
        handler = {"admissible": cmd_admissible, "flow": cmd_flow,
                   "resonances": cmd_resonances, "expand": cmd_expand}[cfg.command]
        return handler(cfg)
    except (ValueError, NoHorizons, UnsupportedModel) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StepFailure as exc:
        print(f"step failure in flow integration: {exc}", file=sys.stderr)
        return EXIT_STEP
    except SolverFailure as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NearPole as exc:
        print(f"near-pole gate of the resolvent: {exc}", file=sys.stderr)
        return EXIT_CONTOUR
    except PoleOnContour as exc:
        print(f"pole on or near the expansion contour: {exc}", file=sys.stderr)
        return EXIT_CONTOUR


if __name__ == "__main__":
    raise SystemExit(main())
