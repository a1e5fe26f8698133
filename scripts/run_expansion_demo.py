#!/usr/bin/env python3
"""Wave-asymptotics demo: drive the static-patch family, expand into
resonance terms plus remainder, and fit the remainder decay."""

import argparse

import numpy as np

from qnmkit.spacetime import SpacetimeParams
from qnmkit.resonances import build_operator
from qnmkit.mellin import resonance_expand, fit_decay, forcing_profile, \
    save_time_series


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=48)
    ap.add_argument("--ell-target", type=float, default=1.5)
    ap.add_argument("--out", default="remainder.csv")
    ns = ap.parse_args()

    params = SpacetimeParams(3.0, 0.0, 0.0, "deSitter")
    op = build_operator(params, 0, ns.N)
    f0 = forcing_profile(op.grid)
    terms, rem = resonance_expand(f0, op, ns.ell_target, n_sigma=4000)
    for t in terms:
        print(f"term: sigma = {t.sigma_j:.6f}, kappa = {t.kappa}, "
              f"|a| = {np.linalg.norm(t.a):.4e}")
    rate, power, res = fit_decay(rem)
    print(f"remainder rate {rate:.4f} (target {ns.ell_target}), "
          f"log power {power}, fit residual {res:.2e}")
    save_time_series(rem, ns.out)
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
