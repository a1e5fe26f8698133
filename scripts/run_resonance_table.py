#!/usr/bin/env python3
"""Resonance tables for the radial models with oracle cross-checks."""

import argparse
import csv

from qnmkit.spacetime import SpacetimeParams
from qnmkit.resonances import build_operator, solve_resonances, oracle_refine, \
    StiffFailure


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", choices=["deSitter", "minkowski"],
                    default="minkowski")
    ap.add_argument("--n-dim", type=int, default=4)
    ap.add_argument("--N", type=int, default=80)
    ap.add_argument("--ell-max", type=int, default=2)
    ap.add_argument("--out", default="resonances.csv")
    ns = ap.parse_args()

    if ns.model == "minkowski":
        params = SpacetimeParams(model="MinkowskiBoundary", lam=0.0, n=ns.n_dim)
    else:
        params = SpacetimeParams(3.0, 0.0, 0.0, "deSitter", n=ns.n_dim)

    with open(ns.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "ell", "N", "re_sigma", "im_sigma",
                    "multiplicity", "convergence_delta", "oracle_dist"])
        for ell in range(ns.ell_max + 1):
            op = build_operator(ns.model, params, ell, ns.N)
            rl = solve_resonances(op, region=(-6, 6, -3.6, 0.4))
            for e in rl.converged(1e-6):
                try:
                    z = oracle_refine(ns.model, params, ell, e.sigma, n=ns.n_dim)
                    dist = f"{abs(z - e.sigma):.2e}"
                except StiffFailure:
                    dist = ""
                w.writerow([ns.model, ell, ns.N, f"{e.sigma.real:.12e}",
                            f"{e.sigma.imag:.12e}", e.multiplicity,
                            f"{e.convergence_delta:.2e}", dist])
                print(f"ell={ell}: sigma = {e.sigma:.10f}  "
                      f"delta={e.convergence_delta:.1e}  oracle {dist}")
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
