"""Step-size sweep for the quadratic sampling problem.

For each lam the script runs a batch of independent chains of the tamed
update, takes their terminal states, and reports Wasserstein-2 distances to
the analytic target N(0, 1/beta) and to a numerically sampled Gibbs
reference. The distance to the Gibbs reference and to the analytic law
should agree closely, since both describe the same target.

The chains run at eta = 0, outside TUSLA's assumptions: the penalty
eta |theta|^(2r) theta is what confines the tamed chain once the taming
flattens the gradient. So the table need not show a bias that shrinks with
lam. At the defaults (seed 0), two replicas sit beyond |theta| = 3 at
lam = 0.08, W2 is not monotone in lam, and the finest lams sit on the
512-replica sampling floor rather than on the bias.

    python scripts/sampling_study.py
    python scripts/sampling_study.py --lams 0.08 0.04 0.01 --replicas 1024
"""
import argparse
import json
import math

import numpy as np

from tusla.diagnostics import (
    gibbs_sampler_1d,
    tusla_terminal_law,
    wasserstein_p_1d,
    wasserstein_to_gaussian,
)
from tusla.gradient_oracle import RegularizationParams
from tusla.problems import ConstantDataSource, QuadraticProblem


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lams", type=float, nargs="+",
                    default=[0.08, 0.04, 0.02, 0.01, 0.005, 0.0025])
    ap.add_argument("--beta", type=float, default=4.0)
    ap.add_argument("--replicas", type=int, default=512)
    ap.add_argument("--steps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", default=None, help="also dump the rows to this path")
    args = ap.parse_args()

    sigma = 1.0 / math.sqrt(args.beta)
    reg = RegularizationParams(eta=0.0, r=1.5)
    gibbs = gibbs_sampler_1d(
        lambda x: 0.5 * x * x, args.beta, (-12.0 * sigma, 12.0 * sigma),
        np.random.default_rng(args.seed), n_draws=200_000,
    )

    rows = []
    print(f"beta={args.beta}  replicas={args.replicas}  steps={args.steps}")
    print(f"{'lam':>8} {'W2 vs N(0,1/beta)':>19} {'W2 vs Gibbs':>13}")
    for lam in args.lams:
        law = tusla_terminal_law(
            QuadraticProblem(), ConstantDataSource(), lam=lam, beta=args.beta,
            reg=reg, theta0=0.0, n_steps=args.steps, n_replicas=args.replicas,
            seed=args.seed,
        )
        w2_exact = wasserstein_to_gaussian(law, sigma, p=2)
        w2_gibbs = wasserstein_p_1d(law.samples, gibbs.samples, p=2)
        rows.append({"lam": lam, "w2_vs_gaussian": w2_exact, "w2_vs_gibbs": w2_gibbs})
        print(f"{lam:>8g} {w2_exact:>19.4f} {w2_gibbs:>13.4f}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
