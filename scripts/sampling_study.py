"""Step-size sweep for the quadratic sampling problem.

For each lam the script runs ``harness.law_report``, the law behind
``tusla gibbs``: a batch of independent chains of the tamed update, whose
terminal states it compares by Wasserstein-2 with the analytic target
N(0, 1/beta) and with a numerically sampled Gibbs reference (200k draws).
The two distances should agree closely, since both describe the same target.

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

from tusla.harness import ExperimentConfig, law_report


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

    rows = []
    print(f"beta={args.beta}  replicas={args.replicas}  steps={args.steps}")
    print(f"{'lam':>8} {'W2 vs N(0,1/beta)':>19} {'W2 vs Gibbs':>13}")
    for lam in args.lams:
        cfg = ExperimentConfig(problem="quadratic", algorithm="tusla", lam=lam, beta=args.beta,
                               eta=0.0, theta0=0.0, n_steps=args.steps, seeds=(args.seed,))
        report = law_report(cfg, args.replicas, n_draws=200_000)
        w2_exact, w2_gibbs = report["w2_vs_gaussian"], report["w2_vs_gibbs"]
        rows.append({"lam": lam, "w2_vs_gaussian": w2_exact, "w2_vs_gibbs": w2_gibbs})
        print(f"{lam:>8g} {w2_exact:>19.4f} {w2_gibbs:>13.4f}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
