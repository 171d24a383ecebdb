"""Run the double-well benchmark presets and print a results table.

Writes one CSV per (algorithm, seed) plus a JSON summary under --out, then
prints the seed-median and mean final distances to the minimizer, the
seed-median final objective and the count of diverged seeds for each
algorithm. Presets without a known minimizer (nn-demo) show '-' for the
distances. With the default presets the
steep s=26 problem is where the methods separate: the tamed update keeps
every seed finite while SGLD blows up within a handful of steps.

    python scripts/run_benchmarks.py --out results/
    python scripts/run_benchmarks.py --presets paper-s26 --steps 2000
    python scripts/run_benchmarks.py --presets nn-demo --seed 100
"""
import argparse

from tusla.harness import PRESETS, run_preset


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--presets", nargs="+", default=["paper-s2", "paper-s26"],
                    choices=sorted(PRESETS))
    ap.add_argument("--out", default=None, help="directory for csv/json artifacts")
    ap.add_argument("--steps", type=int, default=None, help="override the step count")
    ap.add_argument("--seed", type=int, default=None, help="replace the seed list with base, base+1, ...")
    args = ap.parse_args()

    for name in args.presets:
        overrides = {"n_steps": args.steps} if args.steps is not None else None
        summary = run_preset(name, overrides=overrides, out_dir=args.out,
                             base_seed=args.seed)
        cfg = summary.config
        print(f"\n{name}  ({cfg.n_steps} steps, {len(cfg.seeds)} seeds, "
              f"lam={cfg.lam}, beta={cfg.beta}, eta={cfg.eta}, r={cfg.resolved_r()})")
        print(f"  {'algorithm':<10} {'median dist':>12} {'mean dist':>12} "
              f"{'median obj':>12} {'diverged':>9}")
        for algo, agg in summary.algorithms.items():
            med = "-" if agg.median_final_distance is None else f"{agg.median_final_distance:.4g}"
            mean = "-" if agg.mean_final_distance is None else f"{agg.mean_final_distance:.4g}"
            obj = "-" if agg.median_final_objective is None else f"{agg.median_final_objective:.4g}"
            crashed = agg.n_seeds - agg.n_non_crashed
            print(f"  {algo:<10} {med:>12} {mean:>12} {obj:>12} {crashed:>6}/{agg.n_seeds}")
        if args.out:
            print(f"  artifacts in {args.out}/")


if __name__ == "__main__":
    main()
