"""Benchmark for the tusla CLI: end-to-end and traced per-layer figures.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-s2 --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --trace 1

Load shape: a closed loop with concurrency 1. This driver starts one child
process (perfbench/child.py) at a time, waits for it to exit, checks its
artifacts, and starts the next until --seconds have passed. Each child
imports tusla from ./src and calls ``tusla.harness.main(argv)`` once. A run
first starts a few import-only children (the first one warms the file and
bytecode caches and is not counted); setup_s is the median import time over
all counted children. The BLAS/OpenMP thread environment is recorded, never
set.

--trace 0 reports medians over children of wall_s, setup_s (import tusla,
numpy and scipy included), ref_s (the numpy and scipy part of that import)
and peak_rss_mb, and error_rate. The machine's speed drifts by up to a third
within minutes; ref_s does not depend on the program and drifts with it, so
the end-to-end wall metric is wall_rel, the median over children of each
child's wall_s / ref_s, which stays comparable between runs made at
different times. --trace 1 alternates untraced and traced children and reports
the per-layer metrics of the traced ones plus trace.overhead_frac. The metric
names and units are those of BENCHMARK.json. The last stdout line is one JSON
object {correct, attempted, failed, metrics}; a results file with quartiles,
the environment and the spans of one traced child goes to perfbench/results/.

A child fails on a non-zero exit or a failed output check (checks.py). All
children of one run must produce byte-identical artifacts, traced or not.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"
CHILD = HERE / "child.py"

RUN_LIMIT_S = 170.0  # a run must exit within 180 s
SETUP_PROBES = 2  # import-only children counted towards setup_s, after one warm-up
MIN_CHILDREN = 2  # per kind (untraced / traced), even if --seconds is short

COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".steps", ".diverged")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The reason for each workload is its `why` in BENCHMARK.json; the fields
# below are what checks.py expects of its artifacts.
_RUN = {"command": "run", "sgld_diverges": False, "reference_prefix_rows": 0}
WORKLOADS = {
    "paper-s2": {**_RUN, "preset": "paper-s2", "args": [],
                 "algorithms": ["tusla", "sgld", "adam"], "n_seeds": 16,
                 "n_steps": 10_000, "record_every": 1, "sgld_diverges": True},
    "s26-long": {**_RUN, "preset": "paper-s26",
                 "args": ["--set", "algorithm=tusla", "--set", "seeds=0",
                          "--set", "n_steps=2000000", "--set", "record_every=1000"],
                 "algorithms": ["tusla"], "n_seeds": 1,
                 "n_steps": 2_000_000, "record_every": 1000,
                 "reference_prefix_rows": 3},
    "nn-demo": {**_RUN, "preset": "nn-demo", "args": [],
                "algorithms": ["tusla", "sgld", "adam"], "n_seeds": 8,
                "n_steps": 2000, "record_every": 10},
    "gibbs-us": {"command": "gibbs", "args": ["--problem", "us", "--s", "2"],
                 "replicas": 512, "steps": 20_000},
}
for _name, _w in WORKLOADS.items():
    _w["name"] = _name


def cli_args(workload: dict, seed: int, out_dir: Path) -> list[str]:
    if workload["command"] == "gibbs":
        return ["gibbs", *workload["args"], "--seed", str(seed),
                "--out", str(out_dir / "gibbs.json")]
    return ["run", "--preset", workload["preset"], *workload["args"],
            "--seed", str(seed), "--out", str(out_dir)]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


@dataclass
class Child:
    """Outcome of one workload child: its result file, failed checks, artifact hash."""

    traced: bool
    result: dict
    problems: list[str]
    digest: str | None


def launch(work: Path, traced: bool, argv: list[str], timeout: float) -> tuple[dict | None, list[str]]:
    """Start one child, wait for it, return its result file and any problems."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(result_path), "1" if traced else "0", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, [f"child timed out after {timeout:.0f}s"]
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, [f"exit code {proc.returncode}: {' | '.join(tail)}"]
    return json.loads(result_path.read_text()), []


def run_child(workload: dict, seed: int, work: Path, traced: bool, timeout: float) -> Child:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    try:
        result, problems = launch(work, traced, cli_args(workload, seed, out_dir), timeout)
        if problems:
            return Child(traced, {}, problems, None)
        digest, files = checks.digest(out_dir)
        return Child(traced, result, checks.check_outputs(workload, seed, files), digest)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All children of one workload run, checked and summarised."""
    workload = WORKLOADS[name]
    work = RESULTS_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    probes: list[dict] = []
    children: list[Child] = []
    probe_problems: list[str] = []
    try:
        for i in range(SETUP_PROBES + 1):
            result, problems = launch(work, False, [], RUN_LIMIT_S - (time.perf_counter() - t0))
            probe_problems += problems
            if result is not None and i > 0:
                probes.append(result)
        kinds = (False, True) if trace else (False,)
        while True:
            counts = [sum(c.traced == k for c in children) for k in kinds]
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds and min(counts) >= MIN_CHILDREN:
                break
            left = RUN_LIMIT_S - elapsed
            if left < 5.0:
                break
            traced = kinds[len(children) % len(kinds)]
            children.append(run_child(workload, seed, work, traced, left))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarise(name, seed, trace, probes, children, probe_problems)


def summarise(name: str, seed: int, trace: bool, probes: list[dict],
              children: list[Child], probe_problems: list[str]) -> dict:
    ok = [c for c in children if not c.problems]
    digests = {c.digest for c in ok}
    if len(digests) > 1:
        first = ok[0].digest
        for c in ok:
            if c.digest != first:
                c.problems.append("artifact hash differs from the first run of this session")
    traced = [c for c in children if c.traced and not c.problems]
    if traced:
        counts0 = {k: v for k, v in traced[0].result["layers"].items() if k.endswith(COUNT_SUFFIXES)}
        for c in traced[1:]:
            if any(c.result["layers"][k] != v for k, v in counts0.items()):
                c.problems.append("traced counts differ from the first traced run")
    ok = [c for c in children if not c.problems]
    failed = len(children) - len(ok)
    untraced = [c for c in ok if not c.traced]
    traced = [c for c in ok if c.traced]
    imports = probes + [c.result for c in ok]

    e2e = {}
    if untraced:
        for key in ("wall_s", "peak_rss_mb"):
            e2e[key] = quartiles([c.result[key] for c in untraced])
        e2e["wall_rel"] = quartiles([c.result["wall_s"] / c.result["ref_s"] for c in untraced])
    if imports:
        for key in ("setup_s", "ref_s"):
            e2e[key] = quartiles([r[key] for r in imports])

    layers = {}
    if traced:
        for key, value in traced[0].result["layers"].items():
            if key.endswith(COUNT_SUFFIXES):
                layers[key] = value
            else:
                layers[key] = statistics.median(c.result["layers"][key] for c in traced)
        if untraced:
            layers["trace.overhead_frac"] = (
                statistics.median(c.result["wall_s"] for c in traced)
                / e2e["wall_s"]["median"] - 1.0
            )

    first = next((c.result for c in ok), {})
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(children),
        "failed": failed,
        "error_rate": failed / len(children) if children else 1.0,
        "correct": bool(children) and failed == 0 and not probe_problems,
        "problems": probe_problems + [p for c in children for p in c.problems],
        "repeats": {"setup_probes": SETUP_PROBES, "untraced": len(untraced), "traced": len(traced)},
        "digest": next(iter(digests), None),
        "versions": {k: first.get(k) for k in ("python", "numpy", "scipy")},
        "end_to_end": e2e,
        "per_layer": layers,
        "spans": traced[0].result["spans"] if traced else [],
    }


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "llc": None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            info = dict(ln.split(":", 1) for ln in f if ":" in ln)
    except OSError:
        return env
    info = {k.strip(): v.strip() for k, v in info.items()}
    env["cpu_model"] = info.get("model name")
    env["llc"] = info.get("cache size")  # x86 reports the last-level cache here
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def emit_lines(report: dict, units: dict) -> None:
    name = report["workload"]
    for key, q in report["end_to_end"].items():
        print(f"{name}: {key} = {q['median']:.6g} {units[key]} "
              f"(median of {q['n']}; q1 {q['q1']:.6g}, q3 {q['q3']:.6g})")
    print(f"{name}: error_rate = {report['error_rate']:.6g} "
          f"({report['failed']} of {report['attempted']} runs failed)")
    for key, value in report["per_layer"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}: {key} = {shown} {units[key]}")
    for problem in report["problems"]:
        print(f"{name}: FAILED CHECK: {problem}")


def metrics_for(report: dict, trace: bool, bench: dict) -> dict | None:
    """The last-line metrics of one workload, or None if one is missing."""
    names = bench["per_layer"] if trace else bench["end_to_end"]
    source = report["per_layer"] if trace else {k: v["median"] for k, v in report["end_to_end"].items()}
    if any(m["name"] not in source for m in names):
        return None
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in names}


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "tusla" / "__init__.py").is_file():
        print(f"no tusla sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    units = {"wall_s": "s", "ref_s": "s"}
    units.update({m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]})
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    reports, metrics = [], {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds, trace)
        emit_lines(report, units)
        m = metrics_for(report, trace, bench)
        if m is None:
            print(f"{name}: no successful run to measure", file=sys.stderr)
            return 1
        reports.append(report)
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})

    results = {"environment": environment(), "seconds": args.seconds, "reports": reports}
    if args.workload == "all" and trace:
        results["roadmap_comparison"] = roadmap_comparison(reports)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")

    line = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


# ROADMAP's single-run baselines (2 cores, numpy 2.4.6, CPython 3.11.7), set
# next to the traced figure that measures the same path.
ROADMAP_ROWS = (
    ("scalar route, TUSLA, record_every=1", 5.3, "us/step", "paper-s2",
     "optimizers.run.s per optimizers.run.steps; TUSLA, SGLD and ADAM chains, traced"),
    ("scalar route, TUSLA, record_every=100", 2.6, "us/step", "s26-long",
     "optimizers.run.s per optimizers.run.steps; s=26, record_every=1000, traced"),
    ("nn-demo MLP 3-4-4 with objective", 124.0, "us/step", "nn-demo",
     "optimizers.run.s per optimizers.run.steps; objective on every 10th state, traced"),
    ("export_csv", 7.8, "us/row", "paper-s2", "harness.export_csv.us_per_row"),
    ("tusla_terminal_law, u_s s=2", 290.0, "ns/replica-step", "gibbs-us",
     "diagnostics.tusla_terminal_law.ns_per_replica_step, traced"),
)


def roadmap_comparison(reports: list[dict]) -> list[dict]:
    by_name = {r["workload"]: r["per_layer"] for r in reports}
    rows = []
    for path, roadmap, unit, workload, basis in ROADMAP_ROWS:
        layers = by_name[workload]
        if unit == "us/step":
            measured = layers["optimizers.run.s"] / layers["optimizers.run.steps"] * 1e6
        elif unit == "us/row":
            measured = layers["harness.export_csv.us_per_row"]
        else:
            measured = layers["diagnostics.tusla_terminal_law.ns_per_replica_step"]
        rows.append({"path": path, "workload": workload, "unit": unit, "roadmap": roadmap,
                     "measured": measured, "ratio": measured / roadmap, "basis": basis})
    return rows


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
