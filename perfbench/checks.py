"""Output checks for one workload run: artifact set, row counts, structure,
and (at the reference seed) values against ``reference.json``.

Every check returns a list of problems; an empty list means the run passed.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0


def digest(out_dir: Path) -> tuple[str, dict[str, bytes]]:
    """SHA-256 over every artifact (name and bytes, sorted by name), plus the
    artifacts' contents for the checks below."""
    h = hashlib.sha256()
    files = {}
    for p in sorted(out_dir.iterdir()):
        data = p.read_bytes()
        files[p.name] = data
        h.update(p.name.encode() + b"\0" + str(len(data)).encode() + b"\0")
        h.update(data)
    return h.hexdigest(), files


def _last_step(workload: dict, divergence_step) -> int:
    return workload["n_steps"] if divergence_step is None else divergence_step


def expected_rows(workload: dict, divergence_step) -> int:
    """Rows export_csv writes for one chain: every record_every-th state
    before the last step, plus the final (or divergent) state."""
    return -(-_last_step(workload, divergence_step) // workload["record_every"]) + 1


def check_run(workload: dict, seed: int, files: dict[str, bytes]) -> list[str]:
    """Structure of a `tusla run` output directory."""
    name, algos = workload["preset"], workload["algorithms"]
    seeds = [seed + i for i in range(workload["n_seeds"])]
    want = {f"{name}-{a}-seed{s}.csv" for a in algos for s in seeds}
    want.add(f"{name}-summary.json")
    if set(files) != want:
        missing, extra = sorted(want - set(files)), sorted(set(files) - want)
        return [f"artifact set differs: missing {missing[:3]}, extra {extra[:3]}"]
    summary = json.loads(files[f"{name}-summary.json"])
    problems = []
    if sorted(summary["algorithms"]) != sorted(algos):
        return [f"summary algorithms {sorted(summary['algorithms'])} != {sorted(algos)}"]
    for algo in algos:
        agg = summary["algorithms"][algo]
        per_seed = agg["per_seed"]
        if [r["seed"] for r in per_seed] != seeds:
            problems.append(f"{algo}: summary seeds differ from {seeds[0]}..{seeds[-1]}")
            continue
        for r in per_seed:
            lines = files[f"{name}-{algo}-seed{r['seed']}.csv"].split(b"\n")
            rows = lines[1:-1]  # header first, file ends in a newline
            want_rows = expected_rows(workload, r["divergence_step"])
            if lines[0] != b"step,theta_norm,theta,objective,grad_norm" or lines[-1] != b"":
                problems.append(f"{algo} seed {r['seed']}: malformed csv")
            elif len(rows) != want_rows:
                problems.append(f"{algo} seed {r['seed']}: {len(rows)} rows, want {want_rows}")
            elif int(rows[-1].split(b",")[0]) != _last_step(workload, r["divergence_step"]):
                problems.append(f"{algo} seed {r['seed']}: last row is not the final step")
    tusla = summary["algorithms"].get("tusla")
    if tusla is not None and tusla["n_non_crashed"] != tusla["n_seeds"]:
        problems.append(f"tusla: {tusla['n_seeds'] - tusla['n_non_crashed']} chains diverged")
    sgld = summary["algorithms"].get("sgld")
    if workload.get("sgld_diverges") and sgld["n_non_crashed"] != 0:
        problems.append(f"sgld: {sgld['n_non_crashed']} chains stayed finite")
    return problems


def check_gibbs(workload: dict, files: dict[str, bytes]) -> list[str]:
    """Structure of a `tusla gibbs` output file."""
    if set(files) != {"gibbs.json"}:
        return [f"artifact set {sorted(files)} != ['gibbs.json']"]
    out = json.loads(files["gibbs.json"])
    problems = []
    for key in ("replicas", "replicas_used"):
        if out.get(key) != workload["replicas"]:
            problems.append(f"{key} = {out.get(key)}, want {workload['replicas']}")
    if out.get("steps") != workload["steps"]:
        problems.append(f"steps = {out.get('steps')}, want {workload['steps']}")
    for key in ("w1_vs_gibbs", "w2_vs_gibbs"):
        v = out.get(key)
        if not (isinstance(v, float) and math.isfinite(v) and v > 0.0):
            problems.append(f"{key} = {v!r} is not a positive finite number")
    return problems


def check_reference(ref, got, rtol: float, path: str = "") -> list[str]:
    """Compare every leaf of ref against got: ints, bools and None exactly,
    floats to a relative tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        problems = []
        for k, v in ref.items():
            if k not in got:
                problems.append(f"{path}/{k}: missing")
            else:
                problems += check_reference(v, got[k], rtol, f"{path}/{k}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got))
                for p in check_reference(r, g, rtol, f"{path}/{i}")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} differs from reference {ref!r} by more than rtol {rtol}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def reference_view(workload: dict, files: dict[str, bytes]) -> dict:
    """The values of one run that reference.json pins at the reference seed."""
    if workload["command"] == "gibbs":
        out = json.loads(files["gibbs.json"])
        return {k: out[k] for k in ("w1_vs_gibbs", "w2_vs_gibbs")}
    name = workload["preset"]
    summary = json.loads(files[f"{name}-summary.json"])
    view = {
        "algorithms": {
            algo: {k: agg[k] for k in ("n_non_crashed", "median_final_distance",
                                       "median_final_objective")}
            for algo, agg in summary["algorithms"].items()
        }
    }
    prefix = workload.get("reference_prefix_rows")
    if prefix:
        # long chaotic chains: pin the early trajectory, not the final state
        for algo in workload["algorithms"]:
            csv = files[f"{name}-{algo}-seed{REFERENCE_SEED}.csv"].split(b"\n")
            view["algorithms"][algo] = {
                "n_non_crashed": view["algorithms"][algo]["n_non_crashed"],
                "theta_prefix": [float(line.split(b",")[2]) for line in csv[1:1 + prefix]],
            }
    return view


def check_outputs(workload: dict, seed: int, files: dict[str, bytes]) -> list[str]:
    if workload["command"] == "gibbs":
        problems = check_gibbs(workload, files)
    else:
        problems = check_run(workload, seed, files)
    if problems or seed != REFERENCE_SEED:
        return problems
    reference = json.loads(REFERENCE_PATH.read_text())
    return check_reference(reference["workloads"][workload["name"]],
                           reference_view(workload, files), reference["rtol"],
                           workload["name"])
