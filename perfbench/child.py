"""One benchmark child: import tusla, optionally trace it, run its CLI once.

Usage: python3 perfbench/child.py RESULT_JSON TRACE [CLI ARGS...]

The child times ``import tusla`` (setup_s; of that, ref_s is the part spent
importing numpy and scipy.special), then ``tusla.harness.main(argv)``
(wall_s), reads its own peak RSS, writes everything to RESULT_JSON and exits
with the CLI's exit code. With no CLI args it only imports (a set-up probe).

With TRACE=1 it wraps public names of the package where their callers look
them up, without touching ``src/``. Chain-level calls and above become full
spans (name, start, end, parent). Leaf calls (oracle, data draw, drift,
objective) only bump a per-name counter and a time total, so a 2M-step chain
allocates no per-step records; each span stores the leaf totals accrued while
it was open, and ``analyse`` attributes them to the innermost span.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (metric prefix, module attribute path, element-count function or None)
LEAVES = (
    ("problems.UsProblem.evaluate_scalar", "problems.UsProblem.evaluate_scalar", None),
    ("problems.UsProblem.evaluate_batch", "problems.UsProblem.evaluate_batch",
     lambda a, k: a[1].size),
    ("problems.UniformDataSource.sample_batch", "problems.UniformDataSource.sample_batch",
     lambda a, k: a[2]),
    ("neural_net.MlpOracle.evaluate", "neural_net.MlpOracle.evaluate", None),
    ("neural_net.TeacherStream.sample", "neural_net.TeacherStream.sample", None),
    ("neural_net.risk", "harness.risk", None),
    ("gradient_oracle.overflow_safe_drift", "optimizers.overflow_safe_drift", None),
    ("gradient_oracle.overflow_safe_drift_batch", "diagnostics.overflow_safe_drift_batch",
     lambda a, k: a[1].size),
)

# (span name, module attribute path); every one is looked up in harness
SPANS = (
    ("harness.run_config", "harness.run_config"),
    ("optimizers.run", "harness.run"),
    ("harness.export_csv", "harness.export_csv"),
    ("diagnostics.tusla_terminal_law", "harness.tusla_terminal_law"),
    ("diagnostics.gibbs_sampler_1d", "harness.gibbs_sampler_1d"),
    ("diagnostics.wasserstein_p_1d", "harness.wasserstein_p_1d"),
)
ROOT_SPAN = "harness.main"


class Tracer:
    """Span recorder plus per-leaf accumulators [calls, seconds, elements]."""

    def __init__(self) -> None:
        self.leaves: dict[str, list] = {}
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _snapshot(self) -> dict:
        return {k: list(v) for k, v in self.leaves.items()}

    def open(self, name: str) -> tuple:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "attrs": {}})
        self._stack.append(idx)
        return idx, self._snapshot(), time.perf_counter()

    def close(self, token: tuple) -> dict:
        end = time.perf_counter()
        idx, before, start = token
        self._stack.pop()
        span = self.spans[idx]
        span["start"], span["end"] = start, end
        span["leaves"] = {
            k: [v[i] - before[k][i] for i in range(3)]
            for k, v in self.leaves.items()
            if v[0] != before[k][0]
        }
        return span

    def leaf(self, name: str, fn, size=None):
        acc = self.leaves.setdefault(name, [0, 0.0, 0])
        clock = time.perf_counter

        # two bodies so that the per-call path of an unsized leaf (2M calls
        # on s26-long) does no extra work
        if size is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                acc[1] += clock() - t0
                acc[0] += 1
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                acc[1] += clock() - t0
                acc[0] += 1
                acc[2] += size(args, kwargs)
                return out
        return wrapper

    def span(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self.close(token)
            span["attrs"] = _span_attrs(name, sig.bind(*args, **kwargs).arguments, out)
            return out
        return wrapper


def _span_attrs(name: str, args: dict, out) -> dict:
    if name == "optimizers.run":
        return {"steps": int(out.step_indices[-1]), "diverged": int(out.diverged)}
    if name == "harness.export_csv":
        return {"rows": int(args["record"].n_recorded), "bytes": os.path.getsize(out)}
    if name == "diagnostics.tusla_terminal_law":
        return {"replica_steps": int(args["n_steps"]) * int(args["n_replicas"])}
    return {}


def install(tracer: Tracer, package) -> None:
    """Replace the traced names on the imported package's modules/classes."""

    def resolve(path: str):
        *owner_path, attr = path.split(".")
        owner = package
        for part in owner_path:
            owner = getattr(owner, part)
        return owner, attr

    for name, path, size in LEAVES:
        owner, attr = resolve(path)
        # class attributes are read from __dict__ so methods stay plain functions
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, tracer.leaf(name, fn, size))
    for name, path in SPANS:
        owner, attr = resolve(path)
        setattr(owner, attr, tracer.span(name, getattr(owner, attr)))


def analyse(spans: list[dict]) -> list[dict]:
    """Per span: duration, direct leaf totals and self time.

    A span's leaf totals include those of its descendants; the direct part is
    that minus its child spans' totals. Self time is the duration minus the
    child spans' durations minus the direct leaf time.
    """
    child_dur = [0.0] * len(spans)
    child_leaves: list[dict] = [{} for _ in spans]
    for s in spans:
        p = s["parent"]
        if p is None:
            continue
        child_dur[p] += s["end"] - s["start"]
        for k, v in s["leaves"].items():
            acc = child_leaves[p].setdefault(k, [0, 0.0, 0])
            for i in range(3):
                acc[i] += v[i]
    out = []
    for i, s in enumerate(spans):
        direct = {}
        for k, v in s["leaves"].items():
            c = child_leaves[i].get(k, [0, 0.0, 0])
            d = [v[j] - c[j] for j in range(3)]
            if d[0]:
                direct[k] = d
        dur = s["end"] - s["start"]
        self_s = dur - child_dur[i] - sum(v[1] for v in direct.values())
        out.append({**s, "s": dur, "self_s": self_s, "direct": direct})
    return out


def layer_metrics(spans: list[dict], leaves: dict) -> dict:
    """The per-layer metrics of one traced child (times in s, counts exact)."""
    rows = analyse(spans)

    def total(name: str, key: str) -> float:
        return sum((r[key] for r in rows if r["name"] == name), 0.0)

    def attr(name: str, key: str) -> int:
        return sum(r["attrs"].get(key, 0) for r in rows if r["name"] == name)

    def calls(name: str) -> int:
        return sum(1 for r in rows if r["name"] == name)

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    def leaf(name: str) -> list:
        return leaves.get(name, [0, 0.0, 0])

    m: dict = {}
    export_s, export_rows = total("harness.export_csv", "s"), attr("harness.export_csv", "rows")
    m["harness.export_csv.calls"] = calls("harness.export_csv")
    m["harness.export_csv.rows"] = export_rows
    m["harness.export_csv.bytes"] = attr("harness.export_csv", "bytes")
    m["harness.export_csv.s"] = export_s
    m["harness.export_csv.us_per_row"] = ratio(export_s, export_rows, 1e6)
    m["harness.run_config.self_s"] = total("harness.run_config", "self_s")

    steps, run_self = attr("optimizers.run", "steps"), total("optimizers.run", "self_s")
    m["optimizers.run.calls"] = calls("optimizers.run")
    m["optimizers.run.steps"] = steps
    m["optimizers.run.diverged"] = attr("optimizers.run", "diverged")
    m["optimizers.run.s"] = total("optimizers.run", "s")
    m["optimizers.run.self_s"] = run_self
    m["optimizers.run.self_us_per_step"] = ratio(run_self, steps, 1e6)

    for name in ("problems.UsProblem.evaluate_scalar", "neural_net.MlpOracle.evaluate",
                 "neural_net.TeacherStream.sample", "gradient_oracle.overflow_safe_drift"):
        n, s, _ = leaf(name)
        m[f"{name}.calls"] = n
        m[f"{name}.us_per_call"] = ratio(s, n, 1e6)
    for name in ("problems.UsProblem.evaluate_batch", "gradient_oracle.overflow_safe_drift_batch"):
        n, s, elems = leaf(name)
        m[f"{name}.calls"] = n
        m[f"{name}.ns_per_elem"] = ratio(s, elems, 1e9)
    for name in ("problems.UniformDataSource.sample_batch", "neural_net.risk"):
        n, s, _ = leaf(name)
        m[f"{name}.calls"] = n
        m[f"{name}.s"] = s

    law = "diagnostics.tusla_terminal_law"
    m[f"{law}.s"] = total(law, "s")
    m[f"{law}.self_s"] = total(law, "self_s")
    m[f"{law}.ns_per_replica_step"] = ratio(total(law, "s"), attr(law, "replica_steps"), 1e9)
    m["diagnostics.gibbs_sampler_1d.s"] = total("diagnostics.gibbs_sampler_1d", "s")
    m["diagnostics.wasserstein_p_1d.s"] = total("diagnostics.wasserstein_p_1d", "s")
    return m


def main(argv: list[str]) -> int:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    src = ROOT / "src"
    t0 = time.perf_counter()
    # tusla's third-party imports, timed on their own: they do not depend on
    # the program, so their time is the run's measure of machine speed (ref_s)
    import numpy
    import scipy.special

    t1 = time.perf_counter()
    sys.path.insert(0, str(src))
    import tusla
    import tusla.harness

    t2 = time.perf_counter()
    if Path(tusla.__file__).resolve().parent != src / "tusla":
        print(f"imported tusla from {tusla.__file__}, not from {src}", file=sys.stderr)
        return 3

    result = {
        "setup_s": t2 - t0,
        "ref_s": t1 - t0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    code = 0
    if cli_args:
        tracer = Tracer() if trace else None
        if tracer is not None:
            install(tracer, tusla)
            token = tracer.open(ROOT_SPAN)
        t1 = time.perf_counter()
        code = tusla.harness.main(cli_args)
        result["wall_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.close(token)
            result["layers"] = layer_metrics(tracer.spans, tracer.leaves)
            result["spans"] = tracer.spans
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as f:
        json.dump(result, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
