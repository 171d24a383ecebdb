"""Byte contract: SHA-256 digests of every artifact of a fixed set of CLI runs.

Each invocation below runs ``tusla.harness.main`` in process into its own
directory. ``tests/golden/digests.json`` holds the SHA-256 of every file
they write, keyed by "<invocation>/<file>", with the numpy version and the
platform the digests were written on. ``tests/test_golden.py`` reruns the
set and compares. A change that moves bytes on purpose rewrites the file
and names the changed artifacts in CHANGES.md.

    python scripts/golden.py            # rerun and compare; exit 1 on a mismatch
    python scripts/golden.py --keep DIR # the same, and keep the artifacts in DIR
    python scripts/golden.py --write    # rewrite tests/golden/digests.json
    python scripts/golden.py --compare A B  # what moved between two --keep trees

With --keep, DIR holds one directory per invocation; an invocation's
directory must not exist. --compare runs nothing: it reads every file of two
such trees and prints, per file that differs, each CSV column or JSON key
whose values changed, with the count of changed values and the largest move
in ulps (units in the last place: adjacent float64 values are 1 ulp apart),
and the values, columns, keys and files that only one tree has. Equal trees
print nothing; the exit status is 1 when anything differs.
"""
import argparse
import hashlib
import json
import math
import platform
import struct
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from tusla.harness import main as tusla_main

DIGESTS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "digests.json"

# name -> CLI arguments; "{out}" is the invocation's output directory
INVOCATIONS = {
    "run-paper-s2": ["run", "--preset", "paper-s2", "--out", "{out}"],
    "run-paper-s26": ["run", "--preset", "paper-s26", "--out", "{out}"],
    "run-nn-demo": ["run", "--preset", "nn-demo", "--out", "{out}"],
    "run-gibbs-quadratic": ["run", "--preset", "gibbs-quadratic", "--out", "{out}"],
    "run-one-neuron": ["run", "--preset", "nn-demo", "--set", "problem=one_neuron",
                       "--out", "{out}"],
    # perfbench's s26-long workload
    "run-s26-long": ["run", "--preset", "paper-s26", "--set", "algorithm=tusla",
                     "--set", "seeds=0", "--set", "n_steps=2000000",
                     "--set", "record_every=1000", "--seed", "0", "--out", "{out}"],
    "gibbs-us-s2": ["gibbs", "--problem", "us", "--s", "2", "--out", "{out}/gibbs.json"],
    "gibbs-us-s26": ["gibbs", "--problem", "us", "--s", "26", "--out", "{out}/gibbs.json"],
    "gibbs-quadratic": ["gibbs", "--problem", "quadratic", "--out", "{out}/gibbs.json"],
    # the quadratic with the drift's penalty switched on (the default eta is 0)
    "gibbs-quadratic-eta": ["gibbs", "--problem", "quadratic", "--eta", "0.05",
                            "--steps", "2000", "--out", "{out}/gibbs.json"],
    # a u_3 law started in the wall, where d < 0 and |theta| >= 1
    "gibbs-us-s3-wall": ["gibbs", "--problem", "us", "--s", "3", "--theta0", "-3",
                         "--steps", "2000", "--out", "{out}/gibbs.json"],
    "constants-us": ["constants", "--problem", "us", "--out", "{out}/constants.json"],
    "constants-quadratic": ["constants", "--problem", "quadratic",
                            "--out", "{out}/constants.json"],
    "run-config-file": ["run", "--config", "{config}", "--seed", "5", "--out", "{out}"],
    "run-nn-demo-json": ["run", "--preset", "nn-demo", "--set", "algorithm=tusla",
                         "--set", "seeds=0,1", "--format", "json", "--out", "{out}"],
}

# name -> config-file text, written beside the invocation's output directory
# as "<name>.cfg"; "{config}" is its path. Float fields carry a decimal point.
CONFIG_FILES = {
    "run-config-file": (
        "# paper-s26 with TUSLA alone, two seeds and half the step size\n"
        "\n"
        "preset=paper-s26\n"
        "algorithm=tusla\n"
        "n_steps=3000\n"
        "seeds=0,1\n"
        "lam=0.025\n"
        "r=none\n"
    ),
}


def environment() -> dict:
    return {"numpy": np.__version__, "platform": platform.platform()}


def run_all(root: Path, invocations: dict = INVOCATIONS) -> dict[str, str]:
    """Run every invocation under root; the digest of each file it wrote."""
    digests = {}
    for name, argv in invocations.items():
        out, config = root / name, root / f"{name}.cfg"
        out.mkdir(parents=True)
        if name in CONFIG_FILES:
            config.write_text(CONFIG_FILES[name])
        code = tusla_main([arg.replace("{out}", str(out)).replace("{config}", str(config))
                           for arg in argv])
        if code != 0:
            raise RuntimeError(f"{name} exited with {code}")
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def mismatches(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every artifact whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def _ordered(x: float) -> int:
    # the float64's bits as an integer in the floats' order: adjacent floats
    # differ by 1, and -0.0 and 0.0 both map to 0
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _ulps(a, b):
    """The distance of two values in ulps; None when either is not a number."""
    try:
        fa, fb = float(a), float(b)
    except (TypeError, ValueError):
        return None
    if isinstance(a, bool) or isinstance(b, bool) or math.isnan(fa) or math.isnan(fb):
        return None
    return abs(_ordered(fa) - _ordered(fb))


def _values(path: Path) -> dict:
    """Every value of a CSV or JSON artifact, keyed by (column or key, position).

    A CSV value is one ';'-separated component of a cell, as text; a JSON
    value is a leaf. List positions in a JSON key read "[]", so that all the
    values of one list are counted under one key.
    """
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = text.splitlines()
        return {(col, (r, j)): v
                for r, row in enumerate(rows)
                for col, cell in zip(header.split(","), row.split(","))
                for j, v in enumerate(cell.split(";"))}
    values = {}

    def walk(obj, key, pos):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{key}.{k}" if key else k, pos)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, key + "[]", pos + (i,))
        else:
            values[(key, pos)] = obj

    walk(json.loads(text), "", ())
    return values


def compare_files(a: Path, b: Path) -> list[str]:
    """One line per CSV column or JSON key whose values differ between a and b."""
    if a.read_bytes() == b.read_bytes():
        return []
    if a.suffix not in (".csv", ".json"):
        return ["  bytes differ"]
    va, vb = _values(a), _values(b)
    # key -> [numbers changed, largest move in ulps, other values changed,
    #         values only in a, values only in b]
    tally = defaultdict(lambda: [0, 0, 0, 0, 0])
    for k in va.keys() | vb.keys():
        t = tally[k[0]]
        if k not in vb:
            t[3] += 1
        elif k not in va:
            t[4] += 1
        elif type(va[k]) is not type(vb[k]) or str(va[k]) != str(vb[k]):
            ulps = _ulps(va[k], vb[k])
            if ulps is None:
                t[2] += 1
            else:
                t[0] += 1
                t[1] = max(t[1], ulps)
    lines = []
    for key, (changed, ulps, other, removed, added) in sorted(tally.items()):
        parts = [f"{changed} changed, largest {ulps} ulps"] if changed else []
        if other:
            parts.append(f"{other} changed and not numbers")
        if removed:
            parts.append(f"{removed} only in the first tree")
        if added:
            parts.append(f"{added} only in the second tree")
        if parts:
            lines.append(f"  {key}: " + "; ".join(parts))
    return lines


def compare_trees(a: Path, b: Path) -> list[str]:
    """What differs between two artifact trees; empty when they are equal."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    lines = []
    for name in sorted(files_a | files_b):
        if name not in files_b:
            lines.append(f"{name}: only in the first tree")
        elif name not in files_a:
            lines.append(f"{name}: only in the second tree")
        elif changes := compare_files(a / name, b / name):
            lines += [f"{name}:", *changes]
    return lines


def main(argv=None, invocations=INVOCATIONS) -> int:
    """The command line; compares the digests of the invocations it runs."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name}")
    ap.add_argument("--keep", metavar="DIR", help="write the artifacts under DIR and keep them")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="run nothing; report what differs between two --keep trees")
    args = ap.parse_args(argv)
    if args.compare:
        lines = compare_trees(*map(Path, args.compare))
        for line in lines:
            print(line)
        return 1 if lines else 0
    if args.keep:
        got = run_all(Path(args.keep), invocations)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_all(Path(tmp), invocations)
    if args.write:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps({**environment(), "digests": got}, indent=2, sort_keys=True)
        DIGESTS.write_text(text + "\n")
        print(f"wrote {len(got)} digests to {DIGESTS}")
        return 0
    recorded = json.loads(DIGESTS.read_text())
    expected = {k: v for k, v in recorded["digests"].items() if k.split("/")[0] in invocations}
    changed = mismatches(expected, got)
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(changed)} of {len(got)} artifacts differ from the digests written with "
          f"numpy {recorded['numpy']} on {recorded['platform']}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
