#!/usr/bin/env python3
"""Checks `repro --quick all` against the committed output digests.

Runs `repro --quick --jobs 2 --csv --quiet --cache-dir <fresh> --report
R all` at seeds 2013 and 4099 and compares the FNV-1a 64 digests of its
stdout and of the report's `metrics` block with the `cold.csv` and
`cold.metrics` lines of perfbench/golden.txt, digested as
perfbench/src/stats.rs does: every part is followed by a 0xff byte, and
the metrics are one `name=<value pretty-printed>\\n` part per sorted
name, leaving out the operational `pool.`/`cache.`/`serve.` families.

Usage (from the repository root):
    python3 scripts/check_golden.py [path/to/repro]   # default target/release/repro
Exits 1 if any digest differs.
"""
import json
import subprocess
import sys
import tempfile
from decimal import Decimal

SEEDS = ("2013", "4099")


def fnv1a(parts):
    h = 0xCBF29CE484222325
    for part in parts:
        for b in part + b"\xff":
            h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def escaped(s):
    table = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return '"' + "".join(
        table.get(c) or (c if ord(c) >= 0x20 else "\\u%04x" % ord(c)) for c in s
    ) + '"'


def pretty(v, indent=0):
    """`desc_telemetry::Json::to_pretty` without its final newline."""
    pad, close = "\n" + "  " * (indent + 1), "\n" + "  " * indent
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if v != v or abs(v) == float("inf"):
            return "null"
        if v == int(v) and abs(v) < 1e15:
            return "%.1f" % v
        return format(Decimal(repr(v)), "f")
    if isinstance(v, str):
        return escaped(v)
    if isinstance(v, list):
        items = [pad + pretty(x, indent + 1) for x in v]
        return "[" + ",".join(items) + close + "]" if v else "[]"
    items = [pad + escaped(k) + ": " + pretty(x, indent + 1) for k, x in v.items()]
    return "{" + ",".join(items) + close + "}" if v else "{}"


def main():
    repro = sys.argv[1] if len(sys.argv) > 1 else "target/release/repro"
    golden = {}
    with open("perfbench/golden.txt") as f:
        for line in f:
            fields = line.split()
            if len(fields) == 3 and not line.startswith("#"):
                golden[(fields[0], fields[1])] = int(fields[2], 16)
    failed = False
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            report = tmp + "/report.json"
            stdout = subprocess.run(
                [repro, "--quick", "--jobs", "2", "--seed", seed, "--csv", "--quiet",
                 "--cache-dir", tmp + "/cells", "--report", report, "all"],
                check=True, stdout=subprocess.PIPE,
            ).stdout
            with open(report) as f:
                metrics = json.load(f)["metrics"]
        kept = sorted(
            (k, v) for k, v in metrics.items()
            if not k.startswith(("pool.", "cache.", "serve."))
        )
        got = {
            "cold.csv": fnv1a([stdout]),
            "cold.metrics": fnv1a([f"{k}={pretty(v)}\n".encode() for k, v in kept]),
        }
        for artifact, digest in got.items():
            want = golden[(seed, artifact)]
            ok = digest == want
            failed |= not ok
            print(f"{seed} {artifact} {digest:016x} {'ok' if ok else f'!= golden {want:016x}'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
