"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py --base A [A ...] --head B [B ...]

Each argument is a result file written by ``run.py``
(``benchmarks/e2e/out/result-*.json``) or a directory holding such
files; each side may cover one or many runs.  For every workload and
metric it prints each side's median and quartiles, the pairs the head
won when runs pair up by seed, and, for end-to-end metrics, a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``regressed`` — the head's median is worse by more than the bound;
* ``improved`` — the head is better, wins at least 9 in 10 pairs, and
  the medians differ by more than the base's own quartile spread;
* ``unresolved`` — a side's quartile spread is wider than the bound, and
  not every head run beats (or loses to) every base run;
* ``unchanged`` — otherwise.

Runs of the same workload and seed must have been given identical
inputs: differing input digests make the comparison refuse (exit 2).
Exit 1 when any metric regressed or is unresolved, or the head failed
more operations than the base; 0 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from collections import defaultdict

from common import load_declaration, quartiles


def _files(paths: list[str]) -> list[str]:
    found = []
    for path in paths:
        if os.path.isdir(path):
            found.extend(sorted(glob.glob(os.path.join(path, "result-*.json"))))
        else:
            found.append(path)
    return found


def load_side(paths: list[str]) -> dict:
    """``(workload, trace) -> [record, ...]`` for one side."""
    side = defaultdict(list)
    for path in _files(paths):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        side[(record["workload"], record["trace"])].append(record)
    return side


def digest_conflicts(base: dict, head: dict) -> list[str]:
    """Same workload and seed, different inputs: nothing to compare."""
    conflicts = []
    for key in set(base) | set(head):
        seen: dict[int, str] = {}
        for record in base.get(key, []) + head.get(key, []):
            digest = seen.setdefault(record["seed"], record["input_digest"])
            if digest != record["input_digest"]:
                conflicts.append(f"{key[0]} seed {record['seed']}")
    return sorted(set(conflicts))


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(spec: dict, base: list[float], head: list[float],
            wins: int, pairs: int) -> str:
    """The verdict for one bound-bearing metric (see module docs)."""
    bound, better = spec["bound"], spec["better"]
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (h3 - h1) / abs(hm) if hm else 0.0)
    worse = (hm - bm) / abs(bm) if bm else 0.0
    if better == "higher":
        worse = -worse
    all_better = all(_better(h, b, better) for h in head for b in base)
    all_worse = all(_better(b, h, better) for h in head for b in base)
    if spread > bound:
        if all_better:
            return "improved"
        return "regressed" if all_worse else "unresolved"
    if worse > bound:
        return "regressed"
    if (worse < 0 and abs(hm - bm) > b3 - b1
            and pairs and wins >= 0.9 * pairs):
        return "improved"
    return "unchanged"


def compare(base: dict, head: dict, declaration: dict, out=sys.stdout
            ) -> int:
    """Print the comparison; return the exit status."""
    status = 0
    row = "{:<18} {:<36} {:>26} {:>26} {:>8} {:>6}  {}"
    print(row.format("workload", "metric", "base median [q1, q3]",
                     "head median [q1, q3]", "change", "won", "verdict"),
          file=out)
    for key in sorted(set(base) & set(head)):
        workload, trace = key
        specs = declaration["per_layer" if trace else "end_to_end"]
        base_runs = {r["seed"]: r for r in base[key]}
        head_runs = {r["seed"]: r for r in head[key]}
        base_failed = sum(r["failed"] for r in base[key])
        head_failed = sum(r["failed"] for r in head[key])
        for spec in specs:
            name = spec["name"]
            b = [r["metrics"][name]["value"] for r in base[key]
                 if r["metrics"].get(name, {}).get("value") is not None]
            h = [r["metrics"][name]["value"] for r in head[key]
                 if r["metrics"].get(name, {}).get("value") is not None]
            if not b or not h:
                print(row.format(workload, name, "-", "-", "-", "-",
                                 "missing"), file=out)
                continue
            wins = pairs = 0
            for seed in set(base_runs) & set(head_runs):
                bv = base_runs[seed]["metrics"].get(name, {}).get("value")
                hv = head_runs[seed]["metrics"].get(name, {}).get("value")
                if bv is None or hv is None:
                    continue
                pairs += 1
                wins += _better(hv, bv, spec["better"])
            b1, bm, b3 = quartiles(b)
            h1, hm, h3 = quartiles(h)
            change = f"{(hm - bm) / abs(bm):+.1%}" if bm else "-"
            result = verdict(spec, b, h, wins, pairs) if "bound" in spec \
                else "-"
            if result in ("regressed", "unresolved"):
                status = 1
            print(row.format(
                workload, name,
                f"{bm:.4g} [{b1:.4g}, {b3:.4g}]",
                f"{hm:.4g} [{h1:.4g}, {h3:.4g}]",
                change, f"{wins}/{pairs}", result), file=out)
        print(row.format(workload, "failed operations", str(base_failed),
                         str(head_failed), "-", "-",
                         "regressed" if head_failed > base_failed else "ok"),
              file=out)
        if head_failed > base_failed:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load_side(args.base), load_side(args.head)
    if not base or not head:
        print("error: no result files on one side", file=sys.stderr)
        return 2
    conflicts = digest_conflicts(base, head)
    if conflicts:
        print("refusing to compare: input digests differ for "
              + ", ".join(conflicts), file=sys.stderr)
        return 2
    return compare(base, head, load_declaration())


if __name__ == "__main__":
    sys.exit(main())
