"""The correctness gate, run after the measured phase, outside all timing.

A seeded sample of the answers the program gave during the measured
phase is checked against two references on the same data:

* CSP-2Hop (Algorithm 2) over the same labels — ``check_csp2hop``
  answers per workload;
* index-free constrained Dijkstra over the network — the first
  ``check_dijkstra`` of those (rush-hour: ``check_per_epoch`` per epoch,
  on that epoch's network);
* interactive-short also checks that each sampled path is a walk from
  ``s`` to ``t`` whose summed ``(weight, cost)`` is the answer.

Answers are compared exactly: every metric in these datasets and every
delta is an integer, so sums are exact in any order.  A rush-hour answer
is only checked when the epoch did not change during its call, so the
epoch that served it is known.
"""

from __future__ import annotations

import random

from repro import InvalidGraphError, constrained_dijkstra


def _pair(result):
    return None if result is None or not result.feasible else (
        result.weight, result.cost)


def check(outcome, sizes, seed: int) -> tuple[int, list[str]]:
    """``(answers checked, problems)``; any problem is a wrong answer."""
    rng = random.Random(seed * 7919 + 1)
    candidates = [k for k in outcome.kept if k.result is not None]
    sample = rng.sample(candidates, min(sizes.check_csp2hop, len(candidates)))
    problems: list[str] = []

    def reference(kept):
        if kept.epoch is not None:
            index = outcome.epochs[kept.epoch].index
            return index.csp2hop_engine(), index.network
        return outcome.refs[kept.pool]

    dijkstra_left: dict = {}
    for kept in sample:
        csp2hop, network = reference(kept)
        got = _pair(kept.result)
        where = f"pool {kept.pool} ({kept.s}, {kept.t}, C={kept.budget!r})"
        want = _pair(csp2hop.query(kept.s, kept.t, kept.budget))
        if got != want:
            problems.append(f"{where}: got {got}, CSP-2Hop says {want}")
            continue
        key = kept.epoch
        quota = (sizes.check_per_epoch if key is not None
                 else sizes.check_dijkstra)
        if dijkstra_left.setdefault(key, quota) > 0:
            dijkstra_left[key] -= 1
            want = _pair(constrained_dijkstra(
                network, kept.s, kept.t, kept.budget, want_path=False))
            if got != want:
                problems.append(
                    f"{where}: got {got}, constrained Dijkstra says {want}")
                continue
        path = kept.result.path
        if path is not None:
            problem = _path_problem(network, path, kept, got)
            if problem:
                problems.append(f"{where}: {problem}")
    return len(sample), problems


def _path_problem(network, path, kept, answer) -> str | None:
    if path[0] != kept.s or path[-1] != kept.t:
        return "path does not join s and t"
    try:
        walked = network.path_metrics(path)
    except InvalidGraphError as exc:
        return f"path is not a walk: {exc}"
    if walked != answer:
        return f"path sums to {walked}, answer is {answer}"
    return None
