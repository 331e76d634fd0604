"""Query-aware path concatenation (paper §3.4, Algorithm 5).

Given the two cost-sorted skyline sets ``P_sh`` and ``P_ht`` of a hoplink
``h`` and the budget ``C``, find the minimum-weight concatenation whose
cost fits the budget in ``O(|P_sh| + |P_ht|)`` — instead of CSP-2Hop's
Cartesian product.

The sweep starts at ``(i=first of P_sh, j=last of P_ht)``:

* if ``c(p_i ⊕ p_j) <= C`` the pair is feasible; any smaller ``j`` pairs a
  *heavier* right part with the same left part (Lemma 6), so record the
  candidate and advance ``i``;
* otherwise every larger ``i`` also busts the budget with this ``j``
  (Lemma 7), so retreat ``j``.

Each inspected pair counts as one "path concatenation" — the unit of the
paper's Figures 7 and 8.
"""

from __future__ import annotations

from typing import Sequence

from repro.skyline.entries import Entry, join_entry


_INF_PAIR = (float("inf"), float("inf"))


def concat_best_under(
    p_sh: Sequence[Entry],
    p_ht: Sequence[Entry],
    budget: float,
    prune: tuple[float, float] | None = None,
) -> tuple[Entry | None, int]:
    """Algorithm 5: the per-hoplink suboptimal path ``p*_h``.

    Parameters
    ----------
    p_sh, p_ht:
        Canonical (cost-sorted) skyline sets.
    budget:
        The query budget ``C``.
    prune:
        Optional current global best ``(weight, cost)``; feasible pairs
        that are not lexicographically better are not materialised.

    Returns
    -------
    (best, concatenations):
        The best entry (or ``None`` if no pair improves on ``prune``
        within the budget) and the number of pairs inspected.

    Notes
    -----
    Any minimum-weight feasible concatenation answers the query; among
    weight ties this picks the cheapest, so every engine in the package
    returns bit-identical ``(w, c)`` pairs.
    """
    best: Entry | None = None
    best_pair = prune if prune is not None else _INF_PAIR
    i = 0
    j = len(p_ht) - 1
    inspected = 0
    n_sh = len(p_sh)
    while i < n_sh and j >= 0:
        left = p_sh[i]
        right = p_ht[j]
        inspected += 1
        cost = left[1] + right[1]
        if cost <= budget:
            if (left[0] + right[0], cost) < best_pair:
                best_pair = (left[0] + right[0], cost)
                best = join_entry(left, right, mid=-1)
            i += 1
        else:
            j -= 1
    return best, inspected


def concat_cartesian(
    p_sh: Sequence[Entry],
    p_ht: Sequence[Entry],
    budget: float,
    prune: tuple[float, float] | None = None,
) -> tuple[Entry | None, int]:
    """The CSP-2Hop-style Cartesian sweep, for the Figure 8b ablation.

    Semantically identical to :func:`concat_best_under`; costs
    ``|P_sh| * |P_ht|`` concatenations.
    """
    best: Entry | None = None
    best_pair = prune if prune is not None else _INF_PAIR
    inspected = 0
    for left in p_sh:
        for right in p_ht:
            inspected += 1
            cost = left[1] + right[1]
            if cost > budget:
                continue
            pair = (left[0] + right[0], cost)
            if pair < best_pair:
                best_pair = pair
                best = join_entry(left, right, mid=-1)
    return best, inspected


def rejoin_with_mid(best: Entry, mid: int) -> Entry:
    """Stamp the hoplink vertex into a winning entry's provenance.

    The sweeps above use a placeholder mid (they do not know which hoplink
    they serve); the query loop re-stamps the winner so path expansion
    splits at the right vertex.
    """
    if best[2] is None:
        return best
    return (best[0], best[1], mid, best[3], best[4])
