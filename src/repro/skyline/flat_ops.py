"""Skyline kernels as index arithmetic over flat label columns.

These are the hot-path twins of :func:`repro.skyline.set_ops.best_under`
and :func:`repro.core.concatenation.concat_best_under`, operating on the
cost-sorted ``weights`` / ``costs`` columns of a
:class:`~repro.storage.flat.FlatLabelStore` instead of lists of entry
tuples.  A skyline set is addressed as a half-open slice ``[lo, hi)``
into both columns; canonical ordering (cost strictly increasing, weight
strictly decreasing) is what makes both kernels correct.

Answer semantics are *bit-identical* to the object kernels: both return
the lexicographically smallest feasible ``(weight, cost)`` pair.  Only
the ``inspected`` operation count may be smaller here — the sweep
binary-searches its start/end bounds, skipping pairs that are provably
over budget — and operation counters are not part of the cross-engine
identity contract (the differential harness diffs
``(feasible, weight, cost)`` triples).

The columns may be ``array('d')`` objects or ``memoryview('d')`` casts
over an ``mmap``; both support subscripting and :func:`bisect.bisect_right`
with ``lo`` / ``hi`` bounds, so nothing here materialises a per-call key
list the way ``best_under`` does.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

#: Either an ``array('d')`` or a ``memoryview`` cast to ``'d'``.
FloatColumn = Sequence[float]


def best_under_cols(
    costs: FloatColumn, lo: int, hi: int, budget: float
) -> int:
    """Index of the best entry with ``cost <= budget`` in ``[lo, hi)``.

    Canonical ordering makes the *last* within-budget entry the
    minimum-weight feasible one, so this is a pure binary search over
    the cost column — no per-call key-list allocation.  Returns ``-1``
    when no entry fits the budget.
    """
    idx = bisect_right(costs, budget, lo, hi) - 1
    return idx if idx >= lo else -1


def sweep_best_pair(
    s_weights: FloatColumn,
    s_costs: FloatColumn,
    s_lo: int,
    s_hi: int,
    t_weights: FloatColumn,
    t_costs: FloatColumn,
    t_lo: int,
    t_hi: int,
    budget: float,
    best_weight: float,
    best_cost: float,
) -> tuple[float, float, int, int, int]:
    """Algorithm 5's two-pointer sweep over two column slices.

    ``[s_lo, s_hi)`` addresses ``P_sh`` and ``[t_lo, t_hi)`` addresses
    ``P_ht``.  ``(best_weight, best_cost)`` is the current global best
    (``inf, inf`` when none), playing the role of ``prune`` in
    :func:`~repro.core.concatenation.concat_best_under`: a feasible pair
    only wins by being lexicographically smaller.

    Returns ``(best_weight, best_cost, inspected, i, j)`` — the possibly
    improved best pair, the number of pairs inspected, and the column
    rows of the winning pair (``-1, -1`` when no pair beat the incoming
    best).  The rows change only on a strictly better pair, so among
    equal pairs the first one swept wins, as in the object sweep.

    The sweep bounds are tightened by binary search before walking:
    right parts too costly to fit the budget even with the *cheapest*
    left part can never be feasible, and likewise left parts against
    the cheapest right part.  Every excluded pair is infeasible, so the
    minimum over feasible pairs — the answer — is untouched.
    """
    if s_lo >= s_hi or t_lo >= t_hi:
        return best_weight, best_cost, 0, -1, -1
    j = bisect_right(t_costs, budget - s_costs[s_lo], t_lo, t_hi) - 1
    i_hi = bisect_right(s_costs, budget - t_costs[t_lo], s_lo, s_hi)
    i = s_lo
    inspected = 0
    best_i = best_j = -1
    if i >= i_hi or j < t_lo:
        return best_weight, best_cost, 0, -1, -1
    # The current-cell costs are kept in locals: each loop iteration
    # moves only one pointer, so only one column read is needed per
    # step (column subscripts box a fresh float each time).
    s_cost = s_costs[i]
    t_cost = t_costs[j]
    while True:
        inspected += 1
        cost = s_cost + t_cost
        if cost <= budget:
            weight = s_weights[i] + t_weights[j]
            if (weight, cost) < (best_weight, best_cost):
                best_weight = weight
                best_cost = cost
                best_i = i
                best_j = j
            i += 1
            if i >= i_hi:
                break
            s_cost = s_costs[i]
        else:
            j -= 1
            if j < t_lo:
                break
            t_cost = t_costs[j]
    return best_weight, best_cost, inspected, best_i, best_j
