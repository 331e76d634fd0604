"""Skyline kernels as index arithmetic over flat label columns.

These are the hot-path twins of :func:`repro.skyline.set_ops.best_under`,
:func:`repro.core.concatenation.concat_best_under` and
:func:`repro.skyline.set_ops.join_union`, operating on the
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
from typing import Any, Callable, Sequence

from repro.skyline.entries import Entry
from repro.skyline.set_ops import sweep_by_cost

#: Either an ``array('d')`` or a ``memoryview`` cast to ``'d'``.
FloatColumn = Sequence[float]

_INF = float("inf")


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


def join_union_rows(
    weights: FloatColumn,
    costs: FloatColumn,
    parts: Sequence[tuple[int, int, int, int, Any]],
    entry: Callable[[int], Entry] | None,
) -> list[Entry]:
    """:func:`~repro.skyline.set_ops.join_union` over column slices.

    Each part ``(a_lo, a_hi, b_lo, b_hi, mid)`` is ``A ⊗_mid B`` with
    ``A`` and ``B`` the row slices ``[a_lo, a_hi)`` and ``[b_lo,
    b_hi)``.  The corners and the products formed are ``join_union``'s
    and the sweep is its :func:`~repro.skyline.set_ops.sweep_by_cost`,
    so the result is the one it returns over the materialised entries:
    the same ``(w, c)`` values, each from the same pair of rows.
    Products are ``(w, c, mid, i, j)`` rows until the sweep is done;
    only the survivors become entries, ``(w, c, mid, entry(i),
    entry(j))``, or ``(w, c, None)`` when ``entry`` is ``None`` (no
    provenance).

    It exists for the skyline cache's miss path: materialising every
    set of the separator as entries first made a miss about 2.4x
    slower on the benchmark-scale NY and COL indexes
    (``docs/performance.md``).
    """
    live: list[tuple[int, int, int, int, Any]] = []
    c0 = w0 = w1 = c1 = _INF
    for part in parts:
        a_lo, a_hi, b_lo, b_hi, _mid = part
        if a_lo >= a_hi or b_lo >= b_hi:
            continue
        live.append(part)
        lo_w = weights[a_lo] + weights[b_lo]
        lo_c = costs[a_lo] + costs[b_lo]
        hi_w = weights[a_hi - 1] + weights[b_hi - 1]
        hi_c = costs[a_hi - 1] + costs[b_hi - 1]
        if lo_c < c0 or (lo_c == c0 and lo_w < w0):
            c0, w0 = lo_c, lo_w
        if hi_w < w1 or (hi_w == w1 and hi_c < c1):
            w1, c1 = hi_w, hi_c
    if not live:
        return []

    products: list[tuple[float, float, Any, int, int]] = []
    append = products.append
    for a_lo, a_hi, b_lo, b_hi, mid in live:
        first_c = costs[b_lo]
        last_w = weights[b_hi - 1]
        if weights[a_hi - 1] + last_w > w0:
            continue  # even the part's lightest product is too heavy
        rows_b = range(b_lo, b_hi)
        for i in range(a_lo, a_hi):
            lc = costs[i]
            if lc + first_c > c1:
                break  # A is cost-sorted: every later row costs more
            lw = weights[i]
            if lw + last_w > w0:
                continue
            for j in rows_b:
                c = lc + costs[j]
                if c > c1:
                    break  # B is cost-sorted
                w = lw + weights[j]
                if w > w0:
                    continue
                append((w, c, mid, i, j))

    kept = sweep_by_cost(products)
    if entry is None:
        return [(w, c, None) for w, c, _mid, _i, _j in kept]
    return [(w, c, mid, entry(i), entry(j)) for w, c, mid, i, j in kept]
