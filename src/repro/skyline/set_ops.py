"""Operations on skyline path sets (paper §2.2).

A *skyline set* is the canonical representation of ``P_st``: a list of
entries sorted by strictly increasing cost and therefore strictly
decreasing weight, with no entry dominated by another (Definitions 4-6).
One representative is kept per ``(w, c)`` pair — the paper's queries only
ever need one optimal path per pair.

This module is the hot kernel of the whole reproduction: the tree
decomposition's shortcut maintenance and the label construction reduce
to :func:`join_union` calls.  The pairwise ``merge`` / ``join`` fold it
replaced lives on in the test oracles, which pin the kernel against it.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterable, Sequence

from repro.skyline.compare import costs_equal
from repro.skyline.entries import Entry

SkylineSet = list[Entry]

JoinPart = tuple[Sequence[Entry], Sequence[Entry] | None, int]
"""``(a, b, mid)``: the part ``a ⊗_mid b`` of a :func:`join_union`, or
``a`` itself when ``b`` is ``None``."""

_COST = itemgetter(1)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether path pair ``a`` dominates ``b`` (Definition 4).

    ``a ≺ b`` iff a is at least as good on both metrics and strictly
    better on one.
    """
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def is_canonical(entries: Sequence[Entry]) -> bool:
    """Whether a list is a canonical skyline set.

    Canonical means: sorted by strictly increasing cost and strictly
    decreasing weight.  (Those two conditions already imply
    dominance-freeness.)
    """
    for prev, cur in zip(entries, entries[1:], strict=False):
        if not (prev[1] < cur[1] and prev[0] > cur[0]):
            return False
    return True


def skyline_of(entries: Iterable[Entry]) -> SkylineSet:
    """The canonical skyline of an arbitrary collection of entries.

    Sorts by ``(cost, weight)`` and keeps each entry whose weight strictly
    improves on everything cheaper — the classic 2-D Pareto sweep.
    """
    result: SkylineSet = []
    best_weight: float | None = None
    last_cost: float | None = None
    for entry in sorted(entries, key=lambda e: (e[1], e[0])):
        w, c = entry[0], entry[1]
        if best_weight is not None and w >= best_weight:
            continue
        if last_cost is not None and costs_equal(c, last_cost):
            # Same cost, smaller weight: replace the previous entry.
            result[-1] = entry
        else:
            result.append(entry)
        best_weight = w
        last_cost = c
    return result


def join_union(parts: Iterable[JoinPart]) -> SkylineSet:
    """Skyline of the union of ``a ⊗_mid b`` over ``(a, b, mid)`` parts.

    The one-pass form of the fold ``acc = merge(acc, join(a, b, mid))``
    that builds every shortcut and label set (Algorithm 1 line 6 and the
    label recurrence).  A part whose ``b`` is ``None`` contributes ``a``
    itself.  Every ``a`` and ``b`` must be a canonical skyline set.

    Two corners bound the union before any product is formed: the
    cheapest corner ``a[0] ⊗ b[0]`` with the least ``(cost, weight)``,
    ``(c0, w0)``, and the lightest corner ``a[-1] ⊗ b[-1]`` with the
    least ``(weight, cost)``, ``(w1, c1)``.  No product costs less than
    ``c0`` or weighs less than ``w1``, so a product with weight
    ``> w0`` or cost ``> c1`` is strictly dominated by a corner and is
    never formed, and a part whose own light corner is too heavy is
    passed over whole.  The rest goes through :func:`sweep_by_cost`.

    Ties on ``(w, c)`` keep the first product in part order, left-major
    within a part — the representative the fold keeps (``merge``
    prefers its left operand, ``skyline_of`` the first of equal keys),
    so provenance, not only the ``(w, c)`` values, matches the fold.
    """
    live: list[JoinPart] = []
    c0 = w0 = w1 = c1 = float("inf")
    for part in parts:
        a, b, _mid = part
        if not a or (b is not None and not b):
            continue
        live.append(part)
        first, last = a[0], a[-1]
        if b is None:
            lo_w, lo_c = first[0], first[1]
            hi_w, hi_c = last[0], last[1]
        else:
            b_first, b_last = b[0], b[-1]
            lo_w, lo_c = first[0] + b_first[0], first[1] + b_first[1]
            hi_w, hi_c = last[0] + b_last[0], last[1] + b_last[1]
        if lo_c < c0 or (lo_c == c0 and lo_w < w0):
            c0, w0 = lo_c, lo_w
        if hi_w < w1 or (hi_w == w1 and hi_c < c1):
            w1, c1 = hi_w, hi_c
    if not live:
        return []

    products: list[Entry] = []
    append = products.append
    for a, b, mid in live:
        if b is None:
            products.extend(e for e in a if e[0] <= w0 and e[1] <= c1)
            continue
        first_c = b[0][1]
        last_w = b[-1][0]
        if a[-1][0] + last_w > w0:
            continue  # even the part's lightest product is too heavy
        for left in a:
            lw, lc, lp = left[0], left[1], left[2]
            if lc + first_c > c1:
                break  # a is cost-sorted: every later left costs more
            if lw + last_w > w0:
                continue
            for right in b:
                c = lc + right[1]
                if c > c1:
                    break  # b is cost-sorted
                w = lw + right[0]
                if w > w0:
                    continue
                # Provenance inline: one tuple per product, a join only
                # when both children carry provenance.
                if lp is not None and right[2] is not None:
                    append((w, c, mid, left, right))
                else:
                    append((w, c, None))

    # Shortcut and label sets live as long as the index: hand back an
    # exact-size list rather than the append-grown one.
    return list(sweep_by_cost(products))


def sweep_by_cost(products: list) -> list:
    """The skyline of the non-empty ``(w, c, ...)`` tuples
    ``products``, which it sorts in place.

    One stable sort by cost alone (a float key, no tuple per product)
    and one sweep; within a run of equal costs the sweep keeps the
    lightest product, replacing the one it kept for that cost, which is
    what a ``(cost, weight)`` sort would have put first.  Of equal
    ``(w, c)`` products the first in list order is kept.
    """
    products.sort(key=_COST)
    it = iter(products)
    head = next(it)
    kept = [head]
    best, last_c = head[0], head[1]
    for product in it:
        w = product[0]
        if w < best:
            best = w
            c = product[1]
            if c == last_c:  # lighter at the same cost: it replaces
                kept[-1] = product
            else:
                kept.append(product)
                last_c = c
    return kept


def filter_under(entries: Sequence[Entry], theta: float) -> SkylineSet:
    """``P^θ = {p ∈ P : c(p) < θ}`` (strict, as defined before Theorem 1)."""
    keys = [e[1] for e in entries]
    cut = bisect.bisect_left(keys, theta)
    return list(entries[:cut])


def best_under(entries: Sequence[Entry], budget: float) -> Entry | None:
    """The minimum-weight entry with ``cost <= budget``.

    On a canonical skyline set this is simply the *last* entry within
    budget (larger cost ⇒ smaller weight), found by binary search — this
    is the paper's observation in §2.2 used for the ancestor-descendant
    query case.
    """
    keys = [e[1] for e in entries]
    idx = bisect.bisect_right(keys, budget) - 1
    if idx < 0:
        return None
    return entries[idx]


def dominated_by_set(entry: Entry, entries: Sequence[Entry]) -> bool:
    """Whether some member of a canonical set dominates ``entry``."""
    keys = [e[1] for e in entries]
    idx = bisect.bisect_right(keys, entry[1]) - 1
    if idx < 0:
        return False
    candidate = entries[idx]
    return dominates(candidate, entry)

