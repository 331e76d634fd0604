"""Sanctioned weight/cost comparison helpers for skyline code.

Skyline canonicality and dominance (paper Definitions 4-6) hinge on
comparing weight/cost values, and the exactness guarantee hinges on
those comparisons being *consistent everywhere*.  On the paper's road
networks the metrics are integers and plain ``==`` is exact; but the
engines accept float metrics too, and an ad-hoc ``==`` scattered
through a hot loop is exactly where a future "almost equal after ten
additions" bug would hide (the Forest-Hop-Labeling line of MCSP work
shows how easily dominance invariants drift).

Policy therefore lives in one place: these helpers are the *only*
sanctioned equality comparisons on weight/cost values in
``repro.skyline`` and ``repro.core`` — lint rule **QHL006**
(``repro.lint``) flags every other ``==`` / ``!=`` on weight/cost
operands in those packages.  Today the helpers compare exactly
(deliberately: an epsilon would *break* exactness on integer metrics by
merging distinct skyline entries); if accumulated-float metrics ever
need tolerance-aware handling, this module is the single switch point.
Because the helpers compare exactly, a raw ``==`` answers the same and
no test can tell the two apart: the rule alone keeps the switch point
single.
"""

from __future__ import annotations

from typing import Sequence


def weights_equal(a: float, b: float) -> bool:
    """Whether two path weights are equal under the comparison policy."""
    return a == b


def costs_equal(a: float, b: float) -> bool:
    """Whether two path costs are equal under the comparison policy."""
    return a == b


def pairs_equal(
    a: Sequence[float], b: Sequence[float]
) -> bool:
    """Whether two ``(weight, cost)`` pairs are equal component-wise.

    The membership test of paper Algorithm 6 (is this skyline path
    present in the concatenation set ``P''``?) reduces to this.
    """
    return a[0] == b[0] and a[1] == b[1]
