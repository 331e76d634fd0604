"""Property-based tests (hypothesis) for the skyline algebra.

These invariants are what the whole index build rests on, so they get the
heaviest fuzzing in the suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skyline import (
    best_under,
    dominates,
    filter_under,
    is_canonical,
    join_union,
    path_of_pairs,
    skyline_of,
)

from repro.skyline.entries import EDGE, ROW
from repro.skyline.flat_ops import join_union_rows
from tests.skyline.oracles import join, merge

pair = st.tuples(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
)
pairs = st.lists(pair, min_size=0, max_size=30)


def entries(ps):
    return [(w, c, None) for w, c in ps]


@given(pairs)
def test_skyline_is_canonical(ps):
    assert is_canonical(skyline_of(entries(ps)))


@given(pairs)
def test_skyline_members_come_from_input(ps):
    sky = set(path_of_pairs(skyline_of(entries(ps))))
    assert sky.issubset(set(ps))


@given(pairs)
def test_skyline_contains_every_undominated_pair(ps):
    sky = set(path_of_pairs(skyline_of(entries(ps))))
    for p in ps:
        if not any(dominates(q, p) for q in ps):
            assert p in sky


@given(pairs)
def test_skyline_dominates_all_input(ps):
    sky = path_of_pairs(skyline_of(entries(ps)))
    for p in ps:
        assert any(q == p or dominates(q, p) for q in sky)


@given(pairs)
def test_skyline_idempotent(ps):
    once = skyline_of(entries(ps))
    assert skyline_of(once) == once


@given(pairs, pairs)
def test_merge_equals_skyline_of_union(a, b):
    sa, sb = skyline_of(entries(a)), skyline_of(entries(b))
    assert merge(sa, sb) == skyline_of(sa + sb)


@given(pairs, pairs)
def test_merge_commutative(a, b):
    sa, sb = skyline_of(entries(a)), skyline_of(entries(b))
    assert path_of_pairs(merge(sa, sb)) == path_of_pairs(merge(sb, sa))


@given(pairs, pairs)
def test_join_is_skyline_of_all_sums(a, b):
    sa, sb = skyline_of(entries(a)), skyline_of(entries(b))
    got = path_of_pairs(join(sa, sb, mid=0))
    sums = [(x[0] + y[0], x[1] + y[1]) for x in sa for y in sb]
    assert got == path_of_pairs(skyline_of(entries(sums)))


@given(pairs, pairs, st.integers(min_value=1, max_value=100))
def test_join_budget_only_removes_over_budget(a, b, budget):
    sa, sb = skyline_of(entries(a)), skyline_of(entries(b))
    budgeted = path_of_pairs(join(sa, sb, mid=0, budget=budget))
    full = path_of_pairs(join(sa, sb, mid=0))
    feasible_full = [p for p in full if p[1] <= budget]
    # Everything the budgeted join returns is feasible, and every
    # feasible member of the full join survives (skyline of a subset can
    # only gain members, never lose feasible ones).
    assert all(p[1] <= budget for p in budgeted)
    assert set(feasible_full).issubset(set(budgeted))


@given(pairs, st.integers(min_value=1, max_value=60))
def test_filter_under_strictness(ps, theta):
    sky = skyline_of(entries(ps))
    kept = filter_under(sky, theta)
    assert all(e[1] < theta for e in kept)
    assert [e for e in sky if e[1] < theta] == kept


@given(pairs, st.integers(min_value=0, max_value=120))
def test_best_under_is_min_weight_feasible(ps, budget):
    sky = skyline_of(entries(ps))
    got = best_under(sky, budget)
    feasible = [e for e in sky if e[1] <= budget]
    if not feasible:
        assert got is None
    else:
        assert got[0] == min(e[0] for e in feasible)


# ----------------------------------------------------------------------
# join_union: the one-pass form of the union-of-joins fold
# ----------------------------------------------------------------------
# Small ranges make (w, c) ties across and within parts common; the
# floats make sums round (0.1 + 0.2 != 0.3).
metric = st.one_of(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.5, 2.25]),
)
raw_set = st.lists(st.tuples(metric, metric, st.booleans()), max_size=8)
join_parts = st.lists(
    st.tuples(raw_set, st.none() | raw_set, st.integers(0, 5)),
    max_size=6,
)


def fold_union(parts):
    """The fold join_union replaces: acc = merge(acc, join(a, b, mid))."""
    acc = []
    for a, b, mid in parts:
        part = a if b is None else join(a, b, mid=mid)
        acc = merge(acc, part) if acc else list(part)
    return acc


@settings(max_examples=300)
@given(join_parts)
def test_join_union_equals_merge_join_fold(raw_parts):
    leaves = []

    def canonical(raw):
        # Provenance-less entries ride along wherever with_prov is False.
        made = [
            (w, c, EDGE, len(leaves) + i, 0) if with_prov else (w, c, None)
            for i, (w, c, with_prov) in enumerate(raw)
        ]
        sky = skyline_of(made)
        leaves.extend(sky)
        return sky

    parts = [
        (canonical(a), None if b is None else canonical(b), mid)
        for a, b, mid in raw_parts
    ]
    got = join_union(parts)
    want = fold_union(parts)
    assert path_of_pairs(got) == path_of_pairs(want)
    leaf_ids = {id(e) for e in leaves}
    for g, w in zip(got, want):
        if id(w) in leaf_ids:
            assert g is w
            continue
        assert id(g) not in leaf_ids
        if w[2] is None:
            assert g == (w[0], w[1], None)
        else:
            # Both are joins at the same junction over the same children.
            assert len(g) == len(w) == 5
            assert type(g[2]) is type(w[2]) is int and g[2] == w[2]
            assert g[3] is w[3] and g[4] is w[4]


@settings(max_examples=300)
@given(
    st.lists(st.tuples(raw_set, raw_set, st.integers(0, 5)), max_size=6),
    st.booleans(),
)
def test_join_union_rows_equals_join_union(raw_parts, with_prov):
    """The column kernel returns what join_union returns over the
    materialised entries of the same rows, provenance included."""
    weights, costs, parts, materialised = [], [], [], []

    def entry(i):
        return (weights[i], costs[i], ROW, None, i)

    def rows(raw):
        sky = skyline_of([(w, c, None) for w, c, _flag in raw])
        lo = len(weights)
        weights.extend(e[0] for e in sky)
        costs.extend(e[1] for e in sky)
        return lo, len(weights)

    for a, b, mid in raw_parts:
        (a_lo, a_hi), (b_lo, b_hi) = rows(a), rows(b)
        parts.append((a_lo, a_hi, b_lo, b_hi, mid))
    for a_lo, a_hi, b_lo, b_hi, mid in parts:
        made = (entry if with_prov else lambda i: (weights[i], costs[i], None))
        materialised.append((
            [made(i) for i in range(a_lo, a_hi)],
            [made(i) for i in range(b_lo, b_hi)],
            mid,
        ))
    got = join_union_rows(
        weights, costs, parts, entry if with_prov else None
    )
    assert got == join_union(materialised)
