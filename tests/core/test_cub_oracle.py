"""Algorithm 6's corner exits must reproduce the full-``P''`` scan exactly.

:func:`repro.core.pruning.compute_cub` decides most calls from two
corner sums and forms only the products inside ``P'``'s bounding box;
:func:`~repro.core.pruning.build_condition` fetches each
``P(v_end, h)`` once per separator.  The bodies they replaced are
kept here as the reference: the kernel must equal the reference on
random canonical sets, and a pruning index built with the reference
patched back in must match the real one in every condition, in
``algorithm6_calls`` and in ``cache_hits`` (so the RNG draws line up).
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_pruning_index, pruning
from repro.core.engine import random_index_queries
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.hierarchy import LCAIndex, build_tree_decomposition
from repro.labeling import build_labels
from repro.skyline import skyline_of
from repro.skyline.compare import pairs_equal

INF = float("inf")


def reference_compute_cub(p_prime, p_vu, p_uh, mid):
    """Algorithm 6 with the full concatenation set ``P''``."""
    p_second = [
        (left[0] + right[0], left[1] + right[1])
        for left in p_vu
        for right in p_uh
    ]
    p_second.sort(key=itemgetter(1, 0))
    j = 0
    m = len(p_second)
    for entry in p_prime:
        while j < m:
            if pairs_equal(p_second[j], entry):
                break
            j += 1
        if j == m:
            return entry[1]
    return INF


def reference_build_condition(labels, separator, v_end, rng, index, pair_cache):
    """Algorithm 7 with a label lookup per use."""
    ordered = sorted(separator, key=lambda h: labels.get(v_end, h)[0][1])
    separator_set = set(separator)
    bounds = {}
    for i in range(1, len(ordered)):
        h = ordered[i]
        cached = pair_cache.get((v_end, h))
        if cached is not None and cached[0] in separator_set:
            index.cache_hits += 1
            bounds[h] = cached[1]
            continue
        u = ordered[rng.randrange(i)]
        cub = reference_compute_cub(
            labels.get(v_end, h),
            labels.get(v_end, u),
            labels.get(u, h),
            mid=u,
        )
        index.algorithm6_calls += 1
        if cub > 0:
            bounds[h] = cub
            pair_cache[(v_end, h)] = (u, cub)
    return bounds


@pytest.fixture
def reference_cub(monkeypatch):
    """Patch the full-``P''`` Algorithm 6 and 7 back in."""
    monkeypatch.setattr(pruning, "compute_cub", reference_compute_cub)
    monkeypatch.setattr(pruning, "build_condition", reference_build_condition)
    return monkeypatch


# ----------------------------------------------------------------------
# The kernel against the reference on random canonical sets
# ----------------------------------------------------------------------
INTS = st.integers(min_value=1, max_value=12)
#: Floats whose sums round: 0.1 + 0.2 != 0.3, yet both appear.
FLOATS = st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.1, 2.5, 3.0])


def canonical(raw):
    return skyline_of([(w, c, None) for w, c in raw])


@st.composite
def cub_inputs(draw):
    value = draw(st.sampled_from([INTS, FLOATS]))
    pair = st.tuples(value, value)
    p_vu = canonical(draw(st.lists(pair, max_size=6)))
    p_uh = canonical(draw(st.lists(pair, max_size=6)))
    products = [
        (a[0] + b[0], a[1] + b[1]) for a in p_vu for b in p_uh
    ]
    # P' mixes products (members of P'') with outsiders, so prefixes of
    # every length match, including (w, c) ties among the products.
    kept = [p for p in products if draw(st.booleans())]
    extra = draw(st.lists(pair, max_size=4))
    p_prime = canonical(kept + extra)
    return p_prime, p_vu, p_uh


@settings(max_examples=500)
@given(cub_inputs())
def test_compute_cub_equals_full_scan(inputs):
    p_prime, p_vu, p_uh = inputs
    got = pruning.compute_cub(p_prime, p_vu, p_uh)
    want = reference_compute_cub(p_prime, p_vu, p_uh, mid=0)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("empty", ["p_prime", "p_vu", "p_uh", "all"])
def test_compute_cub_empty_sets(empty):
    sets = {
        "p_prime": canonical([(5, 4), (3, 6)]),
        "p_vu": canonical([(2, 1), (1, 3)]),
        "p_uh": canonical([(3, 3), (2, 5)]),
    }
    for name in sets:
        if empty in (name, "all"):
            sets[name] = []
    assert pruning.compute_cub(**sets) == reference_compute_cub(
        mid=0, **sets
    )


def test_float_sum_is_not_its_rounded_twin():
    # 0.1 + 0.2 is 0.30000000000000004, so (0.3, 0.3) is missing.
    p_prime = canonical([(0.3, 0.3)])
    p_vu = canonical([(0.1, 0.1)])
    p_uh = canonical([(0.2, 0.2)])
    assert pruning.compute_cub(p_prime, p_vu, p_uh) == 0.3
    p_prime = canonical([(0.1 + 0.2, 0.1 + 0.2)])
    assert pruning.compute_cub(p_prime, p_vu, p_uh) == INF


# ----------------------------------------------------------------------
# Whole pruning indexes against the reference
# ----------------------------------------------------------------------
def _snapshot(index):
    return (
        [
            (child, v_end, list(bounds.items()))
            for child, v_end, bounds in index.items()
        ],
        index.algorithm6_calls,
        index.cache_hits,
    )


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("dataset", ["NY", "BAY", "COL"])
def test_pruning_index_matches_reference(dataset, store_paths, reference_cub):
    network = load_dataset(dataset, "small").network
    tree = build_tree_decomposition(network, store_paths=store_paths)
    labels = build_labels(tree, store_paths=store_paths)
    lca = LCAIndex(tree)
    queries = random_index_queries(network, 2000, seed=303)
    want = _snapshot(build_pruning_index(tree, labels, lca, queries, seed=303))
    reference_cub.undo()
    got = _snapshot(build_pruning_index(tree, labels, lca, queries, seed=303))
    assert got == want
    assert want[1] > 0


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
def test_repaired_pruning_matches_reference(store_paths, reference_cub):
    network = load_dataset("NY", "small").network
    rng = random.Random(7)
    edges = list(network.edges())
    deltas = [
        (i, edges[i][2] * rng.choice([0.5, 2, 3]), edges[i][3] + 1)
        for i in rng.sample(range(len(edges)), 5)
    ]

    def repaired():
        dyn = DynamicQHLIndex.build(
            network, num_index_queries=500, store_paths=store_paths, seed=1
        )
        report = dyn.apply_deltas(deltas)
        assert report.pruning_rebuilt
        return _snapshot(dyn.index.pruning)

    want = repaired()
    reference_cub.undo()
    assert repaired() == want



@pytest.mark.parametrize("dataset", ["NY", "BAY", "COL"])
def test_column_reads_match_entry_reads(dataset):
    """Algorithms 6 and 7 over flat columns (every static build) give
    the conditions, ``algorithm6_calls`` and ``cache_hits`` they give
    over object labels."""
    from repro.labeling.builder import build_label_columns

    network = load_dataset(dataset, "small").network
    tree = build_tree_decomposition(network, store_paths=False)
    lca = LCAIndex(tree)
    queries = random_index_queries(network, 2000, seed=303)
    objects = build_labels(tree, store_paths=False)
    columns = build_label_columns(tree, store_paths=False)
    want = build_pruning_index(tree, objects, lca, queries, seed=303)
    got = build_pruning_index(tree, columns, lca, queries, seed=303)
    assert _snapshot(got) == _snapshot(want)
    assert got.bounds.tobytes() == want.bounds.tobytes()
