"""The paper's running example, end to end, in narrative order.

Every numbered Example in the paper (1-17) that makes a checkable claim
is asserted here against the reconstructed Figure 1 network — one file
a reader can step through next to the paper.
"""

import pytest

from repro.baselines import CSP2HopEngine, skyline_between
from repro.core import QHLEngine, QHLIndex, compute_cub
from repro.datasets import paper_figure1_network, v
from repro.hierarchy import (
    LCAIndex,
    build_tree_decomposition,
    is_separator,
)
from repro.labeling import build_labels
from repro.skyline import dominates, path_of_pairs
from repro.types import CSPQuery


@pytest.fixture(scope="module")
def world():
    network = paper_figure1_network()
    tree = build_tree_decomposition(network)
    labels = build_labels(tree)
    lca = LCAIndex(tree)
    index = QHLIndex.build(
        network, index_queries=[CSPQuery(v(8), v(4), 13)], seed=0
    )
    return network, tree, labels, lca, index


def test_example1_edge_metrics(world):
    """w((v8, v3)) = 2 and c((v8, v3)) = 4."""
    network, *_ = world
    assert network.edge_metrics(v(8), v(3)) == [(2, 4)]


def test_example2_csp_answer(world):
    """Query (v8, v4, C=13) → (17, 13) via (v8,v2,v9,v10,v5,v4)."""
    _n, _t, _l, _lca, index = world
    result = index.query(v(8), v(4), 13, want_path=True)
    assert result.pair() == (17, 13)
    assert result.path == [v(8), v(2), v(9), v(10), v(5), v(4)]


def test_example3_path_domination(world):
    """(v8,v3,v9) = (8,7) dominates (v8,v1,v13,v11,v10,v9) = (14,18)."""
    network, *_ = world
    a = network.path_metrics([v(8), v(3), v(9)])
    b = network.path_metrics([v(8), v(1), v(13), v(11), v(10), v(9)])
    assert a == (8, 7)
    assert b == (14, 18)
    assert dominates(a, b)


def test_example4_skyline_set(world):
    """P_v8v9 = {(8,7) via v3, (7,8) via v2}."""
    network, *_ = world
    assert path_of_pairs(skyline_between(network, v(8), v(9))) == [
        (8, 7), (7, 8)
    ]


def test_example5_skyline_answers_all_budgets(world):
    """P_v8v4 = {(18,12), (17,13), (16,18)}; the answer is the largest
    cost within C."""
    network, _t, _l, _lca, index = world
    assert path_of_pairs(skyline_between(network, v(8), v(4))) == [
        (18, 12), (17, 13), (16, 18)
    ]
    assert index.query(v(8), v(4), 13).pair() == (17, 13)


def test_example6_tree_decomposition(world):
    """v1 eliminated first; X(v1) = {v1, v8, v13}; parent X(v8)."""
    _n, tree, *_ = world
    assert tree.order[0] == v(1)
    assert set(tree.bag_with_self(v(1))) == {v(1), v(8), v(13)}
    assert tree.parent[v(1)] == v(8)


def test_example7_separator(world):
    """{v10, v13} separates v8 from v4."""
    network, *_ = world
    assert is_separator(network, v(8), v(4), {v(10), v(13)})


def test_example8_lca_bag_is_separator(world):
    """X(v10) = {v10,v11,v12,v13} is the LCA bag and a separator."""
    network, tree, _l, lca, _i = world
    assert lca.query(v(8), v(4)) == v(10)
    bag = set(tree.bag_with_self(v(10)))
    assert bag == {v(10), v(11), v(12), v(13)}
    assert is_separator(network, v(8), v(4), bag)


def test_example9_property1(world):
    """X(v11), X(v12), X(v13) are ancestors of X(v10)."""
    _n, tree, *_ = world
    ancestors = set(tree.ancestors(v(10)))
    assert {v(11), v(12), v(13)}.issubset(ancestors)


def test_example10_csp2hop_concatenations(world):
    """CSP-2Hop scans all four hoplinks' Cartesian products.

    (The paper says 16; its own stated sets force |P_v8v12| = 3, so the
    faithful count is 17 — see EXPERIMENTS.md.)
    """
    _n, tree, labels, _lca, _i = world
    engine = CSP2HopEngine(tree, labels)
    result = engine.query(v(8), v(4), 13)
    assert result.stats.hoplinks == 4
    assert result.stats.concatenations == 17


def test_example11_initial_separators(world):
    """H(s) = X(v9)\\{v9} = {v10, v13}; H(t) = X(v5)\\{v5} = {v10, v12}."""
    from repro.core import initial_separators

    _n, tree, _l, lca, _i = world
    c_s, h_s, c_t, h_t = initial_separators(
        tree, lca.query(v(8), v(4)), v(8), v(4)
    )
    assert (c_s, set(h_s)) == (v(9), {v(10), v(13)})
    assert (c_t, set(h_t)) == (v(5), {v(10), v(12)})


def test_example12_pruning_condition(world):
    """Condition for H = {v10, v13}, v_end = v8: C_ub[v13] = 14,
    C_ub[v10] = 0; with C = 13 < 14, v13 is pruned."""
    _n, _t, _l, _lca, index = world
    bounds = index.pruning.lookup(v(9), v(8))
    assert bounds == {v(13): 14}
    pruned = index.pruning.prune(v(9), v(8), (v(10), v(13)), budget=13)
    assert pruned == (v(10),)


def test_example13_candidate_separators(world):
    """H = {{v10}, {v10, v12}}: the pruned H(s) plus H(t)."""
    _n, _t, _l, _lca, index = world
    result = index.query(v(8), v(4), 13)
    # Hoplink selection picked the singleton {v10} (T = 4 < T(H(t))).
    assert result.stats.hoplinks == 1


def test_example14_theta_range(world):
    """v13 pruned by v10 under any θ ∈ (13, 14]: the sets line up."""
    _n, _t, labels, *_ = world
    p_sh = path_of_pairs(labels.get(v(8), v(13)))
    p_su = path_of_pairs(labels.get(v(8), v(10)))
    p_uh = path_of_pairs(labels.get(v(10), v(13)))
    assert p_sh == [(12, 11), (11, 12), (10, 14)]
    assert p_su == [(9, 8), (8, 9)]
    assert p_uh == [(3, 3)]
    concatenated = sorted(
        (w1 + w2, c1 + c2) for w1, c1 in p_su for w2, c2 in p_uh
    )
    assert concatenated == [(11, 12), (12, 11)]


def test_example15_two_pointer_walkthrough(world):
    """Three concatenations suffice for hoplink v10, yielding (17, 13)."""
    from repro.core import concat_best_under

    _n, _t, labels, *_ = world
    best, inspected = concat_best_under(
        labels.get(v(8), v(10)), labels.get(v(10), v(4)), budget=13
    )
    assert best[:2] == (17, 13)
    assert inspected == 3


def test_example16_algorithm6(world):
    """Algorithm 6 on (v_end=v8, h=v13, u=v10) returns C_ub = 14."""
    _n, _t, labels, *_ = world
    cub = compute_cub(
        labels.get(v(8), v(13)),
        labels.get(v(8), v(10)),
        labels.get(v(10), v(13)),
    )
    assert cub == 14


def test_example17_algorithm7_ordering(world):
    """Sorting {v10, v13} by cheapest cost gives h(1)=v10, h(2)=v13,
    and the built condition sets C_ub[v13] = 14."""
    import random

    from repro.core import PruningConditionIndex, build_condition

    _n, _t, labels, *_ = world
    ordered = sorted(
        (v(10), v(13)), key=lambda h: labels.get(v(8), h)[0][1]
    )
    assert ordered == [v(10), v(13)]
    bounds = build_condition(
        labels, (v(10), v(13)), v(8), random.Random(0),
        PruningConditionIndex(), {},
    )
    assert bounds == {v(13): 14}


def test_qhl_three_concatenations_claim(world):
    """§2.3: 'our proposed QHL only needs to do 3 concatenations'
    (Algorithm 5's count, so the object sweep)."""
    _n, _t, _l, _lca, index = world
    engine = QHLEngine(index.tree, index.labels, index.lca, index.pruning)
    result = engine.query(v(8), v(4), 13)
    assert result.stats.concatenations == 3
