"""Empirical validation of the paper's lemmas (§3.3).

The pruning-safety integration tests already cover Theorem 1
end-to-end; these tests check the intermediate lemmas directly on real
networks, so a violation points at the exact broken step.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import skyline_between
from repro.core import compute_cub
from repro.core.separators import initial_separators
from repro.graph import random_connected_network
from repro.hierarchy import LCAIndex, build_tree_decomposition
from repro.labeling import build_labels
from repro.skyline import dominates, filter_under, skyline_of
from tests.skyline.oracles import cartesian_entries, join

pairs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=12,
)


def sky(ps):
    return skyline_of([(w, c, None) for w, c in ps])


@given(pairs, pairs, st.integers(min_value=1, max_value=70))
def test_lemma3_filtered_join_equivalence(a, b, theta):
    """{p1 ⊕ p2}^θ == {p1 ∈ P_su^θ ⊕ p2}^θ."""
    sa, sb = sky(a), sky(b)
    lhs = filter_under(
        sorted(cartesian_entries(sa, sb, 0), key=lambda e: (e[1], e[0])),
        theta,
    )
    rhs = filter_under(
        sorted(
            cartesian_entries(filter_under(sa, theta), sb, 0),
            key=lambda e: (e[1], e[0]),
        ),
        theta,
    )
    assert [(e[0], e[1]) for e in lhs] == [(e[0], e[1]) for e in rhs]


def _pruning_instances(seed, count=10):
    """Real (P_sh, P_su, P_uh, C_ub) tuples with C_ub > 0 from a built
    index, harvested by replaying Algorithm 7's choices."""
    g = random_connected_network(30, 25, seed=seed)
    tree = build_tree_decomposition(g)
    labels = build_labels(tree)
    lca = LCAIndex(tree)
    rng = random.Random(seed)
    instances = []
    attempts = 0
    while len(instances) < count and attempts < 400:
        attempts += 1
        s, t = rng.randrange(30), rng.randrange(30)
        if s == t:
            continue
        l, s_anc, t_anc = lca.relation(s, t)
        if s_anc or t_anc:
            continue
        _c_s, h_s, _c_t, _h_t = initial_separators(tree, l, s, t)
        if len(h_s) < 2:
            continue
        ordered = sorted(h_s, key=lambda h: labels.get(s, h)[0][1])
        for i in range(1, len(ordered)):
            h = ordered[i]
            u = ordered[rng.randrange(i)]
            cub = compute_cub(
                labels.get(s, h), labels.get(s, u), labels.get(u, h)
            )
            if cub > 0:
                instances.append(
                    (g, s, h, u, labels.get(s, h), labels.get(s, u),
                     labels.get(u, h), cub)
                )
    return instances


@pytest.mark.parametrize("seed", range(3))
def test_lemma4_set_domination(seed):
    """If h is pruned by u under θ, then P_su^θ ≺ P_sh^θ
    (Definition 5)."""
    for (_g, _s, _h, _u, p_sh, p_su, _p_uh, cub) in _pruning_instances(seed):
        theta = cub if cub != float("inf") else (
            p_sh[-1][1] + p_su[-1][1] + 10
        )
        sh_cut = filter_under(p_sh, theta)
        su_cut = filter_under(p_su, theta)
        # Condition 1: every member of P_sh^θ is dominated by some
        # member of P_su^θ.
        for p in sh_cut:
            assert any(dominates(q, p) for q in su_cut), (seed, p)
        # Condition 2: no member of P_su^θ is dominated by one of
        # P_sh^θ.
        for q in su_cut:
            assert not any(dominates(p, q) for p in sh_cut)


@pytest.mark.parametrize("seed", range(3))
def test_lemma8_minimum_cost_ordering(seed):
    """If h is pruned by u, the cheapest s-h path costs more than the
    cheapest s-u path.

    The lemma implicitly assumes *non-vacuous* pruning: when
    ``C_ub = c(p^(1)_sh)`` the subset condition holds because the
    filtered prefix is empty (no s-h path fits any smaller budget), and
    the cost ordering need not hold.  Algorithm 7's ordering heuristic
    merely skips some such vacuous opportunities, which costs nothing.
    """
    for (_g, _s, _h, _u, p_sh, p_su, _p_uh, cub) in _pruning_instances(
        seed
    ):
        if cub > p_sh[0][1]:  # the cheapest s-h path really is covered
            assert p_sh[0][1] > p_su[0][1]


@pytest.mark.parametrize("seed", range(3))
def test_theorem1_subset_condition_holds_at_cub(seed):
    """Replaying Algorithm 6's output: P_sh^θ ⊆ {P_su ⊗ P_uh}^θ for
    θ = C_ub (the largest valid θ)."""
    for (_g, _s, _h, u, p_sh, p_su, p_uh, cub) in _pruning_instances(seed):
        theta = cub if cub != float("inf") else p_sh[-1][1] + 1
        concatenations = {
            (e[0], e[1]) for e in cartesian_entries(p_su, p_uh, u)
        }
        for entry in filter_under(p_sh, theta):
            assert (entry[0], entry[1]) in concatenations


@pytest.mark.parametrize("seed", range(2))
def test_labels_vs_independent_skyline_engine(seed):
    """The separator-based join P_sh ⊗ P_ht must contain the true
    skyline P_st (the ⊆ of §2.3) for the LCA bag's hoplinks."""
    g = random_connected_network(25, 20, seed=seed)
    tree = build_tree_decomposition(g)
    labels = build_labels(tree)
    lca = LCAIndex(tree)
    rng = random.Random(seed)
    checked = 0
    while checked < 8:
        s, t = rng.randrange(25), rng.randrange(25)
        if s == t:
            continue
        l, s_anc, t_anc = lca.relation(s, t)
        if s_anc or t_anc:
            continue
        union = []
        for h in tree.bag_with_self(l):
            part = join(labels.get(s, h), labels.get(h, t), mid=h)
            union = skyline_of(union + part)
        truth = skyline_between(g, s, t)
        assert [(e[0], e[1]) for e in union] == [
            (e[0], e[1]) for e in truth
        ]
        checked += 1
