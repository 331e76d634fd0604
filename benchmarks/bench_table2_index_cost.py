"""Table 2 — tree and label index costs.

Paper columns: treewidth ω, treeheight η, average η, tree build time,
label build time, label size (NY: 148/330/269/120s/1533s/26.7GB, BAY:
100/238/193/41s/706s/22.6GB, COL: 143/423/276/756s/5419s/149GB).

Expected shape: label time dominates tree time (about 3× on NY and COL,
6× on BAY; the paper's ratios are 7-17×); BAY is by far the cheapest
despite its size (small treewidth and skyline sets); NY and COL cost
several times more.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import DATASETS, get_bundle, record_rows
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels


@pytest.mark.parametrize("name", DATASETS)
def test_table2_tree_build(benchmark, name):
    bundle = get_bundle(name)
    tree = benchmark.pedantic(
        build_tree_decomposition,
        args=(bundle.network,),
        kwargs={"store_paths": False},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["dataset"] = name
    benchmark.extra_info["treewidth"] = tree.treewidth
    benchmark.extra_info["treeheight"] = tree.treeheight
    assert tree.treewidth >= 2


@pytest.mark.parametrize("name", DATASETS)
def test_table2_label_build(benchmark, name):
    bundle = get_bundle(name)
    tree = build_tree_decomposition(bundle.network, store_paths=False)
    labels = benchmark.pedantic(
        build_labels,
        args=(tree,),
        kwargs={"store_paths": False},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["dataset"] = name
    benchmark.extra_info["label_entries"] = labels.num_entries()
    benchmark.extra_info["label_bytes"] = labels.size_bytes()

    record_rows(
        "table2.txt",
        f"{'name':>5} {'w':>5} {'h':>5} {'avg h':>7} {'tree s':>8} "
        f"{'label s':>8} {'label size':>12} {'max |P|':>8}",
        [
            f"{name:>5} {tree.treewidth:>5} {tree.treeheight:>5} "
            f"{tree.average_height:>7.1f} {tree.build_seconds:>8.2f} "
            f"{labels.build_seconds:>8.2f} "
            f"{labels.size_bytes() / 1024:>9.0f} KB "
            f"{labels.max_set_size():>8}"
        ],
    )
    assert labels.num_entries() > 0
