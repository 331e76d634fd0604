"""Memory-sharing smoke test: mmap-loaded flat index vs object graph.

The point of the version-4 flat envelope is not just fast loading — it
is that the label columns live in *file-backed, read-only pages*, so a
fork-based worker pool shares one physical copy across the supervisor
and every worker.  A pickled object graph cannot share: the first
refcount write in a child copies the page under it, so ``N`` workers
hold ``N + 1`` copies of every label tuple.

Each scenario runs in its own subprocess (clean RSS baseline):

* **object** — the object-graph index built in the scenario's own
  process (the dynamic build; no saved format holds an object graph),
  then a supervised ``execute_batch`` with forked workers;
* **flat** — ``load_flat_index`` (version-4 mmap), same batch through
  the flat engine.

The scenario reports its own peak RSS plus the largest worker peak
(``getrusage`` of SELF and CHILDREN).  ``--check`` asserts the flat
total stays below the object-graph total — the CI memory-sharing gate.

A third scenario, **save**, builds the grid index with object labels
and ``store_paths=True`` and measures the ``tracemalloc`` peak of
``save_index`` against the column bytes of the file it writes.
``--check`` asserts a ratio of at most :data:`SAVE_PEAK_RATIO`: the
packer holds one label chain and the columns are written as views, so
a save costs about the file's columns, not several copies of them.

A fourth scenario, **objects**, measures the ``tracemalloc`` live bytes
of the grid's tree decomposition plus labels built with
``store_paths=True`` and with ``store_paths=False``.  ``--check`` asserts
their ratio is at most :data:`OBJECT_PATHS_RATIO`: provenance sits
inline in each entry tuple, so paths cost a few slots per entry, not a
second tuple per entry.

A fifth scenario, **load**, measures the ``tracemalloc`` live bytes that
``load_flat_index`` leaves behind for the grid file, per vertex.
``--check`` asserts at most :data:`LOAD_LIVE_PER_VERTEX` bytes: the
label and pruning-condition columns stay in the map, so what a load
allocates is the network, the tree and the LCA index, not a Python
object per condition.

A sixth scenario, **resident**, loads the grid file written with paths
(checksum verified) and sums the ``Rss:`` lines of its mapping in
``/proc/self/smaps``.  ``--check`` asserts at most the file's metadata
bytes plus :data:`RESIDENT_SLACK`: the load hashes the file with reads,
not through the map, so pages come in only as queries read them.  On a
host without ``/proc/self/smaps`` (not Linux) the scenario is skipped
and says why.

A seventh scenario, **pruning**, measures the ``tracemalloc`` peak of
``build_pruning_index`` on the grid minus what the built index retains,
per condition.  ``--check`` asserts at most
:data:`PRUNING_TRANSIENT_PER_CONDITION` bytes: each condition's row goes
into one scratch column as soon as Algorithm 7 returns, and the pair
cache has int keys, so no per-condition dict or key tuple piles up.

Runnable standalone (``python benchmarks/bench_flat_memory.py
[--check]``); knobs: ``REPRO_BENCH_MEM_QUERIES`` (default 300) and
``REPRO_BENCH_MEM_GRID`` (default 24, the grid side length).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile

GRID_SIDE = int(os.environ.get("REPRO_BENCH_MEM_GRID", "24"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_MEM_QUERIES", "300"))
WORKERS = 2
SEED = 5

#: Upper bound on save peak / written column bytes (``--check``).
SAVE_PEAK_RATIO = 2.5
#: Upper bound on object tree-plus-labels bytes with paths / without
#: (``--check``).
OBJECT_PATHS_RATIO = 1.3
#: Upper bound on the live bytes a load leaves behind, per vertex
#: (``--check``).
LOAD_LIVE_PER_VERTEX = 2048
#: Upper bound on the mapping's resident bytes after a verified load,
#: beyond the metadata bytes (``--check``).
RESIDENT_SLACK = 64 * 1024
#: Upper bound on the pruning build's transient bytes (tracemalloc peak
#: minus retained), per condition (``--check``).  24×24 grid: 1,484,
#: and 2,885 with a ``{h: ub}`` dict per condition and tuple cache keys.
PRUNING_TRANSIENT_PER_CONDITION = 1800

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_TXT = "flat_memory.txt"


def _build_index(store_paths: bool = False):
    """The grid index with object labels: the dynamic build keeps them
    (a plain build freezes its labels into columns)."""
    from repro.dynamic import DynamicQHLIndex
    from repro.graph import grid_network

    network = grid_network(GRID_SIDE, GRID_SIDE, seed=SEED)
    return DynamicQHLIndex.build(
        network, num_index_queries=100, store_paths=store_paths, seed=SEED
    ).index


def _build_file(tmpdir: str) -> str:
    """Build the index and save it; returns the flat file's path."""
    from repro.storage import save_flat_index

    flat_path = os.path.join(tmpdir, "index.qflat")
    save_flat_index(_build_index(), flat_path)
    return flat_path


def _scenario(mode: str, path: str) -> None:
    """Child-process entry: build or load, run a supervised batch,
    report RSS."""
    if mode == "object":
        index = _build_index()
    else:
        from repro.storage import load_flat_index

        index = load_flat_index(path)
    engine = index.qhl_engine()

    import random

    from repro.perf.batch import execute_batch

    rng = random.Random(SEED)
    n = index.network.num_vertices
    queries = [
        (rng.randrange(n), rng.randrange(n), float(10 * GRID_SIDE))
        for _ in range(NUM_QUERIES)
    ]
    report = execute_batch(engine, queries, workers=WORKERS)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "mode": mode,
        "answered": report.answered,
        "failed": report.failed,
        "self_peak_kb": self_kb,
        "worker_peak_kb": child_kb,
        "total_peak_kb": self_kb + child_kb,
    }))


def _save_scenario(path: str) -> None:
    """Child-process entry: the tracemalloc peak of one save."""
    import tracemalloc

    from repro.storage import save_index
    from repro.storage.flatfile import _HEADER

    index = _build_index(store_paths=True)
    tracemalloc.start()
    try:
        save_index(index, path)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with open(path, "rb") as f:
        column_bytes = _HEADER.unpack(f.read(_HEADER.size))[6]
    print(json.dumps({
        "mode": "save",
        "peak_kb": peak // 1024,
        "column_kb": column_bytes // 1024,
        "ratio": round(peak / column_bytes, 2),
    }))


def _objects_scenario() -> None:
    """Child-process entry: the live bytes of the object tree plus
    labels, built with and without paths."""
    import gc
    import tracemalloc

    from repro.graph import grid_network
    from repro.hierarchy import build_tree_decomposition
    from repro.labeling import build_labels

    network = grid_network(GRID_SIDE, GRID_SIDE, seed=SEED)
    live, entries = {}, 0
    for store_paths in (True, False):
        gc.collect()
        tracemalloc.start()
        try:
            tree = build_tree_decomposition(network, store_paths=store_paths)
            labels = build_labels(tree, store_paths=store_paths)
            gc.collect()
            live[store_paths] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        entries = labels.num_entries() + sum(
            len(skyline)
            for shortcuts_v in tree.shortcuts.values()
            for skyline in shortcuts_v.values()
        )
        del tree, labels
    print(json.dumps({
        "mode": "objects",
        "entries": entries,
        "paths_kb": live[True] // 1024,
        "bare_kb": live[False] // 1024,
        "paths_b_per_entry": round(live[True] / entries),
        "bare_b_per_entry": round(live[False] / entries),
        "ratio": round(live[True] / live[False], 2),
    }))


def _load_scenario(path: str) -> None:
    """Child-process entry: the live bytes one load leaves behind."""
    import gc
    import tracemalloc

    from repro.storage import load_flat_index

    gc.collect()
    tracemalloc.start()
    try:
        index = load_flat_index(path)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n = index.network.num_vertices
    print(json.dumps({
        "mode": "load",
        "vertices": n,
        "conditions": index.pruning.num_conditions,
        "live_kb": live // 1024,
        "b_per_vertex": round(live / n),
    }))


def _mapped_rss_bytes(path: str) -> int:
    """Resident bytes of this process's mappings of ``path``."""
    path = os.path.realpath(path)
    total = 0
    inside = False
    with open("/proc/self/smaps") as f:
        for line in f:
            key = line.split(None, 1)[0]
            if not key.endswith(":"):  # a mapping's header line
                inside = line.rstrip("\n").endswith(" " + path)
            elif inside and key == "Rss:":
                total += int(line.split()[1]) * 1024
    return total


def _resident_scenario(path: str) -> None:
    """Child-process entry: the mapping's resident bytes after a
    verified load."""
    if not os.path.exists("/proc/self/smaps"):
        print(json.dumps({
            "mode": "resident",
            "skipped": f"no /proc/self/smaps on {sys.platform}",
        }))
        return
    from repro.storage import load_flat_index
    from repro.storage.flatfile import _HEADER

    index = load_flat_index(path, verify_checksum=True)
    resident = _mapped_rss_bytes(path)
    with open(path, "rb") as f:
        meta_bytes = _HEADER.unpack(f.read(_HEADER.size))[4]
    print(json.dumps({
        "mode": "resident",
        "vertices": index.network.num_vertices,
        "file_kb": os.path.getsize(path) // 1024,
        "meta_bytes": meta_bytes,
        "resident_kb": resident // 1024,
        "resident_bytes": resident,
    }))


def _pruning_scenario() -> None:
    """Child-process entry: the pruning build's transient bytes per
    condition."""
    import gc
    import tracemalloc

    from repro.core import build_pruning_index, random_index_queries
    from repro.graph import grid_network
    from repro.hierarchy import LCAIndex, build_tree_decomposition
    from repro.labeling import build_labels

    network = grid_network(GRID_SIDE, GRID_SIDE, seed=SEED)
    tree = build_tree_decomposition(network)
    labels = build_labels(tree)
    lca = LCAIndex(tree)
    queries = random_index_queries(network, 100, seed=SEED)
    gc.collect()
    tracemalloc.start()
    try:
        pruning = build_pruning_index(tree, labels, lca, queries, seed=SEED)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    conditions = pruning.num_conditions
    print(json.dumps({
        "mode": "pruning",
        "conditions": conditions,
        "peak_kb": peak // 1024,
        "retained_kb": retained // 1024,
        "b_per_condition": round((peak - retained) / conditions),
    }))


def _run_scenario(mode: str, path: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    extra = os.pathsep.join([src, REPO_ROOT])
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{extra}{os.pathsep}{current}" if current else extra
    )
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--scenario", mode, "--index", path],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark() -> dict:
    from benchmarks.conftest import record_rows

    with tempfile.TemporaryDirectory() as tmpdir:
        flat_path = _build_file(tmpdir)
        sizes = {"flat_file_kb": os.path.getsize(flat_path) // 1024}
        object_run = _run_scenario("object", "")
        flat_run = _run_scenario("flat", flat_path)
        save_run = _run_scenario("save", os.path.join(tmpdir, "paths.qflat"))
        objects_run = _run_scenario("objects", "")
        load_run = _run_scenario("load", flat_path)
        resident_run = _run_scenario(
            "resident", os.path.join(tmpdir, "paths.qflat")
        )
        pruning_run = _run_scenario("pruning", "")

    for run in (object_run, flat_run):
        assert run["answered"] == NUM_QUERIES, run

    result = {
        "benchmark": "flat_memory_sharing",
        "grid": f"{GRID_SIDE}x{GRID_SIDE}",
        "num_queries": NUM_QUERIES,
        "workers": WORKERS,
        **sizes,
        "object": object_run,
        "flat": flat_run,
        "save": save_run,
        "objects": objects_run,
        "load": load_run,
        "resident": resident_run,
        "pruning": pruning_run,
        "total_savings_kb": (
            object_run["total_peak_kb"] - flat_run["total_peak_kb"]
        ),
    }
    record_rows(
        RESULT_TXT,
        f"{'scenario':>8} {'self':>10} {'worker':>10} {'total':>10}",
        [
            f"{'object':>8} {object_run['self_peak_kb']:>7} KB "
            f"{object_run['worker_peak_kb']:>7} KB "
            f"{object_run['total_peak_kb']:>7} KB",
            f"{'flat':>8} {flat_run['self_peak_kb']:>7} KB "
            f"{flat_run['worker_peak_kb']:>7} KB "
            f"{flat_run['total_peak_kb']:>7} KB",
            f"savings {result['total_savings_kb']} KB "
            f"(flat file {sizes['flat_file_kb']} KB)",
            f"{'save':>8} peak {save_run['peak_kb']} KB for "
            f"{save_run['column_kb']} KB of columns "
            f"(ratio {save_run['ratio']}, store_paths=True)",
            f"{'objects':>8} tree+labels {objects_run['paths_kb']} KB "
            f"with paths, {objects_run['bare_kb']} KB without "
            f"(ratio {objects_run['ratio']}; "
            f"{objects_run['paths_b_per_entry']} vs "
            f"{objects_run['bare_b_per_entry']} B/entry over "
            f"{objects_run['entries']} entries)",
            f"{'load':>8} leaves {load_run['live_kb']} KB live "
            f"({load_run['b_per_vertex']} B/vertex over "
            f"{load_run['vertices']} vertices, "
            f"{load_run['conditions']} conditions mapped)",
            f"{'resident':>8} "
            + (
                f"skipped: {resident_run['skipped']}"
                if "skipped" in resident_run
                else f"{resident_run['resident_kb']} KB of the "
                f"{resident_run['file_kb']} KB paths file mapped after a "
                f"verified load (metadata {resident_run['meta_bytes']} B)"
            ),
            f"{'pruning':>8} build peak {pruning_run['peak_kb']} KB, "
            f"retains {pruning_run['retained_kb']} KB "
            f"({pruning_run['b_per_condition']} B/condition transient over "
            f"{pruning_run['conditions']} conditions)",
        ],
    )
    return result


def check(result: dict) -> None:
    """The CI gates: a mapped index must beat the object graph, a save
    must not hold copies of the index, paths must not cost object
    labels a second tuple per entry, a load must neither rebuild
    per-condition objects nor fault the map in, and the pruning build
    must not pile up per-condition objects."""
    assert (
        result["flat"]["total_peak_kb"] < result["object"]["total_peak_kb"]
    ), (
        "supervised-batch peak RSS with the mmap-loaded flat index "
        f"({result['flat']['total_peak_kb']} KB) is not below the "
        f"object-graph baseline ({result['object']['total_peak_kb']} KB)"
    )
    assert result["save"]["ratio"] <= SAVE_PEAK_RATIO, (
        f"save_index peaked at {result['save']['peak_kb']} KB for "
        f"{result['save']['column_kb']} KB of columns (ratio "
        f"{result['save']['ratio']} > {SAVE_PEAK_RATIO})"
    )
    objects = result["objects"]
    assert objects["ratio"] <= OBJECT_PATHS_RATIO, (
        f"object tree plus labels take {objects['paths_kb']} KB with paths "
        f"and {objects['bare_kb']} KB without (ratio {objects['ratio']} > "
        f"{OBJECT_PATHS_RATIO})"
    )
    load = result["load"]
    assert load["b_per_vertex"] <= LOAD_LIVE_PER_VERTEX, (
        f"load_flat_index left {load['live_kb']} KB live "
        f"({load['b_per_vertex']} B/vertex > {LOAD_LIVE_PER_VERTEX})"
    )
    resident = result["resident"]
    if "skipped" in resident:
        print(f"resident scenario skipped: {resident['skipped']}")
    else:
        limit = resident["meta_bytes"] + RESIDENT_SLACK
        assert resident["resident_bytes"] <= limit, (
            f"{resident['resident_kb']} KB of the mapped index are resident "
            f"after a verified load (limit: {limit} B, the metadata plus "
            f"{RESIDENT_SLACK} B)"
        )
    pruning = result["pruning"]
    assert pruning["b_per_condition"] <= PRUNING_TRANSIENT_PER_CONDITION, (
        f"build_pruning_index held {pruning['b_per_condition']} B per "
        f"condition beyond what it keeps (> "
        f"{PRUNING_TRANSIENT_PER_CONDITION})"
    )


def test_flat_batch_rss_below_object_graph():
    check(run_benchmark())


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--scenario",
        choices=(
            "object", "flat", "save", "objects", "load", "resident",
            "pruning",
        ),
    )
    parser.add_argument("--index")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.scenario == "save":
        _save_scenario(args.index)
    elif args.scenario == "objects":
        _objects_scenario()
    elif args.scenario == "load":
        _load_scenario(args.index)
    elif args.scenario == "resident":
        _resident_scenario(args.index)
    elif args.scenario == "pruning":
        _pruning_scenario()
    elif args.scenario:
        _scenario(args.scenario, args.index)
    else:
        outcome = run_benchmark()
        print(json.dumps(outcome, indent=2))
        if args.check:
            check(outcome)
            print("memory-sharing check passed")
