"""Skyline entries and concrete-path provenance.

A *skyline entry* represents one non-dominated path as a plain tuple
whose first two slots are its ``(weight, cost)``.  Plain tuples keep the
inner loops of the index build and of Algorithm 5 as cheap as pure
Python allows.

The paper stores only weight-cost pairs in the labels "for efficiency" and
defers path retrieval to the CSP-2Hop paper.  We implement retrieval with
*provenance*: every entry optionally remembers how it was formed, inline
in the slots after ``(weight, cost)`` and told apart by the third slot —

* ``(w, c, mid, left, right)`` — the concatenation at vertex ``mid`` (an
  int) of two child entries;
* ``(w, c, EDGE, u, v)`` — a single edge between ``u`` and ``v``;
* ``(0, 0, ZERO, v)`` — the empty path at ``v`` (``v`` may be ``None``);
* ``(w, c, ROW, store, i)`` — row ``i`` of the provenance columns of a
  flat label store (:class:`~repro.storage.flat.FlatLabelStore`), which
  expands it with ``store.walk(i)``; entries read out of flat labels
  carry this tag;
* ``(w, c, None)`` — no provenance.

Keeping provenance in the entry tuple, rather than in a second tuple it
points to, costs one object per entry instead of two.

Provenance references child entries *by object*, so expansion is a simple
recursion that survives skyline-set re-sorting.  Because the network is
undirected, a set built for the pair ``(a, b)`` may be looked up as
``(b, a)``; expansion therefore orients each recursive segment by the
junction vertex rather than trusting build order.  Building without
provenance (``with_prov=False``) saves little memory: on NY at benchmark
scale the tree plus labels hold 112 B per entry with provenance and 97 B
without (``tracemalloc``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exceptions import ReproError

Entry = tuple[Any, ...]
"""``(weight, cost, *provenance)`` — see the module docstring."""

EDGE = "edge"
ZERO = "zero"
ROW = "row"

#: Version of the entry tuple layout above.  Files that pickle entries
#: (the label-build checkpoints) carry it, so entries pickled in another
#: layout are never read back into a store.
ENTRY_LAYOUT = 2


def edge_entry(
    weight: float, cost: float, u: int, v: int, with_prov: bool = True
) -> Entry:
    """An entry for a direct edge between ``u`` and ``v``."""
    if not with_prov:
        return (weight, cost, None)
    return (weight, cost, EDGE, u, v)


def join_entry(left: Entry, right: Entry, mid: int) -> Entry:
    """The concatenation of two entries meeting at vertex ``mid``.

    Weight and cost are additive (paper, after Definition 2).  Provenance
    is recorded only when both children carry provenance.
    """
    if left[2] is None or right[2] is None:
        return (left[0] + right[0], left[1] + right[1], None)
    return (left[0] + right[0], left[1] + right[1], mid, left, right)


def zero_entry(vertex: int | None = None, with_prov: bool = True) -> Entry:
    """The empty path at ``vertex``: identity element of concatenation."""
    if not with_prov:
        return (0, 0, None)
    return (0, 0, ZERO, vertex)


def _expand_any(entry: Entry) -> list[int]:
    """Unfold an entry into a vertex path in *some* orientation."""
    tag = entry[2]
    if tag is None:
        raise ReproError(
            "path retrieval requested but the index was built with "
            "store_paths=False"
        )
    if tag == EDGE:
        return [entry[3], entry[4]]
    if tag == ZERO:
        if entry[3] is None:
            raise ReproError("anonymous zero-length entry cannot expand")
        return [entry[3]]
    if tag == ROW:
        path: list[int] = entry[3].walk(entry[4])
        return path
    # A join: the tag is its junction vertex.
    return splice(_expand_any(entry[3]), _expand_any(entry[4]), tag)


def splice(head: list[int], tail: list[int], mid: int) -> list[int]:
    """Join two segments that meet at the junction ``mid``.

    Each segment may come in either orientation; both are turned around
    the junction, then ``tail`` (minus the shared ``mid``) is appended
    to ``head`` in place.
    """
    if head[-1] != mid:
        head.reverse()
    if head[-1] != mid:
        raise ReproError(f"join segment does not touch junction {mid}")
    if tail[0] != mid:
        tail.reverse()
    if tail[0] != mid:
        raise ReproError(f"join segment does not touch junction {mid}")
    head.extend(tail[1:])
    return head


def orient(path: list[int], source: int, target: int) -> list[int]:
    """``path`` as ``source .. target``, reversed in place if needed.

    Raises
    ------
    ReproError
        If the path's endpoints are not ``source`` and ``target``.
    """
    if path[0] == source and path[-1] == target:
        return path
    path.reverse()
    if path[0] == source and path[-1] == target:
        return path
    raise ReproError(
        f"expanded path connects ({path[-1]}, {path[0]}), "
        f"not ({source}, {target})"
    )


def expand(entry: Entry, source: int, target: int) -> list[int]:
    """Unfold an entry into the concrete vertex path ``source .. target``.

    Works in either direction because the network is undirected.

    Raises
    ------
    ReproError
        If the entry was built without provenance, or its endpoints do
        not match ``source`` / ``target``.
    """
    return orient(_expand_any(entry), source, target)


def restore(x: float) -> float:
    """A metric read out of flat columns as the object labels held it:
    integral floats come back as ints, so answers compare and print
    exactly like those of indexes built from integer networks.  Ints
    pass through."""
    return int(x) if type(x) is float and x.is_integer() else x


def path_of_pairs(entries: Sequence[Entry]) -> list[tuple[float, float]]:
    """Strip provenance: the ``(w, c)`` pairs of a sequence of entries."""
    return [(e[0], e[1]) for e in entries]
