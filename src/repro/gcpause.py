"""Pause Python's cyclic garbage collector around index construction.

Building, loading or repairing an index allocates millions of skyline
entries.  Every entry that carries provenance is a container tuple that
points at other tuples, so the cyclic collector tracks it, and each full
collection walks the whole growing label graph again — for nothing:
provenance references child entries by object and never back (a DAG),
so reference counting alone frees every temporary the build drops.

:func:`collector_paused` disables the collector for the duration of a
``with`` block.  It is reentrant and thread-safe: a depth counter under
a lock disables ``gc`` on the outermost entry and, on the outermost
exit (an exception included), turns it back on only if it was on when
that entry happened.  A caller that disabled ``gc`` itself keeps it
disabled.

When it turns the collector back on, it also collects the two young
generations once.  That examines every object made during the pause a
single time, frees any cycle among them, and moves the survivors to the
oldest generation, which is walked only by the rare full collections.
Left to the thresholds instead, that first young collection lands in
whatever step allocates next (a save, a load, a query), and the middle
generation swells with every index built and is walked again at its
next collection.

``gc.freeze()`` is deliberately not used: it is process-global and
would move the cyclic garbage of retired epochs into the permanent
generation, where it is never collected.  Nor are the collection
thresholds touched.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from typing import Iterator

_lock = threading.Lock()
_depth = 0
_restore = False


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector inside the block (reentrant)."""
    global _depth, _restore
    with _lock:
        if _depth == 0:
            _restore = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            resume = _depth == 0 and _restore
            if resume:
                gc.enable()
        if resume:
            # Outside the lock: a finalizer run by the collection may
            # itself pause.
            gc.collect(1)
