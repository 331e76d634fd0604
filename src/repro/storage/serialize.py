"""Index persistence: the crash-safe write, the pickled envelope, and
the index loaders.

There is one saved-index format: version 4
(:mod:`repro.storage.flatfile`), raw label and pruning-condition
columns behind a binary header that starts with ``RQHLFLT1``, mapped
into memory on load.  :func:`save_index` writes it, with provenance
columns when the index was built with ``store_paths=True``.
:func:`load_index` reads the first 8 bytes; a file without the magic —
such as a version-2 pickled index from an older release — is refused
with a hint to rebuild it with ``repro-qhl build``, and so is a flat
file of another version, such as version 3.

The checksummed pickle envelope (:func:`save_envelope` /
:func:`load_envelope`) remains for the build checkpoints and the update
journal.  Their label rows carry provenance, a deep recursive tuple
structure (depth grows with path length), so (de)serialisation
temporarily raises the interpreter recursion limit — capped at
:data:`_RECURSION_LIMIT` because each pickle level also burns C stack,
and a runaway limit trades a catchable ``RecursionError`` for a hard
interpreter crash.  Provenance deeper than the cap fails with
:class:`SerializationError`.

Crash safety: every save goes through :func:`_atomic_write_bytes` —
temp file in the destination directory, flush + ``fsync``, then
``os.replace`` — so a crash at any point leaves either the old file or
no file at the destination, never a truncated one.  Both formats carry a
SHA-256 checksum verified on load.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import random
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.exceptions import SerializationError
from repro.gcpause import collector_paused

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import QHLIndex

#: Version of the pickled envelope (checkpoints, journal).
FORMAT_VERSION = 2

#: Capped recursion-limit bump for pickling provenance trees.  Each
#: pickle recursion level also consumes C stack (~hundreds of bytes), so
#: limits much past this risk a segfault instead of a RecursionError on
#: the default 8 MB stack; paths on road networks stay far below it.
_RECURSION_LIMIT = 20_000

_PICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
    KeyError,
    RecursionError,
)


class _raised_recursion_limit:
    def __enter__(self) -> None:
        self._old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._old, _RECURSION_LIMIT))

    def __exit__(self, *exc_info: object) -> None:
        sys.setrecursionlimit(self._old)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fire_fault(point: str, **ctx: object) -> None:
    """Fire a fault-injection point (inert unless a harness is active)."""
    from repro.service.faults import get_injector

    injector = get_injector()
    if injector.enabled:
        injector.fire(point, **ctx)


def _atomic_write_bytes(path: str, data: bytes | Sequence[Any]) -> None:
    """Write ``data`` to ``path`` crash-safely.

    ``data`` is one bytes object or a sequence of buffers (``bytes``,
    ``memoryview``, ``array``), written back to back without joining
    them into one copy.  The bytes land in a temp file in the
    destination directory, are flushed and fsynced, and only then
    renamed over ``path`` with ``os.replace`` (atomic on POSIX).  On
    any failure the temp file is removed; the destination keeps its
    previous content (or absence).
    """
    chunks = (data,) if isinstance(data, (bytes, bytearray)) else data
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            _fire_fault("save-index", stage="write", path=path)
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            _fire_fault("save-index", stage="fsync", path=path)
            os.fsync(f.fileno())
        _fire_fault("save-index", stage="replace", path=path)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    # Make the rename itself durable (best effort; not all filesystems
    # support fsyncing a directory handle).
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory or ".", os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def _dumps_payload(obj: object, what: str) -> bytes:
    """Pickle ``obj`` under the raised (capped) recursion limit."""
    try:
        with _raised_recursion_limit():
            return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except RecursionError as exc:
        raise SerializationError(
            f"{what} is too deeply nested to pickle even at the capped "
            f"recursion limit ({_RECURSION_LIMIT}); provenance depth "
            "grows with path length — build without paths (build "
            "--no-paths) or without checkpoints; index files "
            "(save_index / save_flat_index) pack provenance without "
            "recursion"
        ) from exc


def save_envelope(path: str, magic: str, obj: Mapping[str, object]) -> int:
    """Write any plain dict through the atomic + checksummed envelope.

    The generic primitive behind the build checkpoints
    (:mod:`repro.resilience.checkpoint`) and the update journal: pickle
    under the
    capped recursion limit, wrap in a ``{magic, version, checksum,
    payload}`` envelope, and land it with temp-file + fsync +
    ``os.replace``.  Returns the file size in bytes.
    """
    payload = _dumps_payload(obj, f"{magic} payload")
    envelope = {
        "magic": magic,
        "version": FORMAT_VERSION,
        "checksum": _sha256(payload),
        "payload": payload,
    }
    _atomic_write_bytes(
        path, pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return os.path.getsize(path)


def load_envelope(
    path: str, magic: str, verify_checksum: bool = True
) -> dict[str, Any]:
    """Read a dict written by :func:`save_envelope`.

    Raises
    ------
    SerializationError
        On missing files, directories, foreign pickles, checksum
        mismatches, or version mismatches.
    """
    if not os.path.exists(path):
        raise SerializationError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise SerializationError(f"{path!r} is a directory, not a file")
    try:
        with _raised_recursion_limit(), open(path, "rb") as f:
            envelope = pickle.load(f)
    except _PICKLE_ERRORS as exc:
        raise SerializationError(
            f"{path!r} is not a readable {magic} file: {exc}"
        ) from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != magic:
        raise SerializationError(f"{path!r} is not a {magic} file")
    version = envelope.get("version")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported {magic} format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, (bytes, bytearray)):
        raise SerializationError(f"{path!r} has a malformed payload")
    if verify_checksum:
        digest = _sha256(bytes(payload))
        if digest != envelope.get("checksum"):
            raise SerializationError(
                f"{path!r} failed checksum verification (stored "
                f"{str(envelope.get('checksum'))[:12]}…, computed "
                f"{digest[:12]}…); the file is corrupt"
            )
    try:
        with _raised_recursion_limit(), collector_paused():
            inner = pickle.loads(bytes(payload))
    except _PICKLE_ERRORS as exc:
        raise SerializationError(
            f"{path!r} payload is not readable: {exc}"
        ) from exc
    if not isinstance(inner, dict):
        raise SerializationError(f"{path!r} has a malformed payload")
    return inner


def save_index(index: "QHLIndex", path: str) -> int:
    """Save ``index`` in the flat (version 4) format; returns the file
    size in bytes.

    The one index writer, :func:`repro.storage.flatfile.save_flat_index`:
    atomic (temp file + fsync + ``os.replace``), checksummed, with
    provenance columns when the labels carry provenance.
    """
    from repro.storage.flatfile import save_flat_index

    return save_flat_index(index, path)


def load_index(path: str, verify_checksum: bool = True) -> "QHLIndex":
    """Load an index saved by :func:`save_index`.

    The first 8 bytes must be the flat magic ``RQHLFLT1``; the index is
    then mapped by :func:`repro.storage.flatfile.load_flat_index` (flat
    labels, the flat engine).  ``verify_checksum=False`` skips the
    SHA-256 verification.

    Raises
    ------
    SerializationError
        On missing files, directories, files too short to hold a
        header, files without the magic (a version-2 pickled index
        from an older release among them), corrupt files, checksum
        mismatches, or version mismatches.
    """
    from repro.storage.flatfile import FLAT_MAGIC, load_flat_index

    if not os.path.exists(path):
        raise SerializationError(f"index file {path!r} does not exist")
    if os.path.isdir(path):
        raise SerializationError(f"{path!r} is a directory, not an index file")
    with open(path, "rb") as f:
        head = f.read(len(FLAT_MAGIC))
    if len(head) < len(FLAT_MAGIC):
        raise SerializationError(
            f"{path!r} is truncated: {len(head)} bytes is too short for "
            "an index file"
        )
    if head != FLAT_MAGIC:
        raise SerializationError(
            f"{path!r} is not a readable index file: it lacks the "
            f"{FLAT_MAGIC.decode()} header (pickled version-2 indexes "
            "are no longer read); rebuild it with `repro-qhl build`"
        )
    return load_flat_index(path, verify_checksum=verify_checksum)


def load_index_with_retry(
    path: str,
    attempts: int = 3,
    base_delay: float = 0.05,
    max_delay: float = 1.0,
    jitter: float = 0.25,
    verify_checksum: bool = True,
    sleep: Callable[[float], object] = time.sleep,
    rng: random.Random | None = None,
) -> "QHLIndex":
    """:func:`load_index` with bounded exponential backoff on
    ``OSError``.

    Transient I/O errors (NFS hiccups, slow attach of a volume) are
    retried up to ``attempts`` times with delay
    ``min(base_delay * 2**i, max_delay)`` plus up to ``jitter`` fraction
    of random extra.  :class:`SerializationError` (missing, short,
    corrupt, or wrong-version files) is permanent and never retried.
    ``sleep`` and ``rng`` are injectable for deterministic tests; the
    ``index-load`` fault point fires at the start of every attempt.  When a
    :class:`~repro.service.faults.FaultInjector` with an injected clock
    is active, the default ``rng`` is seeded (``random.Random(0)``) so
    chaos tests see reproducible backoff sequences; outside a fault
    harness the jitter stays nondeterministic on purpose (it exists to
    decorrelate concurrent retriers).
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    if rng is None:
        from repro.service.faults import get_injector

        injector = get_injector()
        if injector.enabled and injector.clock is not None:
            rng = random.Random(0)
        else:
            rng = random.Random()  # lint: allow=QHL003 backoff jitter is the one place nondeterminism is wanted; tests inject rng
    last: OSError | None = None
    for attempt in range(attempts):
        try:
            _fire_fault("index-load", path=path, attempt=attempt)
            return load_index(path, verify_checksum=verify_checksum)
        except SerializationError:
            raise
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                delay = min(base_delay * (2 ** attempt), max_delay)
                sleep(delay * (1.0 + jitter * rng.random()))
    raise SerializationError(
        f"could not read {path!r} after {attempts} attempts: {last}"
    ) from last
