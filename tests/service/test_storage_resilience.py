"""Crash-safe writes, the corruption matrix, header dispatch, and load
retries.

There is one saved format (version 4), in two flavours: ``full``, saved
from an index built with ``store_paths=True``, adds the provenance
columns to the ``flat`` file's ``(weight, cost)`` columns.  Both load
through :func:`~repro.storage.load_index`, which refuses a file without
the flat header — a pickled version-2 index among them — with a hint to
rebuild it.
"""

import os
import pickle
import random
import signal
import struct
import subprocess
import sys
import textwrap

import pytest

from repro.core import QHLIndex
from repro.core.flat import FlatQHLEngine
from repro.exceptions import SerializationError
from repro.service import FaultInjector, use_injector
from repro.storage import (
    FlatLabelStore,
    load_index,
    load_index_with_retry,
    save_index,
)
from repro.storage.compact import PROV_COLUMNS
from repro.storage.flatfile import _HEADER
from repro.storage.serialize import (
    _dumps_payload,
    _RECURSION_LIMIT,
    save_envelope,
)

FORMATS = ["full", "flat"]


@pytest.fixture(scope="module")
def indexes(service_index, service_grid):
    """The index each file flavour is saved from."""
    return {
        "full": service_index,
        "flat": QHLIndex.build(
            service_grid, num_index_queries=200, seed=1, store_paths=False
        ),
    }


def no_tmp_litter(directory):
    return [n for n in os.listdir(directory) if ".tmp." in n] == []


# ----------------------------------------------------------------------
# Kill safety: a fault at any write stage never corrupts the target.
# ----------------------------------------------------------------------
class TestKillSafety:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("stage", ["write", "fsync", "replace"])
    def test_interrupted_first_save_leaves_nothing(
        self, indexes, tmp_path, fmt, stage
    ):
        path = str(tmp_path / "victim.idx")
        injector = FaultInjector()
        injector.fail("save-index", exc=OSError, match={"stage": stage})
        with use_injector(injector):
            with pytest.raises(OSError):
                save_index(indexes[fmt], path)
        assert not os.path.exists(path)
        assert no_tmp_litter(tmp_path)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("stage", ["write", "fsync", "replace"])
    def test_interrupted_resave_keeps_the_old_file(
        self, indexes, service_index, tmp_path, fmt, stage
    ):
        path = str(tmp_path / "victim.idx")
        save_index(indexes[fmt], path)
        with open(path, "rb") as f:
            before = f.read()
        injector = FaultInjector()
        injector.fail("save-index", exc=OSError, match={"stage": stage})
        with use_injector(injector):
            with pytest.raises(OSError):
                save_index(indexes[fmt], path)
        with open(path, "rb") as f:
            assert f.read() == before
        assert no_tmp_litter(tmp_path)
        # The survivor is not just byte-identical but fully loadable.
        loaded = load_index(path)
        assert loaded.query(0, 63, 250).pair() == service_index.query(
            0, 63, 250
        ).pair()

    @pytest.mark.parametrize("resave", [False, True], ids=["first", "resave"])
    @pytest.mark.parametrize("stage", ["write", "fsync", "replace"])
    def test_real_sigkill_at_each_stage(
        self, service_index, tmp_path, stage, resave
    ):
        """A process SIGKILLed mid-save (no exception handler runs, the
        streamed column writes stop wherever they are) leaves the
        destination absent or exactly as it was."""
        path = str(tmp_path / "victim.idx")
        before = None
        if resave:
            save_index(service_index, path)
            with open(path, "rb") as f:
                before = f.read()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        ))
        proc = subprocess.run(
            [sys.executable, "-c", _SAVE_CHILD, path, stage],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        if before is None:
            assert not os.path.exists(path)
            return
        with open(path, "rb") as f:
            assert f.read() == before
        loaded = load_index(path)
        assert loaded.labels.provenance is not None
        assert loaded.query(0, 63, 250).pair() == service_index.query(
            0, 63, 250
        ).pair()

    def test_save_creates_missing_directories(self, service_index, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "x.idx")
        save_index(service_index, path)
        assert os.path.exists(path)


#: Builds the ``service_index`` twin (paths on) and saves it to
#: ``argv[1]`` under an injector that SIGKILLs the process at the
#: ``save-index`` stage ``argv[2]``.
_SAVE_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.core import QHLIndex
    from repro.graph import grid_network
    from repro.service.faults import FaultInjector, set_injector
    from repro.storage import save_index

    path, stage = sys.argv[1], sys.argv[2]

    def die():
        os.kill(os.getpid(), signal.SIGKILL)

    index = QHLIndex.build(
        grid_network(8, 8, seed=1), num_index_queries=200, seed=1
    )
    injector = FaultInjector()
    injector.fail("save-index", exc=die, match={"stage": stage})
    set_injector(injector)
    save_index(index, path)
    raise SystemExit("unreachable: the save should have been killed")
    """
)


# ----------------------------------------------------------------------
# The corruption matrix, for both file flavours.
# ----------------------------------------------------------------------
def _write_envelope(path, envelope):
    data = pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as f:
        f.write(data)


@pytest.fixture(scope="module")
def saved(indexes, tmp_path_factory):
    """One pristine save per flavour, reused by the whole matrix."""
    root = tmp_path_factory.mktemp("pristine")
    paths = {}
    for fmt in FORMATS:
        path = str(root / f"{fmt}.idx")
        save_index(indexes[fmt], path)
        paths[fmt] = path
    return paths


def _column_regions(path):
    """``{column name: (start, end)}`` byte ranges within the file."""
    with open(path, "rb") as f:
        data = f.read()
    header = _HEADER.unpack_from(data, 0)
    meta_offset, meta_length, data_offset = header[3], header[4], header[5]
    meta = pickle.loads(data[meta_offset:meta_offset + meta_length])
    itemsize = {"q": 8, "d": 8, "i": 4}
    return {
        name: (
            data_offset + offset,
            data_offset + offset + count * itemsize[typecode],
        )
        for name, typecode, count, offset in meta["columns"]
    }


@pytest.mark.parametrize("fmt", FORMATS)
class TestCorruptionMatrix:
    def _corrupt_copy(self, saved, tmp_path, fmt, mutate):
        with open(saved[fmt], "rb") as f:
            data = bytearray(f.read())
        path = str(tmp_path / f"corrupt-{fmt}.idx")
        with open(path, "wb") as f:
            f.write(mutate(data))
        return path

    def test_truncated_file(self, saved, tmp_path, fmt):
        path = self._corrupt_copy(
            saved, tmp_path, fmt, lambda d: d[: len(d) // 2]
        )
        with pytest.raises(SerializationError):
            load_index(path)

    def test_flipped_byte(self, saved, tmp_path, fmt):
        def flip(data):
            data[int(len(data) * 0.6)] ^= 0xFF
            return data

        path = self._corrupt_copy(saved, tmp_path, fmt, flip)
        with pytest.raises(SerializationError):
            load_index(path)

    def test_wrong_magic(self, saved, tmp_path, fmt):
        # One changed magic byte: no longer a flat header.
        path = self._corrupt_copy(
            saved, tmp_path, fmt, lambda d: b"RQHLFLTX" + d[8:]
        )
        with pytest.raises(SerializationError, match="is not a"):
            load_index(path)

    def test_future_version(self, saved, tmp_path, fmt):
        path = self._corrupt_copy(
            saved, tmp_path, fmt,
            lambda d: d[:8] + struct.pack("<I", 999) + d[12:],
        )
        with pytest.raises(SerializationError, match="version 999"):
            load_index(path)

    def test_empty_file(self, saved, tmp_path, fmt):
        path = str(tmp_path / "empty.idx")
        open(path, "wb").close()
        with pytest.raises(SerializationError):
            load_index(path)

    def test_directory_instead_of_file(self, saved, tmp_path, fmt):
        path = str(tmp_path / "a-directory")
        os.mkdir(path)
        with pytest.raises(SerializationError, match="directory"):
            load_index(path)

    def test_every_matrix_error_message_names_the_path(
        self, saved, tmp_path, fmt
    ):
        path = str(tmp_path / "named.idx")
        open(path, "wb").close()
        with pytest.raises(SerializationError, match="named.idx"):
            load_index(path)


class TestProvenanceColumns:
    """Truncation and bit flips inside each provenance column."""

    @pytest.mark.parametrize("column", PROV_COLUMNS)
    def test_flipped_byte_fails_checksum(self, saved, tmp_path, column):
        start, end = _column_regions(saved["full"])[column]
        data = bytearray(open(saved["full"], "rb").read())
        data[(start + end) // 2] ^= 0x01
        path = str(tmp_path / "flipped.idx")
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="checksum"):
            load_index(path)

    @pytest.mark.parametrize("column", PROV_COLUMNS)
    def test_truncated_column_is_refused(self, saved, tmp_path, column):
        start, end = _column_regions(saved["full"])[column]
        data = open(saved["full"], "rb").read()
        path = str(tmp_path / "truncated.idx")
        with open(path, "wb") as f:
            f.write(data[: (start + end) // 2])
        # Even unverified, a column that overruns the file is refused.
        for verify in (True, False):
            with pytest.raises(
                SerializationError, match="truncated|corrupt|overruns"
            ):
                load_index(path, verify_checksum=verify)

    def test_only_the_full_file_has_provenance_columns(self, saved):
        assert set(PROV_COLUMNS) <= set(_column_regions(saved["full"]))
        assert not set(PROV_COLUMNS) & set(_column_regions(saved["flat"]))


# ----------------------------------------------------------------------
# Checksums and format versions.
# ----------------------------------------------------------------------
class TestChecksumAndVersions:
    def test_checksum_mismatch_names_both_digests(
        self, saved, tmp_path
    ):
        data = bytearray(open(saved["full"], "rb").read())
        data[_HEADER.size - 32:_HEADER.size] = b"\x00" * 32  # the digest
        path = str(tmp_path / "badsum.idx")
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(
            SerializationError, match="stored 000000000000.*computed"
        ):
            load_index(path)
        # The payload itself is intact, so skipping verification loads.
        index = load_index(path, verify_checksum=False)
        assert index.query(0, 63, 250).feasible

    def test_version_1_file_is_rejected(self, service_index, tmp_path):
        # Version 1 kept its fields inline in a pickle with no checksum;
        # like version 2, it has no flat header.
        path = str(tmp_path / "v1.idx")
        _write_envelope(
            path,
            {"magic": "repro-qhl-index", "version": 1,
             "index": service_index},
        )
        with pytest.raises(SerializationError, match="repro-qhl build"):
            load_index(path)

    def test_version_3_file_is_rejected(self, saved, tmp_path):
        # Version 3 pickled the pruning conditions into its metadata;
        # no reader for it is kept.
        data = bytearray(open(saved["flat"], "rb").read())
        struct.pack_into("<I", data, 8, 3)
        path = str(tmp_path / "v3.idx")
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(
            SerializationError, match="version 3.*repro-qhl build"
        ):
            load_index(path)


# ----------------------------------------------------------------------
# Header dispatch: the first 8 bytes pick the reader.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "loader", [load_index, load_index_with_retry],
    ids=["load_index", "load_index_with_retry"],
)
class TestHeaderDispatch:
    def test_v2_file_is_refused_with_rebuild_hint(
        self, service_index, tmp_path, loader
    ):
        # Exactly what the retired version-2 writer produced: the index
        # object pickled into the checksummed envelope.
        path = str(tmp_path / "v2.idx")
        save_envelope(path, "repro-qhl-index", {"index": service_index})
        sleeps = []
        kwargs = {} if loader is load_index else {"sleep": sleeps.append}
        with pytest.raises(
            SerializationError,
            match="v2.idx.*no longer read.*rebuild it with `repro-qhl build`",
        ):
            loader(path, **kwargs)
        assert sleeps == []

    def test_v3_file_loads_flat_labels(self, saved, service_index, loader):
        for fmt in FORMATS:
            index = loader(saved[fmt])
            assert isinstance(index.labels, FlatLabelStore)
            assert isinstance(index.qhl_engine(), FlatQHLEngine)
            assert index.query(0, 63, 250).pair() == service_index.query(
                0, 63, 250
            ).pair()
        assert loader(saved["full"]).query(
            0, 63, 250, want_path=True
        ).path == service_index.query(0, 63, 250, want_path=True).path

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"not an index at all", "bad.idx.*not a readable"),
            # Seven bytes of the flat magic: too short to tell.
            (b"RQHLFLT", "bad.idx.*truncated"),
        ],
        ids=["garbage", "shorter-than-header"],
    )
    def test_unreadable_file_is_permanent(
        self, tmp_path, loader, data, message
    ):
        path = str(tmp_path / "bad.idx")
        with open(path, "wb") as f:
            f.write(data)
        injector = FaultInjector()
        sleeps = []
        kwargs = {} if loader is load_index else {
            "attempts": 5, "sleep": sleeps.append,
        }
        with use_injector(injector):
            with pytest.raises(SerializationError, match=message):
                loader(path, **kwargs)
        assert sleeps == []
        if loader is load_index_with_retry:
            # The index-load fault point fires once per attempt.
            assert injector.calls("index-load") == 1


# ----------------------------------------------------------------------
# Retrying loader.
# ----------------------------------------------------------------------
class TestLoadWithRetry:
    def test_transient_errors_retried_with_backoff(
        self, saved, service_index
    ):
        delays = []
        injector = FaultInjector()
        injector.fail("index-load", exc=OSError, times=2)
        with use_injector(injector):
            index = load_index_with_retry(
                saved["full"], attempts=3,
                sleep=delays.append, rng=random.Random(0),
            )
        assert index.query(0, 63, 250).pair() == service_index.query(
            0, 63, 250
        ).pair()
        assert len(delays) == 2
        # delay_i = min(0.05 * 2**i, 1.0) * (1 + 0.25 * U[0,1)).
        assert 0.05 <= delays[0] <= 0.0625
        assert 0.10 <= delays[1] <= 0.1250

    def test_jitter_is_deterministic_under_injected_clock(self, saved):
        # With a FaultInjector clock installed (the chaos-test setup),
        # the default rng is seeded: two identical runs see identical
        # jittered backoff sequences, and they match random.Random(0).
        runs = []
        for _ in range(2):
            delays = []
            injector = FaultInjector(clock=lambda: 0.0)
            injector.fail("index-load", exc=OSError, times=2)
            with use_injector(injector):
                load_index_with_retry(
                    saved["full"], attempts=3, sleep=delays.append
                )
            runs.append(delays)
        assert runs[0] == runs[1]
        rng = random.Random(0)
        expected = [
            min(0.05 * 2**i, 1.0) * (1.0 + 0.25 * rng.random())
            for i in range(2)
        ]
        assert runs[0] == pytest.approx(expected)

    def test_backoff_is_capped(self, saved):
        delays = []
        injector = FaultInjector()
        injector.fail("index-load", exc=OSError, times=None)
        with use_injector(injector):
            with pytest.raises(SerializationError, match="5 attempts"):
                load_index_with_retry(
                    saved["full"], attempts=5, base_delay=0.05,
                    max_delay=0.1, jitter=0.0, sleep=delays.append,
                )
        assert delays == [0.05, 0.1, 0.1, 0.1]

    def test_exhaustion_wraps_the_last_oserror(self, saved):
        injector = FaultInjector()
        injector.fail("index-load", exc=OSError("disk went away"),
                      times=None)
        with use_injector(injector):
            with pytest.raises(SerializationError) as excinfo:
                load_index_with_retry(
                    saved["full"], attempts=2, sleep=lambda _s: None
                )
        assert isinstance(excinfo.value.__cause__, OSError)
        assert "disk went away" in str(excinfo.value)

    def test_corruption_is_permanent_not_retried(self, tmp_path):
        path = str(tmp_path / "corrupt.idx")
        with open(path, "wb") as f:
            f.write(b"not an index at all")
        sleeps = []
        with pytest.raises(SerializationError):
            load_index_with_retry(path, attempts=5, sleep=sleeps.append)
        assert sleeps == []  # permanent failure: no backoff, no retry

    def test_rejects_non_positive_attempts(self, saved):
        with pytest.raises(ValueError):
            load_index_with_retry(saved["full"], attempts=0)


# ----------------------------------------------------------------------
# Recursion-limit cap (the interpreter-crash guard).
# ----------------------------------------------------------------------
class TestRecursionCap:
    def test_cap_is_bounded(self):
        # The point of the cap: deep provenance must surface as a
        # catchable error, not exhaust the C stack.
        assert _RECURSION_LIMIT <= 20_000

    def test_too_deep_payload_raises_serialization_error(self):
        deep = None
        for _ in range(_RECURSION_LIMIT + 5_000):
            deep = (deep,)
        with pytest.raises(SerializationError, match="save_flat_index"):
            _dumps_payload(deep, "test payload")

    def test_limit_restored_after_save(self, service_index, tmp_path):
        before = sys.getrecursionlimit()
        save_index(service_index, str(tmp_path / "x.idx"))
        assert sys.getrecursionlimit() == before
