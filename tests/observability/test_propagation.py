"""Trace ids: process-unique, deterministic, pid-prefixed."""

from __future__ import annotations

import os

from repro.observability.propagation import new_trace_id


class TestTraceIds:
    def test_unique_and_formatted(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        pid_part, _, seq_part = next(iter(ids)).partition("-")
        assert int(pid_part, 16) == os.getpid()
        assert seq_part
