"""Split an end-to-end run's ``peak_rss_mb`` into its parts.

    python benchmarks/peak_split.py --workload NAME --seed N [run.py options]

Runs ``benchmarks/e2e/run.py`` in this process with the same arguments
and, after its result line, prints one JSON line of high-water marks in
MB (``getrusage``'s ``ru_maxrss``):

* ``setup_self_mb`` — this process when the workload's set-up returns
  (``workloads._set_up``, the last of its set-ups);
* ``self_mb`` — this process when ``run.py`` reads ``peak_rss_mb``;
* ``largest_child_mb`` — the largest forked child (batch workers) then.

``peak_rss_mb`` is ``self_mb + largest_child_mb``.  The gap between
``setup_self_mb`` and ``self_mb`` is what the measured phase grew.
Both are read where ``run.py`` reads them: after that, its ``git``
subprocess counts as a child with this process's size.

For ``rush-hour`` the line also holds the current resident size
(``VmRSS`` of ``/proc/self/status``, Linux only): ``setup_rss_mb`` when
set-up returns and ``publish_rss_mb``, one value after each
``EpochManager.apply``, so the measured phase's growth splits per
published epoch.
"""

from __future__ import annotations

import json
import os
import resource
import sys

BENCHMARKS = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.join(BENCHMARKS, "e2e")
SRC = os.path.join(os.path.dirname(BENCHMARKS), "src")


def _mb(who: int) -> float:
    return round(resource.getrusage(who).ru_maxrss / 1024.0, 2)


def _rss_mb() -> float | None:
    """The current resident size (``VmRSS``), or ``None`` off Linux."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return round(int(line.split()[1]) / 1024.0, 2)
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    # The program from this checkout, as run.py imports it.
    sys.path[:0] = [SRC, E2E]
    import run
    import workloads
    from repro.dynamic.epochs import EpochManager

    marks: dict[str, object] = {}
    rush_hour = run.parse_args(argv).workload == "rush-hour"
    set_up = workloads._set_up
    apply = EpochManager.apply
    published: list[float | None] = []

    def marked_set_up(*args, **kwargs):
        done = set_up(*args, **kwargs)
        marks["setup_self_mb"] = _mb(resource.RUSAGE_SELF)
        if rush_hour:
            marks["setup_rss_mb"] = _rss_mb()
        return done

    def marked_apply(self, *args, **kwargs):
        report = apply(self, *args, **kwargs)
        published.append(_rss_mb())
        return report

    end_to_end = run.end_to_end

    def marked_end_to_end(outcome):
        marks["self_mb"] = _mb(resource.RUSAGE_SELF)
        marks["largest_child_mb"] = _mb(resource.RUSAGE_CHILDREN)
        return end_to_end(outcome)

    workloads._set_up = marked_set_up
    run.end_to_end = marked_end_to_end
    if rush_hour:
        EpochManager.apply = marked_apply
        marks["publish_rss_mb"] = published
    status = run.main(argv)
    print(json.dumps(marks))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
