"""End-to-end benchmark: run one workload for one seed.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        [--seconds S] [--trace 0|1] [--smoke]

This is the command ``BENCHMARK.json`` declares; a benchmark harness
calls it as ``--workload W --seed N --seconds S --trace 0|1`` with ``S``
the declared ``run_seconds``, which is also the default of
``--seconds`` (``--smoke``: 1).

Builds the inputs from the seed, sets the system up through its public
API, measures for ``--seconds``, checks a seeded sample of the answers
against reference engines, and prints one JSON object as the last line
of stdout::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that reports the per-layer metrics and
writes its spans to ``benchmarks/e2e/out/trace-<workload>.jsonl``.  The
full result, with its provenance (seed, input digest, commit, nproc,
Python version, run length), goes to
``benchmarks/e2e/out/result-<workload>-s<seed>-t<trace>.json``.

Exit status: 0 when every checked answer is right, 1 when one is wrong,
2 when the program under test cannot be imported or the arguments are
bad.  Nothing is printed on stdout unless a run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

from common import OUT_DIR, ROOT, WORKLOADS, load_declaration

SRC = os.path.join(ROOT, "src")


def _import_program() -> bool:
    """Import the program from this checkout's ``src`` only."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return False
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"error: imported repro from {where}, not from {SRC}",
              file=sys.stderr)
        return False
    return True


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(outcome) -> dict:
    """The end-to-end metrics of one untraced run.

    Query latency and throughput are not among them: on a shared host
    they do not repeat within their bounds, so the traced run reports
    them per layer (``loadgen.*``, from its untraced rounds).
    """
    return {"setup_s": outcome.setup_s, "peak_rss_mb": _peak_rss_mb()}


def _samples(outcome) -> dict:
    """Sample counts behind each timing, for the result file."""
    info = {"rounds": [len(s.latencies) for s in outcome.segments]}
    if "from_due" in outcome.extra:
        info["from_due"] = len(outcome.extra["from_due"])
        info["updates"] = len(outcome.extra["updates"])
    return info


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: run_seconds of "
                             "BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets (and a one-second default phase)")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _import_program():
        return 2
    from checks import check
    from inputs import FULL, SMOKE, make_inputs
    from workloads import NO_TRACE, RUNNERS

    declaration = load_declaration()
    sizes = SMOKE if args.smoke else FULL
    seconds = args.seconds or (1 if args.smoke
                               else declaration["run_seconds"])
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=OUT_DIR)
    # Library temp files (spools, epoch twins) stay inside the checkout.
    saved_tmpdir = os.environ.get("TMPDIR")
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    tracer = None
    try:
        inputs = make_inputs(args.workload, args.seed, seconds, sizes)
        phases = NO_TRACE
        if args.trace:
            import layers

            tracer = phases = layers.Tracer()
        outcome = RUNNERS[args.workload](inputs, seconds, phases, workdir)
        # Traced: the reference CSP-2Hop queries give the baseline time.
        phases.set(True, "query")
        checked, problems = check(outcome, sizes, args.seed)
        phases.set(False)
    finally:
        tempfile.tempdir = None
        if saved_tmpdir is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        kind = "per_layer"
        values = layers.layer_metrics(tracer, outcome, args.workload)
        tracer.write_spans(
            os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    else:
        kind = "end_to_end"
        values = end_to_end(outcome)
    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in declaration[kind]
    }
    correct = checked > 0 and not problems
    failed = outcome.errors + len(problems)
    for line in (outcome.error_notes + problems)[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": failed, "metrics": metrics}
    record = dict(
        result,
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=seconds, smoke=args.smoke, input_digest=inputs.digest(),
        commit=_commit(), nproc=os.cpu_count(),
        python=platform.python_version(), checked=checked,
        samples=_samples(outcome),
    )
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
