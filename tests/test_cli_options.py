"""Every subcommand's flags and defaults, pinned.

The parser defines each shared flag once (``repro.cli._SHARED``); this
table keeps what each subcommand accepts — option, default, and whether
it is required — exactly what it was before the flags were shared.
"""

from __future__ import annotations

import argparse

from repro.cli import build_parser

REQUIRED = "required"

#: subcommand -> option (or positional dest) -> default, or REQUIRED.
EXPECTED: dict[str, dict[str, object]] = {
    "generate": {
        "--dataset": REQUIRED, "--scale": "small", "--out": REQUIRED,
    },
    "build": {
        "--network": REQUIRED, "--out": REQUIRED,
        "--index-queries": 2000, "--seed": 0, "--no-paths": False,
        "--metrics-out": None, "--checkpoint-dir": None,
        "--resume": False, "--max-build-seconds": None,
        "--max-rss-mb": None, "--lenient": False, "--lcc-fallback": False,
    },
    "verify": {
        "--index": REQUIRED, "--queries": 8, "--seed": 0, "--json": False,
        "--verify-checksum": "on", "--metrics-out": None,
    },
    "query": {
        "--index": REQUIRED, "--source": REQUIRED, "--target": REQUIRED,
        "--budget": REQUIRED, "--path": False, "--trace": False,
        "--deadline-ms": None, "--fallback": False, "--network": None,
        "--verify-checksum": "on", "--metrics-out": None,
        "--flight-out": None, "--flight-size": 256, "--slow-ms": None,
    },
    "stats": {"--index": REQUIRED},
    "workload": {
        "--network": REQUIRED, "--out": REQUIRED, "--size": 100,
        "--seed": 0, "--metrics-out": None,
    },
    "bench": {
        "--network": REQUIRED, "--queries": REQUIRED,
        "--index-queries": 1000, "--seed": 0, "--cola": False,
        "--deadline-ms": None, "--metrics-out": None, "--cache-size": 0,
        "--batch": False, "--workers": 0, "--updates": 0,
        "--flight-out": None, "--flight-size": 256, "--slow-ms": None,
        "--max-worker-restarts": None, "--heartbeat-ms": None,
        "--incident-out": None,
    },
    "update": {
        "mode": REQUIRED, "--journal": REQUIRED, "--network": None,
        "--deltas": None, "--edge": None, "--weight": None,
        "--cost": None, "--out": None, "--audit": "on",
        "--max-repair-seconds": None, "--index-queries": 1000,
        "--seed": 0, "--json": False, "--metrics-out": None,
        "--incident-out": None,
    },
    "flight": {
        "mode": REQUIRED, "--file": REQUIRED, "-n": 10, "--json": False,
        "--slow": False,
    },
    "supervise": {
        "mode": REQUIRED, "--incidents": REQUIRED, "--tail": 5,
        "--json": False,
    },
    "lint": {
        "paths": ["src"], "--root": None, "--json": False,
        "--select": None, "--list-rules": False, "--graph-out": None,
    },
}


def _accepted(parser: argparse.ArgumentParser) -> dict[str, object]:
    out: dict[str, object] = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        name = action.option_strings[0] if action.option_strings else (
            action.dest
        )
        out[name] = REQUIRED if action.required else action.default
    return out


def test_every_subcommand_keeps_its_flags_and_defaults():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    actual = {
        name: _accepted(sub) for name, sub in subparsers.choices.items()
    }
    assert actual == EXPECTED
