"""Golden CLI output: stdout and exit code of ``analyze``, ``certify``,
``flex`` and ``lift`` on every fixture, in both output formats, with the
default seed and sample count, compared byte for byte with
``golden_cli.json``.  The stdout of ``certify`` on the benchmark
generator's n = 64 inputs is pinned by its sha256.

After a deliberate output change, re-record with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from orbitrig.cli import main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"
GOLDEN = TESTS / "golden_cli.json"
COMMANDS = ("analyze", "certify", "flex", "lift")
FORMATS = ("json", "text")


def _cases() -> list[tuple[str, str, str]]:
    return [
        (fixture.stem, command, fmt)
        for fixture in sorted(FIXTURES.glob("*.json"))
        for command in COMMANDS
        for fmt in FORMATS
    ]


def _run(fixture: str, command: str, fmt: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(FIXTURES / f"{fixture}.json"), "--format", fmt])
    return {"code": code, "stdout": out.getvalue()}


def _key(fixture: str, command: str, fmt: str) -> str:
    return f"{fixture} {command} {fmt}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in _cases())
    assert len(golden) == 8 * len(COMMANDS) * len(FORMATS)


@pytest.mark.parametrize("fixture, command, fmt", _cases())
def test_output_matches_golden(golden, fixture, command, fmt):
    assert _run(fixture, command, fmt) == golden[_key(fixture, command, fmt)]


# ``certify`` on the benchmark generator's n = 64 inputs (perfbench/workloads,
# its own seeded generator, ``random.Random(7)``, slot 0): the sha256 of
# stdout, decomposition and witness included, and the exit code.
N64_PINS = [
    ("body_bar", (2,), (), 0, "1900034132be3fc56995204378a1209a8984e1049c1b5de15707f551e0783c3b"),
    ("body_bar", (2, 2), (), 0, "ddcf346f5005c28cd388713e23f9fa7742a63d6310351ee3bd23a3ec76ecdc21"),
    ("body_bar", (2, 2, 2), (), 0, "2cc4b535d97763269f7f46abe82fc0cc5ba2ce2f94c28176d158fb59b35e12a6"),
    ("body_hinge", (2, 2), (), 1, "2ac1def74b73d2476dda93ca3ce8845333ac3932d9c9a6503b62b32ed4b2bf32"),
    ("body_bar", (2, 2), ("--oracle",), 0, "80cb8b70db6fa7b5efee2c1b0544beb7519b942091c11627d19fca0013e9a9fe"),
]


@pytest.mark.parametrize("model, orders, extra, code, digest", N64_PINS)
def test_certify_n64_pinned(tmp_path, model, orders, extra, code, digest):
    sys.path.insert(0, str(TESTS.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    path = tmp_path / "input.json"
    path.write_bytes(workloads.dump(getattr(workloads, model)(random.Random(7), orders, 64, False, 0)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(["certify", str(path), *extra])
    assert (got, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == (code, digest)


if __name__ == "__main__":
    recorded = {_key(*c): _run(*c) for c in _cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
