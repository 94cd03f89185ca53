"""Golden CLI output: stdout and exit code of ``analyze``, ``certify``,
``flex`` and ``lift`` on every fixture, in both output formats, with the
default seed and sample count, compared byte for byte with
``golden_cli.json``.

After a deliberate output change, re-record with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and say in the change log which outputs changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
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


if __name__ == "__main__":
    recorded = {_key(*c): _run(*c) for c in _cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
