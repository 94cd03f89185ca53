"""Seeded schema fuzzer: a mutated fixture never makes the CLI fail
internally.

Each case copies a document from ``fixtures/`` and replaces, deletes or
duplicates one to three of its JSON nodes, then runs ``analyze --samples
1``, ``certify``, ``flex`` and ``lift`` on it in-process.  Whatever the
mutation, each command must exit 0 (rigid), 1 (flexible) or 2 (input
error); exit 3 would mean that a malformed document got past the parser
into the analysis.

A mutation that sets ``d`` to 100 runs too: it exits 2 at the dimension
limit ``symmetry.MAX_D``, before any image is built.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from orbitrig.cli import main

FIXTURES = ("c2_hinge", "c2_stewart", "c4_overbraced", "cs_hinge", "cs_stewart",
            "trivial_2body_1hinge", "trivial_2body_5bars", "trivial_2body_6bars")
CASES = 38  # per fixture, about 300 in all
VALUES = (0, -1, 100, "1/0", "3/2", None, True, [], {}, 1.5)
COMMANDS = (["analyze", "--samples", "1"], ["certify"], ["flex"], ["lift"])


def _paths(node, path=()):
    """The path of every node below the root, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(rng: random.Random, doc):
    """A copy of ``doc`` with one to three nodes replaced by a value of
    ``VALUES``, deleted, or duplicated (a list element is inserted again
    beside itself; an object member's value is copied over a sibling)."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        if not paths:
            break
        path = rng.choice(paths)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = rng.choice(("replace", "delete", "duplicate"))
        if action == "replace":
            parent[key] = copy.deepcopy(rng.choice(VALUES))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[rng.choice(sorted(parent))] = copy.deepcopy(parent[key])
    return doc


@pytest.mark.parametrize("name", FIXTURES)
def test_mutated_fixture_exits_0_1_or_2(name, fixture_dir, tmp_path, capsys):
    original = json.loads((fixture_dir / f"{name}.json").read_text())
    rng = random.Random(f"schema-fuzz:{name}")
    path = tmp_path / "mutated.json"
    failures = []
    for case in range(CASES):
        doc = _mutate(rng, original)
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code = main([command[0], str(path)] + command[1:])
            err = capsys.readouterr().err
            if code not in (0, 1, 2):
                failures.append((case, command, code, err, doc))
    assert failures == []
