from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbitrig import symmetry

from orbitrig.cli import (
    EXIT_FLEXIBLE,
    EXIT_INCONSISTENT,
    EXIT_INPUT,
    EXIT_RIGID,
    main,
    parse_framework,
    parse_rational,
)
from orbitrig.ensemble import serialize_instance
from orbitrig.errors import InputError
from orbitrig.gaingraph import make_gain_graph
from orbitrig.genframe import BarConfiguration, HingeConfiguration, random_generic_bars
from orbitrig.hinge import random_generic_hinges
from orbitrig.algebra import SquareMatrix
from orbitrig.symmetry import AbelianGroup, PointRepresentation
from conftest import mirror_rep_d, reflection9, reflection9_rep, rotation9, rotation9_rep

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _block_diagonal(a: SquareMatrix, b: list[list[int]]) -> SquareMatrix:
    n, k = a.n, len(b)
    return SquareMatrix.from_rows([list(r) + [0] * k for r in a.rows] + [[0] * n + r for r in b])


def _hinge_doc(orders: tuple[int, ...], image: SquareMatrix, gains: list[tuple]) -> dict:
    """Body-hinge on two bodies in d-space, d the size of ``image``: a hinge
    a -> b per gain, then a free loop at a, each at explicit rational points."""
    d = image.n
    rep = PointRepresentation.from_generators(AbelianGroup(orders), d, [image])
    edges = [(i, "a", "b", g) for i, g in enumerate(gains)] + [(len(gains), "a", "a", gains[1])]
    doc = serialize_instance(make_gain_graph(["a", "b"], edges, group=rep.group), rep, 9)
    doc["model"] = "body-hinge"
    doc["configuration"] = {"hinges": {str(i): {"points": [
        [f"{(3 * i + 5 * p + 7 * c) % 11 - 5}/{1 + (i + p + c) % 4}" for c in range(d)]
        for p in range(d - 1)
    ]} for i in range(len(edges))}}
    return doc


def _rational_docs() -> dict[str, dict]:
    """Documents with denominators: a quarter turn whose images have
    denominators 3 and 9 (with a non-free loop of the half-turn), a
    reflection with denominator 9 and two non-free loops, explicit
    rational bar and hinge points, and explicit rational hinges in 4- and
    5-space, which lift at grades 3 and 4, under images of denominator 9."""
    rot, ref = rotation9_rep(), reflection9_rep()
    edges = [(0, "a", "b", (0,)), (1, "a", "b", (1,)), (2, "a", "a", (1,)), (3, "b", "b", (2,))]
    quarter = serialize_instance(make_gain_graph(["a", "b"], edges, [3], group=rot.group), rot, 5)
    edges = [(0, "v", "w", (0,)), (1, "v", "w", (1,)), (2, "v", "v", (1,)), (3, "w", "w", (1,))]
    h = make_gain_graph(["v", "w"], edges, [2, 3], group=ref.group)
    reflection, bars = serialize_instance(h, ref, 6), serialize_instance(h, ref, 6)
    points = [[["1/2", "7/5", "3"], ["2", "-1/3", "5/7"]],
              [["-3/4", "1", "2/9"], ["7/5", "1/2", "-1"]],
              [["1/2", "7/5", "-2/3"], ["1", "1", "1/3"]],
              [["5/3", "-1/2", "1/7"], ["0", "2", "1/2"]]]
    bars["configuration"] = {"bars": {str(i): {"points": p[: 1 if i >= 2 else 2]}
                                      for i, p in enumerate(points)}}
    edges = [(0, "a", "b", (0,)), (1, "a", "b", (1,)), (2, "a", "b", (2,)), (3, "a", "a", (1,))]
    hinges = serialize_instance(make_gain_graph(["a", "b"], edges, group=rot.group), rot, 8)
    hinges["model"] = "body-hinge"
    hinges["configuration"] = {"hinges": {str(i): {"points": p} for i, p in enumerate(points)}}
    hinges_d4 = _hinge_doc((2,), _block_diagonal(reflection9(), [[-1]]), [(0,), (1,)])
    quarter_5 = _block_diagonal(rotation9(), [[0, -1], [1, 0]])
    hinges_d5 = _hinge_doc((4,), quarter_5, [(0,), (1,), (2,)])
    return {"quarter-turn": quarter, "reflection-loops": reflection,
            "explicit-bars": bars, "explicit-hinges": hinges,
            "hinges-d4": hinges_d4, "hinges-d5": hinges_d5}


# (exit code, first 16 hex digits of the sha256 of stdout) of JSON output; the
# quarter turn's flex is asked for its real characters 0 and 2
RATIONAL_OUTPUTS = {
    ("quarter-turn", "lift"): (0, "85828064ed1891d2"),
    ("quarter-turn", "analyze"): (1, "f32b3d7f4ddf9a8d"),
    ("quarter-turn", "flex"): (1, "823e7a3f8e0ed538"),
    ("reflection-loops", "lift"): (0, "dc64e0e56e03c9c6"),
    ("reflection-loops", "analyze"): (1, "55c662b7ddae76f2"),
    ("reflection-loops", "flex"): (1, "a4df77e24dbfd914"),
    ("explicit-bars", "lift"): (0, "513ee0f73f7be76a"),
    ("explicit-bars", "analyze"): (1, "bf0d095cd96ef067"),
    ("explicit-bars", "flex"): (1, "af4dbe6d5a259604"),
    ("explicit-hinges", "lift"): (0, "0b42dc98b1958608"),
    ("explicit-hinges", "analyze"): (0, "a9dd147e7d570335"),
    ("hinges-d4", "lift"): (0, "a29a8bcb35a20f96"),
    ("hinges-d4", "analyze"): (0, "edaf5906e5db4262"),
    ("hinges-d5", "lift"): (0, "3e839910ff91dce9"),
    ("hinges-d5", "analyze"): (0, "5a08ad51f75d76a4"),
}


@pytest.mark.parametrize("name, command", sorted(RATIONAL_OUTPUTS))
def test_rational_documents(capsys, tmp_path, name, command):
    """Bars with denominators, from rational images or rational points,
    give the pinned output: a lifted bar is printed over its entry's den."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_rational_docs()[name]), encoding="utf-8")
    extra = ["--irrep", "0;2"] if (name, command) == ("quarter-turn", "flex") else []
    code, out = run(capsys, [command, str(path), "--format", "json"] + extra)
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == RATIONAL_OUTPUTS[name, command]


def _diagonal(signs: list[int]) -> SquareMatrix:
    return SquareMatrix.from_rows([[s if i == j else 0 for j in range(len(signs))]
                                   for i, s in enumerate(signs)])


def _generated_hinge_doc(orders: tuple[int, ...], images: list[SquareMatrix], gains: list) -> dict:
    """Two bodies a, b joined by a hinge per gain, with no configuration,
    so that the hinges are drawn from the document's seed."""
    rep = PointRepresentation.from_generators(AbelianGroup(orders), images[0].n, images)
    edges = [(i, "a", "b", g) for i, g in enumerate(gains)]
    doc = serialize_instance(make_gain_graph(["a", "b"], edges, group=rep.group), rep, 11)
    doc["model"] = "body-hinge"
    return doc


def _generated_hinge_docs() -> dict[str, dict]:
    """Generated hinges under a mirror in the plane (det -1), a reflection
    with denominator 9 in 4-space (det -1), and diagonal (2,2,2) images in
    6- and 12-space, generator k negating coordinate i when i mod 3 = k."""
    halves = [(0,), (1,), (0,), (1,)]
    octants = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    docs = {"mirror-d2": _generated_hinge_doc((2,), [_diagonal([-1, 1])], halves),
            "reflection9-d4": _generated_hinge_doc(
                (2,), [_block_diagonal(reflection9(), [[1]])], halves)}
    for d in (6, 12):
        images = [_diagonal([-1 if i % 3 == k else 1 for i in range(d)]) for k in range(3)]
        docs[f"diagonal-d{d}"] = _generated_hinge_doc((2, 2, 2), images, octants)
    return docs


# (exit code, first 16 hex digits of the sha256 of stdout) of JSON output
GENERATED_HINGE_OUTPUTS = {
    ("mirror-d2", "lift"): (0, "933ff6b80335fbbe"),
    ("mirror-d2", "analyze"): (0, "8dcc614d7a5ccf36"),
    ("reflection9-d4", "lift"): (0, "fea283b767b7c630"),
    ("reflection9-d4", "analyze"): (0, "3fdc0836040e4adf"),
    ("diagonal-d6", "lift"): (0, "ee95b2fd88ff8acf"),
    ("diagonal-d6", "analyze"): (0, "262457ca12f77923"),
    ("diagonal-d12", "lift"): (0, "620b396b4ba21e1d"),
    ("diagonal-d12", "analyze"): (0, "67094027bc8d2331"),
}


@pytest.mark.parametrize("name, command", sorted(GENERATED_HINGE_OUTPUTS))
def test_generated_hinge_documents(capsys, tmp_path, name, command):
    """Lifted hinges, at grade d - 1, and analyses of generated body-hinge
    documents give the pinned output, for images of determinant -1 too."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_generated_hinge_docs()[name]), encoding="utf-8")
    code, out = run(capsys, [command, str(path), "--format", "json"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == GENERATED_HINGE_OUTPUTS[name, command]


class TestParsing:
    def test_rationals(self):
        from fractions import Fraction

        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(-2) == Fraction(-2)
        assert parse_rational("5") == Fraction(5)
        with pytest.raises(InputError):
            parse_rational("x")
        with pytest.raises(InputError):
            parse_rational(True)

    def test_schema_version_enforced(self, fixture_dir):
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        for schema in (99, True, 1.0):  # the version is an integer, as JSON spells it
            doc["schema"] = schema
            with pytest.raises(InputError):
                parse_framework(doc)

    def test_missing_field_diagnostics(self, fixture_dir):
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        del doc["gain_graph"]
        with pytest.raises(InputError, match="gain_graph"):
            parse_framework(doc)


class TestAnalyzeCommand:
    def test_cs_stewart_flexible(self, capsys, fixture_dir):
        code, out = run(capsys, ["analyze", str(fixture_dir / "cs_stewart.json")])
        assert code == EXIT_FLEXIBLE
        doc = json.loads(out)
        anti = next(r for r in doc["irreps"] if r["irrep"] == [1])
        assert (anti["rank"], anti["trivial"], anti["flex"]) == (2, 3, 1)
        assert doc["consistent"] is True

    def test_c2_stewart_rigid(self, capsys, fixture_dir):
        code, out = run(capsys, ["analyze", str(fixture_dir / "c2_stewart.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert doc["rigid"] is True and doc["isostatic"] is True

    def test_trivial_five_bars_flexible(self, capsys, fixture_dir):
        code, out = run(capsys, ["analyze", str(fixture_dir / "trivial_2body_5bars.json")])
        assert code == EXIT_FLEXIBLE

    def test_hinge_fixture(self, capsys, fixture_dir):
        code, out = run(capsys, ["analyze", str(fixture_dir / "cs_hinge.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert doc["consistent"] is True

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent.json"]) == EXIT_INPUT

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        assert main(["analyze", str(bad)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_byte_identical_output(self, capsys, fixture_dir):
        _, out1 = run(capsys, ["analyze", str(fixture_dir / "c2_stewart.json"), "--seed", "7"])
        _, out2 = run(capsys, ["analyze", str(fixture_dir / "c2_stewart.json"), "--seed", "7"])
        assert out1 == out2

    def test_explicit_configuration(self, capsys, fixture_dir, tmp_path):
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        doc["configuration"] = {
            "bars": {
                "0": {"points": [[1, 2, 3], [9, "8/3", 7]]},
                "1": {"points": [[4, 0, 5], [1, 1, 6]]},
                "2": {"points": [[2, 7, 1]]},
                "3": {"points": [[3, 1, 4]]},
            }
        }
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["analyze", str(path)])
        assert code == EXIT_FLEXIBLE
        report = json.loads(out)
        anti = next(r for r in report["irreps"] if r["irrep"] == [1])
        assert anti["flex"] == 1


class TestCertifyCommand:
    def test_c2_certificates(self, capsys, fixture_dir):
        code, out = run(capsys, ["certify", str(fixture_dir / "c2_stewart.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        by_irrep = {tuple(c["irrep"]): c for c in doc["certificates"]}
        sym = by_irrep[(0,)]
        used = {label for label, ids in sym["decomposition"].items() if ids}
        assert used == {"(1,2)", "(1,3)", "(2,4)", "(3,4)"}
        anti = by_irrep[(1,)]
        used = {label for label, ids in anti["decomposition"].items() if ids}
        assert used <= {"(1,4)", "(2,3)"}

    def test_cs_flexible_reports_deficiency(self, capsys, fixture_dir):
        code, out = run(capsys, ["certify", str(fixture_dir / "cs_stewart.json")])
        assert code == EXIT_FLEXIBLE
        doc = json.loads(out)
        anti = next(c for c in doc["certificates"] if c["irrep"] == [1])
        assert (anti["target"], anti["rank"], anti["deficiency"]) == (3, 2, 1)
        sym = next(c for c in doc["certificates"] if c["irrep"] == [0])
        assert sym["edges"] == 4 and sym["target"] == 3
        assert sym["count_matches_target"] is False

    def test_irrep_filter(self, capsys, fixture_dir):
        code, out = run(capsys, ["certify", str(fixture_dir / "cs_stewart.json"), "--irrep", "0"])
        assert code == EXIT_RIGID  # the symmetric block alone is rigid
        doc = json.loads(out)
        assert [c["irrep"] for c in doc["certificates"]] == [[0]]

    def test_oracle_flag(self, capsys, fixture_dir):
        code, out = run(
            capsys, ["certify", str(fixture_dir / "c2_stewart.json"), "--oracle"]
        )
        doc = json.loads(out)
        for cert in doc["certificates"]:
            assert cert["counting_violation"] is None

    def test_trivial_parallel_edges_spanning_trees(self, capsys, fixture_dir):
        code, out = run(capsys, ["certify", str(fixture_dir / "trivial_2body_6bars.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        cert = doc["certificates"][0]
        parts = [ids for ids in cert["decomposition"].values() if ids]
        assert sorted(len(p) for p in parts) == [1] * 6


class TestFlexCommand:
    def test_cs_flex(self, capsys, fixture_dir):
        code, out = run(capsys, ["flex", str(fixture_dir / "cs_stewart.json"), "--irrep", "1"])
        assert code == EXIT_FLEXIBLE
        doc = json.loads(out)
        assert len(doc["flexes"]) == 1
        assert doc["flexes"][0]["irrep"] == [1]

    def test_c2_no_flex(self, capsys, fixture_dir):
        code, out = run(capsys, ["flex", str(fixture_dir / "c2_stewart.json")])
        assert code == EXIT_RIGID
        assert json.loads(out)["flexes"] == []

    def test_six_bars_at_d6(self, capsys, fixture_dir, tmp_path):
        """Two bodies joined by six bars in 6-space, 15 short of rigid: the
        flex is projected off the 21 trivial motions, and its output (first
        16 hex digits of the sha256 of stdout) is the one the Fraction
        Gram-Schmidt projection gave."""
        doc = json.loads((fixture_dir / "trivial_2body_6bars.json").read_text())
        doc["representation"]["d"] = 6
        path = tmp_path / "six_bars_d6.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["flex", str(path)])
        assert code == EXIT_FLEXIBLE
        (flex,) = json.loads(out)["flexes"]
        u, v = flex["assignment"]["u"], flex["assignment"]["v"]
        # u moves against v, and the flex is scaled to lead with 1
        assert u[0] == "1" and v == [str(-Fraction(x)) for x in u]
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "ff13234332311cc4"


class TestLiftCommand:
    def test_cs_lift_counts(self, capsys, fixture_dir):
        code, out = run(capsys, ["lift", str(fixture_dir / "cs_stewart.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert len(doc["vertices"]) == 2
        assert len(doc["edges"]) == 6

    def test_deterministic(self, capsys, fixture_dir):
        _, out1 = run(capsys, ["lift", str(fixture_dir / "cs_stewart.json"), "--seed", "3"])
        _, out2 = run(capsys, ["lift", str(fixture_dir / "cs_stewart.json"), "--seed", "3"])
        assert out1 == out2


class TestCrosscheckCommand:
    def test_empty_run(self, capsys):
        code, out = run(capsys, ["crosscheck", "--count", "0"])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert doc["count"] == 0 and doc["ok"] is True

    def test_small_batch(self, capsys):
        code, out = run(capsys, ["crosscheck", "--count", "5", "--group", "2", "--seed", "3"])
        assert code == EXIT_RIGID
        assert json.loads(out)["mismatches"] == []

    def test_trivial_group(self, capsys):
        """On one vertex the trivial group admits no bar, so every graph is
        drawn on at least two."""
        argv = ["crosscheck", "--count", "20", "--group", "trivial", "--seed", "7"]
        code, out = run(capsys, argv)
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert doc["group"]["orders"] == [] and doc["ok"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ["--group", "q"],
            ["--group", "2x2x2", "--dim", "2"],
            ["--group", "4"],
            ["--group", "3"],
            ["--dim", "0"],
            ["--max-vertices", "0"],
            ["--max-edges", "0"],
            ["--count", "-1"],
            ["--group", "trivial", "--max-vertices", "1"],
        ],
        ids=[
            "group-q", "group-2x2x2-dim-2", "group-4", "group-3",
            "dim-0", "max-vertices-0", "max-edges-0", "count-minus-1",
            "trivial-max-vertices-1",
        ],
    )
    def test_bad_arguments(self, capsys, args):
        """A malformed group spec, a group and dimension with no faithful
        diagonal +-1 representation, and sizes with nothing to sample are
        input errors, rejected before any sampling."""
        assert main(["crosscheck", "--count", "1", *args]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")


class TestInternedRepresentations:
    """Representations are shared across ``main`` calls in one process
    (``PointRepresentation.from_generators``); what they cache changes no
    output."""

    def test_crosscheck_runs_match_a_fresh_process(self, capsys):
        argv = ["crosscheck", "--count", "20", "--group", "2x2"]
        first, second = run(capsys, argv), run(capsys, argv)
        assert first == second and first[0] == EXIT_RIGID
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "orbitrig.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == first

    def test_fixed_screws_found_once_per_character(self, capsys, monkeypatch, fixture_dir):
        calls = []
        basis = symmetry.fixed_subspace_basis

        def counting(rep, j):
            calls.append(j)
            return basis(rep, j)

        monkeypatch.setattr(symmetry, "fixed_subspace_basis", counting)
        golden = json.loads((TESTS / "golden_cli.json").read_text(encoding="utf-8"))
        expected = golden["c2_stewart analyze json"]
        argv = ["analyze", str(fixture_dir / "c2_stewart.json"), "--format", "json"]
        for _ in range(2):
            code, out = run(capsys, argv)
            assert {"code": code, "stdout": out} == expected
        assert sorted(calls) == [(0,), (1,)]


class TestExplicitHingeConfiguration:
    def test_axis_hinge_input(self, capsys, fixture_dir, tmp_path):
        doc = json.loads((fixture_dir / "trivial_2body_1hinge.json").read_text())
        doc["configuration"] = {"hinges": {"0": {"points": [[0, 0, 0], [1, 0, 0]]}}}
        path = tmp_path / "hinge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["analyze", str(path)])
        assert code == EXIT_FLEXIBLE
        report = json.loads(out)
        assert report["irreps"][0]["rank"] == 5
        assert report["irreps"][0]["flex"] == 1

    def test_wrong_point_count(self, capsys, fixture_dir, tmp_path):
        doc = json.loads((fixture_dir / "trivial_2body_1hinge.json").read_text())
        doc["configuration"] = {"hinges": {"0": {"points": [[0, 0, 0]]}}}
        path = tmp_path / "hinge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_INPUT

    def test_collinear_hinges_are_flexible_not_inconsistent(self, capsys, fixture_dir, tmp_path):
        """Two explicit hinges on one line leave the rotation about it: the
        numeric path finds flex 1 where the matroid path counts the generic
        deficiency 0.  An explicit configuration is never checked for
        agreement, so this exits 1 like six collinear explicit bars."""
        doc = json.loads((fixture_dir / "trivial_2body_1hinge.json").read_text())
        doc["gain_graph"]["edges"].append({"id": 1, "tail": "u", "head": "v", "gain": []})
        doc["configuration"] = {"hinges": {"0": {"points": [[0, 0, 0], [1, 0, 0]]},
                                           "1": {"points": [[2, 0, 0], [5, 0, 0]]}}}
        path = tmp_path / "collinear.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["analyze", str(path)])
        assert code == EXIT_FLEXIBLE
        report = json.loads(out)
        assert report["consistent"] is True
        assert report["irreps"][0]["flex"] == 1
        assert report["combinatorial"][0]["deficiency"] == 0


class TestExplicitConfigurationRoundTrip:
    """One parser reads both kinds: a document that gives a drawn
    configuration's generating points parses to the same entries."""

    @staticmethod
    def _doc(h, rep, model: str, config) -> dict:
        key = "hinges" if model == "body-hinge" else "bars"
        doc = serialize_instance(h, rep, seed=0)
        doc["model"] = model
        doc["configuration"] = {key: {
            str(eid): {"points": [[str(x) for x in p[:-1]] for p in entry.points]}
            for eid, entry in config.entries.items()
        }}
        return doc

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bars_with_a_non_free_loop(self, d):
        rep = mirror_rep_d(d)
        h = make_gain_graph(
            ["u", "v"], [(0, "u", "v", (0,)), (1, "v", "v", (1,)), (2, "u", "u", (1,))],
            loops_l=[1], group=rep.group,
        )
        config = random_generic_bars(h, rep, seed=d)
        parsed = parse_framework(self._doc(h, rep, "body-bar", config))["config"]
        assert type(parsed) is BarConfiguration
        assert parsed.entries == config.entries

    @pytest.mark.parametrize("d", [3, 4])
    def test_hinges(self, d):
        rep = mirror_rep_d(d)
        h = make_gain_graph(
            ["u", "v"], [(0, "u", "v", (0,)), (1, "u", "v", (1,)), (2, "u", "u", (1,))],
            group=rep.group,
        )
        config = random_generic_hinges(h, rep, seed=d)
        parsed = parse_framework(self._doc(h, rep, "body-hinge", config))["config"]
        assert type(parsed) is HingeConfiguration
        assert parsed.entries == config.entries

    @pytest.mark.parametrize("eid, points", [
        pytest.param("0", [[1, 2, 3]], id="free-bar-one-point"),
        pytest.param("2", [[1, 2, 3], [4, 5, 6]], id="non-free-loop-two-points"),
    ])
    def test_wrong_point_count(self, capsys, fixture_dir, tmp_path, eid, points):
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        bars = {"0": {"points": [[1, 2, 3], [4, 5, 6]]}, "1": {"points": [[0, 1, 2], [7, 1, 1]]},
                "2": {"points": [[2, 7, 1]]}, "3": {"points": [[3, 1, 4]]}}
        bars[eid]["points"] = points
        doc["configuration"] = {"bars": bars}
        path = tmp_path / "bars.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_INPUT
        assert f"bar of edge {eid} takes" in capsys.readouterr().err


class TestNonFaithfulRepresentation:
    @staticmethod
    def _doc(model: str) -> dict:
        """Group (2) acting by the identity on three a-b edges."""
        return {
            "schema": 1,
            "model": model,
            "group": {"orders": [2]},
            "representation": {"d": 3, "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
            "gain_graph": {
                "vertices": ["a", "b"],
                "edges": [{"id": i, "tail": "a", "head": "b", "gain": [g]}
                          for i, g in enumerate((0, 1, 0))],
            },
        }

    def test_hinge_runs_the_numeric_path_like_bars(self, capsys, tmp_path):
        """The matroid path needs a faithful representation; without one both
        models report the numeric path alone, with no combinatorial key."""
        codes = {}
        for model in ("body-bar", "body-hinge"):
            path = tmp_path / f"{model}.json"
            path.write_text(json.dumps(self._doc(model)), encoding="utf-8")
            codes[model], out = run(capsys, ["analyze", str(path)])
            report = json.loads(out)
            assert "combinatorial" not in report
            assert codes[model] == (EXIT_RIGID if report["rigid"] else EXIT_FLEXIBLE)
        assert codes["body-hinge"] == codes["body-bar"] == EXIT_FLEXIBLE


def _quarter_turn_doc() -> dict:
    return {
        "schema": 1,
        "group": {"orders": [4]},
        "representation": {
            "d": 3,
            "generators": [[["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]]],
        },
        "gain_graph": {
            "vertices": ["v"],
            "edges": [{"id": 0, "tail": "v", "head": "v", "gain": [1], "inL": False}],
        },
    }


class TestUnsupportedGroupPaths:
    def test_certify_rejects_order_four_group(self, capsys, tmp_path):
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(_quarter_turn_doc()), encoding="utf-8")
        assert main(["certify", str(path)]) == EXIT_INPUT

    def test_analyze_handles_order_four_group(self, capsys, tmp_path):
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(_quarter_turn_doc()), encoding="utf-8")
        code, out = run(capsys, ["analyze", str(path)])
        assert code == EXIT_FLEXIBLE
        report = json.loads(out)
        assert len(report["irreps"]) == 4
        assert "combinatorial" not in report

    def test_flex_rejects_complex_characters_before_any_block(
        self, capsys, tmp_path, monkeypatch
    ):
        """Character 0 of the quarter turn is real and comes first, and 1 is
        not: the rejection comes before any block, the real ones' too."""
        import orbitrig.cli

        built = []
        monkeypatch.setattr(orbitrig.cli, "orbit_matrix", lambda *a: built.append(a))
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(_quarter_turn_doc()), encoding="utf-8")
        assert main(["flex", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: flex extraction is implemented for the exact rational path\n"
        )
        assert built == []


class TestReplaySerialization:
    def test_crosscheck_instance_round_trips(self):
        import random as _random

        from orbitrig.ensemble import random_diagonal_rep, random_gain_graph, serialize_instance

        rng = _random.Random(99)
        rep = random_diagonal_rep(rng, (2, 2), 3)
        h = random_gain_graph(rng, rep.group, 4, 8)
        doc = serialize_instance(h, rep, seed=123)
        fw = parse_framework(doc)
        assert fw["graph"] == h
        assert fw["rep"].integer_images == rep.integer_images

    def test_lift_hinge_model(self, capsys, fixture_dir):
        code, out = run(capsys, ["lift", str(fixture_dir / "cs_hinge.json")])
        assert code == EXIT_RIGID
        doc = json.loads(out)
        assert doc["model"] == "body-hinge"
        assert len(doc["edges"]) == 6
        assert all("hinge" in e and e["points"] for e in doc["edges"])

    def test_analyze_oracle_flag(self, capsys, fixture_dir):
        code, out = run(capsys, ["analyze", str(fixture_dir / "cs_stewart.json"), "--oracle"])
        assert code == EXIT_FLEXIBLE
        doc = json.loads(out)
        # the symmetric block's full edge set is row-dependent: 4 > 3
        assert doc["counting_violations"]["[0]"]["size"] == 4
        assert doc["counting_violations"]["[0]"]["bound"] == 3
        assert doc["counting_violations"]["[1]"] is None

    def test_analyze_oracle_flag_body_hinge(self, capsys, fixture_dir):
        """On a body-hinge document the violations are on the multiplied
        graph, as ``certify --oracle`` reports them."""
        path = str(fixture_dir / "cs_hinge.json")
        code, out = run(capsys, ["analyze", path, "--oracle"])
        assert code == EXIT_RIGID
        violation = json.loads(out)["counting_violations"]["[0]"]
        assert violation == {"edges": [[0, 1], [0, 2], [0, 3], [0, 4]], "size": 4, "bound": 3}
        _, out = run(capsys, ["certify", path, "--oracle"])
        assert json.loads(out)["certificates"][0]["counting_violation"] == violation


class TestBodyHingePreconditions:
    """A body-hinge framework needs d >= 2 and a group acting freely on its
    edges; every command checks both before it reads a hinge."""

    NON_FREE = (
        "input error: body-hinge analysis requires the group to act freely on edges "
        "(non-free loops present: ['2', '3'])\n"
    )
    D1 = "input error: a hinge needs d >= 2, since it spans d-1 points; got d=1\n"

    @staticmethod
    def _write(tmp_path, doc) -> str:
        path = tmp_path / "hinges.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @staticmethod
    def _d1_doc() -> dict:
        return {
            "schema": 1, "model": "body-hinge", "group": {"orders": [2]},
            "representation": {"d": 1, "generators": [[["-1"]]]},
            "gain_graph": {"vertices": ["a", "b"], "edges": [
                {"id": 0, "tail": "a", "head": "b", "gain": [0]},
                {"id": 1, "tail": "a", "head": "b", "gain": [1]},
            ]},
        }

    @pytest.mark.parametrize("command", ["analyze", "certify", "lift"])
    @pytest.mark.parametrize("points", [None, 5])
    def test_non_free_loops_exit_2(self, capsys, tmp_path, fixture_dir, command, points):
        """``certify`` used to certify this framework, which the model does
        not define; an explicit configuration is refused before its points
        are read, here malformed ones."""
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        doc["model"] = "body-hinge"
        if points is not None:
            doc["configuration"] = {"hinges": {str(e): {"points": points} for e in range(4)}}
        assert main([command, self._write(tmp_path, doc)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.NON_FREE)

    @pytest.mark.parametrize("command", ["analyze", "certify", "lift"])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_dimension_one_exits_2(self, capsys, tmp_path, command, explicit):
        """These used to say ``multiplicity must be >= 1`` or ``cannot wedge
        0 vectors``, which do not name the cause."""
        doc = self._d1_doc()
        if explicit:
            doc["configuration"] = {"hinges": {"0": {"points": []}, "1": {"points": []}}}
        assert main([command, self._write(tmp_path, doc)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", self.D1)

    @pytest.mark.parametrize("samples", [1, 2, 3])
    def test_explicit_hinges_are_one_sample(self, capsys, tmp_path, fixture_dir, samples):
        """Every sample of an explicit configuration is the same framework,
        so an unproven block is ranked once whatever ``--samples`` says;
        the metadata records the explicit source, and no seed, bound or
        sample count, since nothing is drawn."""
        doc = json.loads((fixture_dir / "trivial_2body_1hinge.json").read_text())
        doc["gain_graph"]["edges"].append({"id": 1, "tail": "u", "head": "v", "gain": []})
        doc["configuration"] = {"hinges": {"0": {"points": [[0, 0, 0], [1, 0, 0]]},
                                           "1": {"points": [[2, 0, 0], [5, 0, 0]]}}}
        path = self._write(tmp_path, doc)
        code, out = run(capsys, ["analyze", path, "--samples", str(samples)])
        assert code == EXIT_FLEXIBLE
        report = json.loads(out)
        assert [(r["proof"], r["sample_ranks"]) for r in report["irreps"]] == [(None, [5])]
        assert report["numeric"]["meta"] == {
            "source": "explicit", "model": "body-hinge", "bars_per_hinge": 5}


@pytest.mark.parametrize("d", [13, 16, 100])
def test_dimension_above_the_limit_exits_2(capsys, tmp_path, fixture_dir, d):
    """d is limited to MAX_D = 12, where the slowest command takes seconds;
    a larger d exits 2, naming the limit, before any image is built."""
    doc = json.loads((fixture_dir / "trivial_2body_6bars.json").read_text())
    doc["representation"]["d"] = 12
    assert parse_framework(doc)["rep"].d == 12
    doc["representation"]["d"] = d
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("analyze", "certify", "flex", "lift"):
        assert main([command, str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: d = {d} is above the supported limit MAX_D = 12\n"
        )
    assert main(["crosscheck", "--count", "1", "--dim", str(d)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"input error: dimension must be from 1 to MAX_D = 12, got {d}\n"
    )


class TestInputBoundary:
    @staticmethod
    def _write(tmp_path, fixture_dir, edit) -> str:
        doc = json.loads((fixture_dir / "cs_stewart.json").read_text())
        edit(doc["gain_graph"])
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g.update(vertices=[["v"]]),
            lambda g: g.update(vertices=[True]),
            lambda g: g["edges"][0].update(id=1.5),
            lambda g: g["edges"][0].update(id=[0]),
            lambda g: g["edges"][0].update(id=False),
            lambda g: g["edges"][0].update(tail=["v"]),
            lambda g: g["edges"][0].update(head={"v": 1}),
        ],
    )
    def test_ids_must_be_strings_or_integers(self, capsys, tmp_path, fixture_dir, edit):
        path = self._write(tmp_path, fixture_dir, edit)
        assert main(["analyze", path]) == EXIT_INPUT
        assert "must be a string or an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda g: g["edges"][1].update(id="0"),
            lambda g: g["edges"][1].update(id=0),
            lambda g: g.update(vertices=[0, "0"]),
        ],
    )
    def test_ids_with_one_string_form_are_duplicates(self, capsys, tmp_path, fixture_dir, edit):
        path = self._write(tmp_path, fixture_dir, edit)
        for command in ("analyze", "certify"):
            assert main([command, path]) == EXIT_INPUT
            assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fixture, edit",
        [
            ("trivial_2body_6bars", lambda doc: doc.update(representation={"d": True})),
            ("trivial_2body_6bars", lambda doc: doc["representation"].update(d="3")),
            ("trivial_2body_6bars", lambda doc: doc["representation"].update(d=0)),
            ("cs_stewart", lambda doc: doc["representation"].update(generators=5)),
            ("cs_stewart", lambda doc: doc["group"].update(orders=2)),
            ("cs_stewart", lambda doc: doc.update(group=5)),
            ("cs_stewart", lambda doc: doc["gain_graph"].update(vertices="v")),
            ("cs_stewart", lambda doc: doc["gain_graph"].update(edges=5)),
            ("cs_stewart", lambda doc: doc["gain_graph"]["edges"][0].update(gain="1")),
            ("cs_stewart", lambda doc: doc["gain_graph"]["edges"][0].update(gain=[True])),
            ("cs_stewart", lambda doc: doc["gain_graph"]["edges"][0].update(inL="no")),
        ],
    )
    def test_malformed_fields_exit_2(self, capsys, tmp_path, fixture_dir, fixture, edit):
        """Wrong JSON types for d, orders, generators, vertices, edges, gains
        and inL are input errors, not analyzed as something else and not
        internal errors."""
        doc = json.loads((fixture_dir / f"{fixture}.json").read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize(
        "fixture, configuration",
        [
            ("cs_stewart", {"bars": {"0": {"points": 5}}}),
            ("cs_stewart", {"bars": {"0": {"points": [5, [1, 2, 3]]}}}),
            ("cs_stewart", {"bars": {"0": {"points": ["123", [1, 2, 3]]}}}),
            ("cs_stewart", {"bars": 5}),
            ("cs_stewart", {"bars": ["0"]}),
            ("trivial_2body_1hinge", {"hinges": {"0": {"points": 5}}}),
            ("trivial_2body_1hinge", {"hinges": {"0": {"points": [[0, 0, 0], 7]}}}),
            ("trivial_2body_1hinge", {"hinges": 5}),
        ],
    )
    def test_malformed_configuration_exits_2(
        self, capsys, tmp_path, fixture_dir, fixture, configuration
    ):
        """An explicit bar or hinge configuration whose entry map is not an
        object, or whose points or a point are not arrays, is an input
        error (these used to exit 3 with a TypeError, or read a string as
        a point)."""
        doc = json.loads((fixture_dir / f"{fixture}.json").read_text())
        doc["configuration"] = configuration
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("analyze", "flex", "lift"):
            assert main([command, str(path)]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    @pytest.mark.parametrize("irrep", ["a", "0;1,x"])
    def test_non_integer_irrep_exits_2(self, capsys, fixture_dir, command, irrep):
        code = main([command, str(fixture_dir / "cs_stewart.json"), "--irrep", irrep])
        assert code == EXIT_INPUT
        bad = irrep.split(";")[-1]
        assert capsys.readouterr().err == (
            f"input error: --irrep {bad!r} is not a comma-separated list of integers\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "certify", "flex"])
    @pytest.mark.parametrize("irrep", ["2", "-1", "0,0"])
    def test_irrep_outside_the_group_exits_2(self, capsys, fixture_dir, command, irrep):
        """A character label is an element as it is written, reduced and of
        the group's arity; the library never reduces it again."""
        code = main([command, str(fixture_dir / "cs_stewart.json"), "--irrep", irrep])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: --irrep {irrep!r} is not an element of the group\n"

    @pytest.mark.parametrize("command", ["analyze", "certify", "flex"])
    @pytest.mark.parametrize("fixture, irrep, twice", [
        ("c2_stewart", "0;0", [0]),
        ("c2_stewart", "1;0;1,", [1]),
        ("trivial_2body_5bars", ";", []),
    ])
    def test_irrep_named_twice_exits_2(self, capsys, fixture_dir, command, fixture, irrep, twice):
        """A character named twice used to be shown once by ``analyze`` but
        certified, or its flex printed, twice."""
        code = main([command, str(fixture_dir / f"{fixture}.json"), "--irrep", irrep])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: --irrep names the character {twice} twice\n"

    @pytest.mark.parametrize("samples", [0, -3])
    @pytest.mark.parametrize("fixture, configuration", [
        ("cs_stewart", None),
        ("cs_stewart", {"bars": {"0": {"points": [[1, 2, 3], [4, 5, 6]]},
                                 "1": {"points": [[0, 1, 2], [7, 1, 1]]},
                                 "2": {"points": [[2, 7, 1]]},
                                 "3": {"points": [[3, 1, 4]]}}}),
        ("trivial_2body_1hinge", None),
        ("trivial_2body_1hinge", {"hinges": {"0": {"points": [[0, 0, 0], [1, 0, 0]]}}}),
    ], ids=["bars", "explicit-bars", "hinges", "explicit-hinges"])
    def test_samples_below_one_exits_2(self, capsys, tmp_path, fixture_dir, samples, fixture,
                                       configuration):
        """An explicit configuration is its one sample, but ``--samples``
        below 1 is refused for it as for a sampled one (explicit documents
        used to be analyzed, a hinge one recording the count in its meta)."""
        doc = json.loads((fixture_dir / f"{fixture}.json").read_text())
        doc["configuration"] = configuration
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path), "--samples", str(samples)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "input error: need at least one sample\n")

    @pytest.mark.parametrize("command", ["analyze", "certify", "flex", "lift"])
    @pytest.mark.parametrize("gain", [[2], [-1], [0, 0]])
    def test_gain_outside_the_group_exits_2(self, capsys, tmp_path, fixture_dir, command, gain):
        path = self._write(tmp_path, fixture_dir, lambda g: g["edges"][0].update(gain=gain))
        assert main([command, path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: edge 0 gain {tuple(gain)} not in group (2,)\n"

    @pytest.mark.parametrize("command", ["analyze", "certify", "flex", "lift"])
    def test_empty_gain_graph_exits_2(self, capsys, tmp_path, fixture_dir, command):
        """No vertices used to exit 3 on analyze (negative flex count) and to
        certify as rigid with a negative target."""
        path = self._write(tmp_path, fixture_dir, lambda g: g.update(vertices=[], edges=[]))
        assert main([command, path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: gain graph has no vertices\n"

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
        pytest.param(
            b'{"schema": 1, "group": {"orders": [' + b"9" * 5000 + b"]}}",
            "Exceeds the limit",
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="this interpreter converts integers of any length"),
        ),
    ], ids=["not-utf-8", "nested-100000-deep", "integer-of-5000-digits"])
    def test_unreadable_json_exits_2(self, capsys, tmp_path, command, content, message):
        """A file that the JSON reader cannot turn into a document used to
        exit 3 as an internal error."""
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([command, str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {path}: ")
        assert message in captured.err and captured.err.count("\n") == 1

    def test_unexpected_exception_exits_3(self, capsys, fixture_dir, monkeypatch):
        import orbitrig.cli as cli

        def broken(doc):
            raise TypeError("unexpected\nfailure")

        monkeypatch.setattr(cli, "parse_framework", broken)
        code = main(["analyze", str(fixture_dir / "cs_stewart.json")])
        captured = capsys.readouterr()
        assert code == EXIT_INCONSISTENT
        assert captured.out == ""
        assert captured.err.startswith("internal error: TypeError")
        assert captured.err.count("\n") == 1


def test_elements_arrive_canonical(capsys, fixture_dir, monkeypatch):
    """Every element that reaches ``element_order`` or ``tau_hat_int`` is a
    tuple of the group, as the input boundary checks it (``contains``,
    ``validate_gains``) or the group builds it: nothing inside reduces an
    element again."""
    from orbitrig import genframe, rigidity
    from orbitrig.symmetry import AbelianGroup

    seen = []
    element_order, tau = AbelianGroup.element_order, symmetry.tau_hat_int

    def checked_order(group, a):
        seen.append((group, a))
        return element_order(group, a)

    def checked_tau(rep, g):
        seen.append((rep.group, g))
        return tau(rep, g)

    monkeypatch.setattr(AbelianGroup, "element_order", checked_order)
    for module in (symmetry, rigidity, genframe):
        monkeypatch.setattr(module, "tau_hat_int", checked_tau)
    runs = [[command, str(path)] for path in sorted(fixture_dir.glob("*.json"))
            for command in ("analyze", "certify", "flex", "lift")]
    runs += [["crosscheck", "--count", "5", "--group", group] for group in ("2", "2x2", "2x2x2")]
    for argv in runs:
        main(argv)
        assert "internal error" not in capsys.readouterr().err
    assert seen and {type(a) for _, a in seen} == {tuple}
    assert all(group.contains(a) for group, a in seen)


IGNORED_OPTIONS = [
    ("certify", ["--seed", "3"]),
    ("certify", ["--samples", "3"]),
    ("flex", ["--samples", "3"]),
    ("flex", ["--oracle"]),
    ("lift", ["--samples", "3"]),
    ("lift", ["--irrep", "1"]),
    ("lift", ["--oracle"]),
    ("crosscheck", ["--samples", "3"]),
    ("crosscheck", ["--irrep", "1"]),
    ("crosscheck", ["--oracle"]),
]


@pytest.mark.parametrize(
    "command, option", IGNORED_OPTIONS, ids=[f"{c}{o[0]}" for c, o in IGNORED_OPTIONS]
)
def test_options_a_command_does_not_read_exit_2(capsys, fixture_dir, command, option):
    """Each command takes only the options it reads; argparse refuses the
    rest with exit 2."""
    head = [command]
    if command != "crosscheck":
        head.append(str(fixture_dir / "cs_stewart.json"))
    with pytest.raises(SystemExit) as exc:
        main(head + option)
    assert exc.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
