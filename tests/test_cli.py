from __future__ import annotations

import json

import pytest

from orbitrig.cli import (
    EXIT_FLEXIBLE,
    EXIT_INCONSISTENT,
    EXIT_INPUT,
    EXIT_RIGID,
    main,
    parse_framework,
    parse_rational,
)
from orbitrig.errors import InputError


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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
        doc["schema"] = 99
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
        ],
        ids=[
            "group-q", "group-2x2x2-dim-2", "group-4", "group-3",
            "dim-0", "max-vertices-0", "max-edges-0", "count-minus-1",
        ],
    )
    def test_bad_arguments(self, capsys, args):
        """A malformed group spec, a group and dimension with no faithful
        diagonal +-1 representation, and sizes with nothing to sample are
        input errors, rejected before any sampling."""
        assert main(["crosscheck", "--count", "1", *args]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("input error:")


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
        assert fw["rep"].images == rep.images

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

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    @pytest.mark.parametrize("irrep", ["a", "0;1,x"])
    def test_non_integer_irrep_exits_2(self, capsys, fixture_dir, command, irrep):
        code = main([command, str(fixture_dir / "cs_stewart.json"), "--irrep", irrep])
        assert code == EXIT_INPUT
        bad = irrep.split(";")[-1]
        assert capsys.readouterr().err == (
            f"input error: --irrep {bad!r} is not a comma-separated list of integers\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "certify", "flex", "lift"])
    def test_empty_gain_graph_exits_2(self, capsys, tmp_path, fixture_dir, command):
        """No vertices used to exit 3 on analyze (negative flex count) and to
        certify as rigid with a negative target."""
        path = self._write(tmp_path, fixture_dir, lambda g: g.update(vertices=[], edges=[]))
        assert main([command, path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: gain graph has no vertices\n"

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
