"""CLI: file formats, command behavior, exit codes, determinism."""

import json
import sys
from pathlib import Path

import pytest

from setgames import games, oracles, setfunctions
from setgames.cli import main, parse_game_json
from setgames.errors import FormatError

MATCHING_PENNIES = json.dumps({
    "n": 2, "c": 1, "k": 1,
    "benefit": [{"set": [1], "value": 1.0}, {"set": [2], "value": 1.0}],
    "cost_attacker": [],
    "cost_defender": [],
})

INTERACTION_GAME = json.dumps({
    "n": 2, "c": 2, "k": 2,
    "benefit": [{"set": [1], "value": 1.0}, {"set": [2], "value": 2.0},
                {"set": [1, 2], "value": 5.0}],
    "cost_attacker": [],
    "cost_defender": [],
})


# Games whose `transform` listings are pinned in files next to them: the CI
# fixture with costs (n=3, c=2, k=1) and a 5-target game with c=2 < k=3 and
# all three utilities nonzero, some on masks above their cap.
GOLDEN = Path(__file__).resolve().parent / "golden"

BAD_TOLERANCES = ["abc", "nan", "inf", "-1", "0"]


@pytest.fixture
def pennies_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(MATCHING_PENNIES)
    return str(path)


class TestGameFiles:
    def test_defaults_caps_to_n(self):
        spec = parse_game_json('{"n": 3, "benefit": []}')
        assert spec.attacker_cap == 3 and spec.defender_cap == 3

    def test_rejects_zero_index(self):
        doc = {"n": 2, "benefit": [{"set": [0], "value": 1.0}]}
        with pytest.raises(FormatError):
            parse_game_json(json.dumps(doc))

    def test_rejects_duplicates(self):
        doc = {"n": 2, "benefit": [{"set": [1], "value": 1.0}, {"set": [1], "value": 2.0}]}
        with pytest.raises(FormatError):
            parse_game_json(json.dumps(doc))

    def test_rejects_unsorted_set(self):
        doc = {"n": 2, "benefit": [{"set": [2, 1], "value": 1.0}]}
        with pytest.raises(FormatError):
            parse_game_json(json.dumps(doc))

    def test_json_error_carries_location(self):
        with pytest.raises(FormatError, match="line"):
            parse_game_json("{\n  broken\n}")

    @pytest.mark.parametrize("doc", [
        {"n": True},
        {"n": 2, "c": True},
        {"n": 2, "k": False},
        {"n": 2, "benefit": [{"set": [True], "value": 1.0}]},
        {"n": 2, "benefit": [{"set": [1], "value": True}]},
    ])
    def test_rejects_booleans_as_integers(self, doc):
        with pytest.raises(FormatError):
            parse_game_json(json.dumps(doc))


class TestCommands:
    def test_transform_lists_interactions(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(INTERACTION_GAME)
        assert main(["transform", str(path)]) == 0
        out = capsys.readouterr().out
        assert "{1,2} : 2" in out
        assert "support size 4" in out

    def test_value_past_the_float_range_is_a_parse_error(self, tmp_path, capsys):
        # An integer game value is exact: transform --exact keeps it, and
        # every float path refuses it with exit 1, not an OverflowError.
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "benefit": [{"set": [1], "value": 10**400}]}))
        for command in (["solve"], ["transform"], ["verify"]):
            assert main([*command, str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: set function value is past")
        assert main(["transform", "--exact", str(path)]) == 0
        assert f"{{1}} : {10**400}" in capsys.readouterr().out

    def test_transform_additive_floor(self, tmp_path, capsys):
        doc = {"n": 2, "benefit": [{"set": [1], "value": 1.5},
                                   {"set": [1, 2], "value": 1.5}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["transform", str(path)]) == 0
        out = capsys.readouterr().out
        assert "support size 3" in out  # additive: empty set + singletons

    def test_transform_exact(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(INTERACTION_GAME)
        assert main(["transform", str(path), "--exact"]) == 0
        assert "{1,2} : 2" in capsys.readouterr().out

    def test_transform_float_and_exact_agree_on_capped_defender_cost(self, tmp_path, capsys):
        # k=1: the cost of {1,2} is never paid, and no defender-cost
        # coefficient above one target enters the support.
        doc = {"n": 3, "c": 1, "k": 1, "benefit": [{"set": [1], "value": 2}],
               "cost_defender": [{"set": [1], "value": 1}, {"set": [2], "value": 2},
                                 {"set": [1, 2], "value": 7}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["transform", str(path)]) == 0
        floats = capsys.readouterr().out
        assert main(["transform", str(path), "--exact"]) == 0
        assert capsys.readouterr().out == floats
        assert "support size 4" in floats
        assert "{} : 0 / 0 / 3\n{1} : 2 / 0 / -1\n{2} : 0 / 0 / -2\n{3} : 0 / 0 / 0\n" in floats

    def test_transform_empty_utilities_prints_floor(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": 2}')
        assert main(["transform", str(path)]) == 0
        out = capsys.readouterr().out
        assert "support size 3" in out  # empty set + both singletons, all zero
        assert "{1} : 0 / 0 / 0" in out

    @pytest.mark.parametrize("game", ["costly", "five_targets"])
    @pytest.mark.parametrize("flags", [[], ["--exact"]])
    def test_transform_output_is_pinned(self, game, flags, capsys):
        assert main(["transform", str(GOLDEN / f"{game}.json"), *flags]) == 0
        suffix = "-exact" if flags else ""
        assert capsys.readouterr().out == (GOLDEN / f"{game}.transform{suffix}.txt").read_text()

    def test_solve_writes_report(self, pennies_file, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["solve", pennies_file, "--out", str(out_file)]) == 0
        report = json.loads(out_file.read_text())
        assert report["value"] == pytest.approx(0.5, abs=1e-7)
        assert sum(atom["prob"] for atom in report["defender"]) == pytest.approx(1.0, abs=1e-9)
        assert max(report["gaps"]) <= 1e-6
        assert "error_bound" not in report

    def test_solve_deterministic_bytes(self, pennies_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", pennies_file, "--out", str(a)]) == 0
        assert main(["solve", pennies_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_solve_trace(self, pennies_file, tmp_path):
        trace_file = tmp_path / "trace.jsonl"
        out = tmp_path / "r.json"
        assert main(["solve", pennies_file, "--trace", str(trace_file), "--out", str(out)]) == 0
        records = [json.loads(line) for line in trace_file.read_text().splitlines()]
        assert records
        assert {"iteration", "restricted_value", "attacker_gap", "defender_gap"} <= set(records[0])

    def test_net_command(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 3\n1 2\n2 3\n")
        out = tmp_path / "report.json"
        assert main(["net", str(graph), "--c", "2", "--eps-c", "1.5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "dropped 1 coefficient" in printed
        assert "histogram" in printed
        report = json.loads(out.read_text())
        assert report["error_bound"] == pytest.approx(12.0)  # 2^3 * 1.5

    def test_net_transforms_benefit_once(self, tmp_path, monkeypatch):
        # Counted at the transform engine's entry, which both `moebius` and
        # the compact game build call.
        transform = setfunctions._transform
        calls = []

        def counted(ground, functions, cap, *, signed, exact):
            if signed and any(default or any(values.values()) for values, default in functions):
                calls.append(functions)  # the zero costs cost nothing to transform
            return transform(ground, functions, cap, signed=signed, exact=exact)

        for name, module in list(sys.modules.items()):
            if name == "setgames" or name.startswith("setgames."):
                for attr, value in list(vars(module).items()):
                    if value is transform:
                        monkeypatch.setattr(module, attr, counted)
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 8\n1 2\n2 3\n3 4\n5 6\n6 7\n7 8\n1 5\n2 6\n3 7\n4 8\n")
        out = tmp_path / "report.json"
        assert main(["net", str(graph), "--c", "2", "--eps-c", "0.5", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_net_json_graph(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"nodes": 3, "edges": [[1, 2], [2, 3]]}))
        out = tmp_path / "report.json"
        assert main(["net", str(graph), "--c", "1", "--eps-c", "0", "--out", str(out)]) == 0

    def test_net_exact_threshold_zero_value(self, tmp_path):
        # Free defense of every node: the attacker can never score.
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 3\n1 2\n2 3\n")
        out = tmp_path / "report.json"
        assert main(["net", str(graph), "--c", "2", "--eps-c", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(0.0, abs=1e-7)
        assert report["error_bound"] == 0.0

    def test_net_huge_threshold_gives_singleton_components(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 3\n1 2\n2 3\n")
        out = tmp_path / "report.json"
        assert main(["net", str(graph), "--c", "2", "--eps-c", "99", "--out", str(out)]) == 0
        assert "components (3):" in capsys.readouterr().out

    def test_verify_ok(self, pennies_file, capsys):
        assert main(["verify", pennies_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_builds_the_normal_form_once(self, monkeypatch, capsys):
        # The brute-force value and the decomposition check share one matrix.
        builds = []
        dense_tables = games._dense_tables
        monkeypatch.setattr(games, "_dense_tables", lambda spec: builds.append(spec)
                            or dense_tables(spec))
        assert main(["verify", str(GOLDEN / "costly.json")]) == 0
        assert len(builds) == 1
        assert capsys.readouterr().out.splitlines() == [
            "value: brute force 1.140625, constraint generation 1.140625",
            "max value discrepancy: 0",
            "max payoff decomposition discrepancy: 0",
            "OK",
        ]

    def test_verify_zero_game(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text('{"n": 2}')
        assert main(["verify", str(path)]) == 0

    def test_oracle_tables_are_built_on_first_use(self, pennies_file, monkeypatch, capsys):
        # transform builds the compact game but calls no oracle. Tables an
        # earlier test left would be shared without meeting the guard.
        oracles.prepare.cache_clear()
        monkeypatch.setattr(oracles, "ENUMERATION_GUARD", 1)
        assert main(["transform", pennies_file]) == 0
        assert main(["solve", pennies_file]) == 2
        assert "capacity error" in capsys.readouterr().err

    def test_verify_capacity(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n": 24}')
        assert main(["verify", str(path)]) == 2
        assert "unverifiable" in capsys.readouterr().out


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["solve"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": "two"}')
        assert main(["solve", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve", "/does/not/exist.json"]) == 1

    @pytest.mark.parametrize("command, flag", [("solve", "--out"), ("solve", "--trace"),
                                               ("net", "--out")])
    def test_unwritable_output_is_an_error(self, pennies_file, tmp_path, capsys, command, flag):
        target = str(tmp_path / "missing" / "out.json")
        if command == "solve":
            argv = ["solve", pennies_file, flag, target]
        else:
            graph = tmp_path / "g.txt"
            graph.write_text("nodes 3\n1 2\n2 3\n")
            argv = ["net", str(graph), "--c", "1", "--eps-c", "0", flag, target]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")

    def test_malformed_set_index(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "benefit": [{"set": [0], "value": 1.0}]}))
        assert main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("graph", [
        {"nodes": 3, "edges": [["a", 2]]},
        {"nodes": 3, "edges": [[1.7, 2]]},
        {"nodes": 3, "edges": [[1, 2]], "values": 5},
        {"nodes": 2, "edges": [[1, 2]], "values": [1.0, "a"]},
        {"nodes": True, "edges": []},
        {"nodes": 3, "edges": [[True, 2]]},
    ])
    def test_malformed_graph_json(self, tmp_path, capsys, graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert main(["net", str(path), "--c", "1", "--eps-c", "0"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("values", [[True, 1], ["a"], [float("nan")]])
    def test_bad_node_values_give_the_network_message(self, tmp_path, capsys, values):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": len(values), "edges": [], "values": values}))
        assert main(["net", str(path), "--c", "1", "--eps-c", "0"]) == 1
        err = capsys.readouterr().err
        assert err == "error: node values must be finite real numbers, not booleans\n"

    def test_net_score_overflow_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[1, 2]], "values": [1e200, 1e200]}))
        argv = ["net", str(path), "--c", "1", "--eps-c", "0", "--value-fn", "weighted_component_sum"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: a component mass ** 2.0")

    def test_net_component_mass_overflow_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 2, "edges": [[1, 2]], "values": [1e308, 1e308]}))
        argv = ["net", str(path), "--c", "1", "--eps-c", "0", "--value-fn", "weighted_component_sum"]
        assert main(argv) == 1
        assert "weighted_component_sum" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_solve_rejects_bad_tolerance(self, pennies_file, capsys, tol):
        assert main(["solve", pennies_file, f"--tol={tol}"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_net_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 3\n1 2\n2 3\n")
        assert main(["net", str(graph), "--c", "2", "--eps-c", "0", f"--tol={tol}"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.5", "1e308"])
    def test_net_rejects_bad_threshold(self, tmp_path, capsys, eps):
        graph = tmp_path / "g.txt"
        graph.write_text("nodes 3\n1 2\n2 3\n")
        assert main(["net", str(graph), "--c", "2", f"--eps-c={eps}"]) == 1
        assert capsys.readouterr().err.startswith("error:")
