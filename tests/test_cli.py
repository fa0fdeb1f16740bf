"""Definition-file round-trips, CLI exit codes, and report determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import freequiver
from freequiver import calculus
from freequiver.catalog import (
    block_inverse_map,
    ppt_map,
    sch_quiver,
    schur_map,
    smw_lhs_map,
    smw_quiver,
)
from freequiver.cli import main, parse_dims, parse_poly
from freequiver.errors import ParseError, TypecheckError
from freequiver.exprs import Atom, FreeMapDef, ProductSpec, mul
from freequiver.quivers import Quiver, classical_embed
from freequiver.reps import Rep, random_rep
from freequiver.serialize import (
    dump,
    dumps,
    loads,
    parse_definition_file,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def schur_file(tmp_path):
    p = tmp_path / "schur.map"
    dump(schur_map(), p)
    return str(p)


@pytest.fixture
def point_file(tmp_path):
    p = tmp_path / "point.rep"
    dump(random_rep(sch_quiver(), {"u": 2, "v": 2}, 5), p)
    return str(p)


class TestSerializeRoundTrip:
    def test_quiver(self):
        q = sch_quiver()
        assert loads(dumps(q)) == q

    def test_rep_bytes(self):
        x = random_rep(smw_quiver(), {"u": 3, "v": 2}, 9)
        text = dumps(x)
        again = loads(text)
        assert dumps(again) == text
        for a in x.quiver.arc_names():
            np.testing.assert_array_equal(x.mats[a], again.mats[a])

    def test_map_idempotent_after_one_pass(self, schur_file):
        text = Path(schur_file).read_text()
        assert dumps(parse_definition_file(schur_file)) == text

    def test_parsed_map_matches_constructor(self, schur_file):
        from freequiver.exprs import Inv

        f = parse_definition_file(schur_file)
        assert f == schur_map().normalized()

        def count_inv(e):
            if isinstance(e, Inv):
                return 1 + count_inv(e.of)
            return sum(count_inv(c) for c in getattr(e, "terms", ())) + sum(
                count_inv(c) for c in getattr(e, "factors", ())
            ) + (count_inv(e.of) if hasattr(e, "of") and not isinstance(e, Inv) else 0)

        assert count_inv(f.entries["x"]) == 1

    def test_all_catalog_maps_round_trip(self):
        for f in (schur_map(), ppt_map("pivot_D"), ppt_map("pivot_A"),
                  block_inverse_map()):
            text = dumps(f)
            assert dumps(loads(text)) == text

    def test_product_round_trip(self):
        q = sch_quiver()
        spec = ProductSpec(q, q, q, {
            "x1": ("x1", "x1"), "x2": ("x2", "x2"),
            "x12": ("x12", "x2"), "x21": ("x21", "x1"),
        })
        text = dumps(spec)
        again = loads(text)
        assert dumps(again) == text
        assert again.pairs == spec.pairs

    def test_sub_sugar_normalizes(self, schur_file):
        obj = json.loads(Path(schur_file).read_text())
        obj["entries"]["x"] = {
            "op": "sub",
            "minuend": {"op": "atom", "arc": "x1"},
            "subtrahend": {"op": "mul", "factors": [
                {"op": "atom", "arc": "x12"},
                {"op": "inv", "of": {"op": "atom", "arc": "x2"}},
                {"op": "atom", "arc": "x21"},
            ]},
        }
        once = dumps(loads(json.dumps(obj)))
        assert once == Path(schur_file).read_text()
        assert dumps(loads(once)) == once

    def test_bare_real_scalar_accepted(self):
        obj = {
            "kind": "map",
            "source": {"kind": "quiver", "vertices": ["u"],
                       "arcs": [{"name": "x", "src": "u", "dst": "u"}]},
            "target": {"kind": "quiver", "vertices": ["u"],
                       "arcs": [{"name": "y", "src": "u", "dst": "u"}]},
            "entries": {"y": {"op": "scale", "k": 3, "of": {"op": "atom", "arc": "x"}}},
        }
        f = loads(json.dumps(obj))
        assert f.entries["y"].k == 3 + 0j


class TestSerializeErrors:
    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+, column \d+"):
            loads("{not json")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            loads('{"kind": "groupoid"}')

    def test_unknown_op(self):
        with pytest.raises(ParseError, match="unknown op"):
            loads(json.dumps({
                "kind": "map",
                "source": {"kind": "quiver", "vertices": ["u"],
                           "arcs": [{"name": "x", "src": "u", "dst": "u"}]},
                "target": {"kind": "quiver", "vertices": ["u"],
                           "arcs": [{"name": "y", "src": "u", "dst": "u"}]},
                "entries": {"y": {"op": "transpose", "of": {"op": "atom", "arc": "x"}}},
            }))

    def test_dangling_endpoint_in_quiver(self):
        with pytest.raises(ParseError, match="dangling"):
            loads(json.dumps({
                "kind": "quiver",
                "vertices": ["u"],
                "arcs": [{"name": "x", "src": "u", "dst": "w"}],
            }))

    def test_ragged_matrix(self):
        with pytest.raises(ParseError, match="ragged"):
            loads(json.dumps({
                "kind": "rep",
                "quiver": {"kind": "quiver", "vertices": ["u"],
                           "arcs": [{"name": "x", "src": "u", "dst": "u"}]},
                "dims": {"u": 2},
                "mats": {"x": [[1, 0], [1]]},
            }))

    def test_non_composable_entry_names_the_arcs(self, schur_file):
        obj = json.loads(Path(schur_file).read_text())
        obj["entries"]["x"] = {"op": "mul", "factors": [
            {"op": "atom", "arc": "x12"}, {"op": "atom", "arc": "x12"}]}
        with pytest.raises(TypecheckError, match="x12"):
            loads(json.dumps(obj))

    def test_arc_fields_must_be_strings(self):
        with pytest.raises(ParseError, match=r"arcs\[0\]\.name"):
            loads(json.dumps({
                "kind": "quiver",
                "vertices": ["u"],
                "arcs": [{"name": 5, "src": "u", "dst": "u"}],
            }))

    def test_product_orientation_field(self):
        q = sch_quiver()
        spec = ProductSpec(q, q, q, {
            "x1": ("x1", "x1"), "x2": ("x2", "x2"),
            "x12": ("x12", "x2"), "x21": ("x21", "x1"),
        })
        obj = json.loads(dumps(spec))
        assert "left_multiplication" not in obj
        obj["left_multiplication"] = True
        assert loads(json.dumps(obj)).pairs == spec.pairs
        obj["left_multiplication"] = False
        with pytest.raises(ParseError, match="left_multiplication"):
            loads(json.dumps(obj))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_definition_file(tmp_path / "absent.map")


class TestArgHelpers:
    def test_parse_dims(self):
        assert parse_dims("u=3,v=2") == {"u": 3, "v": 2}

    def test_parse_dims_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_dims("u:3")

    def test_parse_poly_keeps_ints(self):
        assert parse_poly("1,4,0,3") == [1, 4, 0, 3]
        assert parse_poly("1.5,2") == [1.5, 2]


class TestExitCodes:
    def test_coeffs_output(self, capsys):
        assert main(["coeffs", "--poly", "1,4,0,3", "--n", "3"]) == 0
        assert capsys.readouterr().out == "1 4 0\n"

    def test_eval_ok(self, schur_file, point_file, capsys):
        assert main(["eval", "--map", schur_file, "--rep", point_file]) == 0
        assert "x1 - x12 x2^-1 x21" in capsys.readouterr().out

    def test_derive_ok(self, schur_file):
        assert main(["derive", "--map", schur_file, "--dims", "u=3,v=2",
                     "--seed", "4"]) == 0

    def test_certify_collision_exits_1(self, schur_file, capsys):
        code = main(["certify", "--map", schur_file, "--dims", "u=3,v=2",
                     "--seed", "1", "--zero-arc", "x21"])
        assert code == 1
        assert "collision" in capsys.readouterr().out

    def test_certify_full_rank_exits_0(self, tmp_path, capsys):
        p = tmp_path / "ppt.map"
        dump(ppt_map("pivot_D"), p)
        code = main(["certify", "--map", str(p), "--dims", "u=2,v=2",
                     "--seed", "2"])
        assert code == 0
        assert "full_rank" in capsys.readouterr().out

    def test_check_free_ok(self, schur_file):
        assert main(["check-free", "--map", schur_file, "--dims", "u=2,v=2",
                     "--trials", "5", "--seed", "3"]) == 0

    def test_parse_error_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--map", str(tmp_path / "nope.map"),
                     "--dims", "u=2,v=2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_definition_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.map"
        bad.write_text("{broken")
        assert main(["eval", "--map", str(bad), "--dims", "u=2,v=2"]) == 2

    def test_product_with_unknown_arc_exits_2(self, tmp_path, capsys):
        q = sch_quiver()
        obj = json.loads(dumps(ProductSpec(q, q, q, {
            "x1": ("x1", "x1"), "x2": ("x2", "x2"),
            "x12": ("x12", "x2"), "x21": ("x21", "x1"),
        })))
        obj["pairs"]["x1"] = ["x1", "nope"]
        bad = tmp_path / "prod.json"
        bad.write_text(json.dumps(obj))
        assert main(["eval", "--map", str(bad), "--dims", "u=2,v=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'nope'" in err

    def test_deeply_nested_expression_exits_2(self, schur_file, tmp_path, capsys):
        depth = 3000
        obj = json.loads(Path(schur_file).read_text())
        obj["entries"]["x"] = {"op": "atom", "arc": "x1"}
        head, tail = json.dumps(obj).split('{"op": "atom", "arc": "x1"}')
        nested = '{"op": "inv", "of": ' * depth + '{"op": "atom", "arc": "x1"}' + "}" * depth
        deep = tmp_path / "deep.map"
        deep.write_text(head + nested + tail)
        assert main(["eval", "--map", str(deep), "--dims", "u=2,v=2"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", [
        ["eval", "--dims", "u=2,v=2"],
        ["derive", "--dims", "u=2,v=2"],
        ["certify", "--dims", "u=2,v=2"],
        ["check-free", "--dims", "u=2,v=2", "--trials", "2"],
    ])
    def test_expression_past_the_depth_bound_exits_2(self, command, schur_file, tmp_path,
                                                      capsys):
        # deep enough to stop the evaluation's recursion, not yet the parser's
        depth = 600
        obj = json.loads(Path(schur_file).read_text())
        obj["entries"]["x"] = {"op": "atom", "arc": "x1"}
        head, tail = json.dumps(obj).split('{"op": "atom", "arc": "x1"}')
        nested = '{"op": "inv", "of": ' * depth + '{"op": "atom", "arc": "x1"}' + "}" * depth
        deep = tmp_path / "deep.map"
        deep.write_text(head + nested + tail)
        assert main([command[0], "--map", str(deep), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested deeper" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "[1, -Infinity]", "1" + "0" * 400],
                             ids=["nan", "inf", "complex_inf", "int_beyond_floats"])
    def test_non_finite_matrix_entry_exits_2(self, entry, schur_file, tmp_path, capsys):
        x = random_rep(sch_quiver(), {"u": 2, "v": 2}, 5)
        obj = json.loads(dumps(x))
        obj["mats"]["x21"][0][0] = "@"
        p = tmp_path / "bad.rep"
        p.write_text(json.dumps(obj).replace('"@"', entry))
        assert main(["eval", "--map", schur_file, "--rep", str(p)]) == 2
        err = capsys.readouterr().err
        assert "rep.mats.x21[0][0]: expected a finite scalar" in err

    def test_incomplete_dims_exits_2(self, schur_file, capsys):
        assert main(["eval", "--map", schur_file, "--dims", "u=2"]) == 2
        assert "misses vertices" in capsys.readouterr().err

    def test_singular_point_exits_3(self, schur_file, tmp_path, capsys):
        x = random_rep(sch_quiver(), {"u": 2, "v": 2}, 5)
        mats = {a: m.copy() for a, m in x.mats.items()}
        mats["x2"] = np.zeros_like(mats["x2"])
        p = tmp_path / "singular.rep"
        dump(Rep(x.quiver, dict(x.dims), mats), p)
        assert main(["eval", "--map", schur_file, "--rep", str(p)]) == 3
        assert "regularity" in capsys.readouterr().err

    def test_block_mismatch_exits_3(self, schur_file, capsys, monkeypatch):
        monkeypatch.setattr(calculus, "BLOCK_TOL", -1.0)
        code = main(["certify", "--map", schur_file, "--dims", "u=3,v=2",
                     "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("block mismatch:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # x·x overflows at 1e200·I, and the SVD of the non-finite image fails
        q = classical_embed(1)
        f, p = tmp_path / "square.map", tmp_path / "huge.rep"
        dump(FreeMapDef(q, q, {"x": mul(Atom("x"), Atom("x"))}), f)
        dump(Rep(q, {"u": 2}, {"x": 1e200 * np.eye(2)}), p)
        with np.errstate(all="ignore"):
            code = main(["derive", "--map", str(f), "--rep", str(p)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_overflowing_inverse_operand_exits_3(self, tmp_path, capsys):
        # a + U c V overflows at a point scaled by 1e150: a regularity error,
        # not a numerical failure
        f, p = tmp_path / "smw.map", tmp_path / "huge.rep"
        dump(smw_lhs_map(), f)
        x = random_rep(smw_quiver(), {"u": 3, "v": 2}, 0)
        dump(Rep(x.quiver, x.dims, {a: 1e150 * m for a, m in x.mats.items()}), p)
        with np.errstate(all="ignore"):
            code = main(["eval", "--map", str(f), "--rep", str(p)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("regularity error: operand not finite at")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.fixture
    def overflowing_eval(self, tmp_path):
        f, p = tmp_path / "smw.map", tmp_path / "huge.rep"
        dump(smw_lhs_map(), f)
        x = random_rep(smw_quiver(), {"u": 3, "v": 2}, 0)
        dump(Rep(x.quiver, x.dims, {a: 1e150 * m for a, m in x.mats.items()}), p)
        return ["eval", "--map", str(f), "--rep", str(p)]

    def test_overflow_prints_no_numpy_warning(self, overflowing_eval, capsys):
        # no errstate here: main itself keeps numpy's warnings off stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(overflowing_eval)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("regularity error: operand not finite at")
        assert err.count("\n") == 1

    def test_overflow_under_warnings_as_errors_exits_3(self, overflowing_eval):
        src = str(Path(freequiver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "freequiver.cli",
             *overflowing_eval], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 3
        assert done.stderr.startswith("regularity error: operand not finite at")
        assert done.stderr.count("\n") == 1

    def test_broken_block_structure_keeps_the_report(self, one_sided_map, tmp_path, capsys):
        # lemma_part1's certificate raises BlockMismatchError at every X ⊕ Y:
        # those cells are skipped, and similarity fails
        f = tmp_path / "one_sided.map"
        dump(one_sided_map, f)
        code = main(["check-free", "--map", str(f), "--dims", "u=3,v=2", "--seed", "1",
                     "--trials", "4"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert any(line.startswith("FAIL similarity  executed=4 skipped=0") for line in lines)
        assert any(line.startswith("ok   lemma_part1  executed=0 skipped=4") for line in lines)
        assert lines[-1] == "failed"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        assert main(["demo", "smw", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_unknown_demo_exits_2(self, capsys):
        assert main(["demo", "laplace"]) == 2

    def test_demo_rejects_zero_arc(self, capsys):
        # only certify reads --zero-arc
        assert main(["demo", "schur", "--zero-arc", "x21"]) == 2
        assert "--zero-arc" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["derive", "check-free"])
    def test_arcless_target_exits_0(self, command, tmp_path, capsys):
        # a target quiver with a vertex but no arcs: every residual is over no arcs
        p = tmp_path / "noarc.map"
        dump(FreeMapDef(classical_embed(1), Quiver(("u",), ()), {}), p)
        assert main([command, "--map", str(p), "--dims", "u=2", "--seed", "1"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_command_exits_2(self, capsys):
        assert main([]) == 2


class TestDemos:
    @pytest.mark.parametrize("name", ["schur", "ppt", "block-inverse", "smw",
                                      "cbh", "nilpotent"])
    def test_demo_passes(self, name, capsys):
        assert main(["demo", name, "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["schur", "ppt", "block-inverse", "smw",
                                      "cbh", "nilpotent"])
    def test_machine_output_is_byte_stable(self, name, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["demo", name, "--seed", "11", "--format", "machine",
                     "--out", str(a)]) == 0
        assert main(["demo", name, "--seed", "11", "--format", "machine",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_machine_records_are_versioned_json_lines(self, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["demo", "ppt", "--seed", "11", "--format", "machine",
              "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert rec["v"] == 1
            assert "kind" in rec

    def test_nilpotent_golden_bytes(self, tmp_path):
        out = tmp_path / "n.jsonl"
        assert main(["demo", "nilpotent", "--format", "machine",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "demo_nilpotent.jsonl").read_bytes()

    def test_demo_seed_changes_machine_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["demo", "smw", "--seed", "1", "--format", "machine", "--out", str(a)])
        main(["demo", "smw", "--seed", "2", "--format", "machine", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()


class TestSeedEnvFallback:
    def test_env_seed_matches_explicit_flag(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["demo", "smw", "--seed", "23", "--format", "machine", "--out", str(a)])
        monkeypatch.setenv("FREEQUIVER_SEED", "23")
        main(["demo", "smw", "--format", "machine", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("FREEQUIVER_SEED", "twelve")
        assert main(["demo", "smw", "--format", "machine"]) == 2


class TestEvalMachineRoundTrip:
    def test_image_record_parses_back_as_rep(self, schur_file, tmp_path):
        out = tmp_path / "image.jsonl"
        assert main(["eval", "--map", schur_file, "--dims", "u=2,v=2",
                     "--seed", "5", "--format", "machine", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        image = loads(out.read_text())
        assert isinstance(image, Rep)
        assert image.dims == {"u": 2, "v": 2}
        assert rec["kind"] == "rep"

    def test_check_free_machine_record(self, schur_file, tmp_path):
        out = tmp_path / "conf.jsonl"
        assert main(["check-free", "--map", schur_file, "--dims", "u=2,v=2",
                     "--trials", "4", "--seed", "9", "--format", "machine",
                     "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["kind"] == "conformance"
        assert rec["passed"] is True
        assert rec["checks"]["lemma_part1"]["note"] == (
            "conditional on sampled injectivity evidence"
        )


def _locations(obj, path=()):
    """Every path into a parsed JSON value, the root included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ()
    )
    for key, value in items:
        yield from _locations(value, path + (key,))


_NEST = "\u0000nest\u0000"
_JUNK = [None, True, 0, -1, 2.5, "", "x", "ümlaut ∂", [], {}, [[1]],
         {"op": "atom"}, float("nan"), float("inf"), -float("inf")]


def _mutate(obj, path, how, junk, depth):
    """The JSON text of obj with one mutation at path. 'nest' wraps the value
    in depth lists or inverse nodes, spliced in as text so that no depth is
    too deep to write."""
    nested = None
    if not path:
        obj = {"drop": {}, "retype": junk}.get(how, obj)
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        value = parent[key]
        if how == "drop":
            del parent[key]
        elif how == "retype":
            parent[key] = junk
        elif how == "non_ascii" and isinstance(value, str):
            parent[key] = value + "\u00e9\u4e2d"
        elif how == "non_ascii" and isinstance(parent, dict):
            parent[key + "\u00e9"] = parent.pop(key)
        elif how == "nan":
            parent[key] = float("nan") if isinstance(value, (int, float)) else [float("nan")]
        elif how in ("nest_list", "nest_inv"):
            nested = json.dumps(value)
            parent[key] = _NEST
    text = json.dumps(obj, ensure_ascii=False)
    if nested is not None:
        head, tail = ("[" * depth, "]" * depth) if how == "nest_list" else (
            '{"op": "inv", "of": ' * depth, "}" * depth)
        text = text.replace(json.dumps(_NEST), head + nested + tail, 1)
    return text


class TestFuzzedDefinitions:
    @settings(derandomize=True, max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_files_fail_cleanly(self, data, tmp_path, capsys):
        files = {
            "map": json.loads(dumps(schur_map())),
            "rep": json.loads(dumps(random_rep(sch_quiver(), {"u": 2, "v": 2}, 5))),
        }
        target = data.draw(st.sampled_from(sorted(files)))
        obj = files[target]
        path = data.draw(st.sampled_from(list(_locations(obj))))
        how = data.draw(st.sampled_from(
            ["drop", "retype", "non_ascii", "nan", "nest_list", "nest_inv"]))
        junk = data.draw(st.sampled_from(_JUNK))
        depth = data.draw(st.sampled_from([1, 40, 600, 3000]))
        texts = {name: json.dumps(o) for name, o in files.items()}
        texts[target] = _mutate(obj, path, how, junk, depth)
        try:
            loads(texts[target])
        except (ParseError, TypecheckError):
            pass
        paths = {}
        for name, text in texts.items():
            paths[name] = tmp_path / f"fuzz.{name}"
            paths[name].write_text(text, encoding="utf-8")
        capsys.readouterr()
        for argv in (["eval", "--map", str(paths["map"]), "--rep", str(paths["rep"])],
                     ["derive", "--map", str(paths["map"]), "--rep", str(paths["rep"])],
                     ["certify", "--map", str(paths["map"]), "--dims", "u=2,v=1"],
                     ["check-free", "--map", str(paths["map"]), "--dims", "u=2,v=1",
                      "--trials", "1"]):
            assert main(argv) in (0, 1, 2, 3)
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1.0, 1e120, 1e300, 1e-300])
    @pytest.mark.parametrize("label", ["schur", "ppt", "block_inverse", "poly", "cube"])
    def test_scaled_points_fail_cleanly(self, label, scale, tmp_path, capsys):
        # overflowing, underflowing and ordinary points: a verdict or a
        # regularity failure, never a traceback
        loop = classical_embed(1)
        f = {"schur": schur_map(), "ppt": ppt_map("pivot_D"), "block_inverse": block_inverse_map(),
             "poly": freequiver.random_polynomial_map(sch_quiver(), sch_quiver(), 8, max_degree=3),
             "cube": FreeMapDef(loop, loop, {"x": mul(Atom("x"), Atom("x"), Atom("x"))})}[label]
        q = f.source_quiver
        x = random_rep(q, {"u": 3, "v": 2} if len(q.vertices) == 2 else {"u": 3}, 9)
        map_path, rep_path = tmp_path / "f.json", tmp_path / "x.json"
        map_path.write_text(dumps(f), encoding="utf-8")
        rep_path.write_text(dumps(Rep(q, x.dims, {a: m * scale for a, m in x.mats.items()})),
                            encoding="utf-8")
        capsys.readouterr()
        for command in ("eval", "derive", "certify"):
            assert main([command, "--map", str(map_path), "--rep", str(rep_path)]) in (0, 1, 3)
            assert "Traceback" not in capsys.readouterr().err
