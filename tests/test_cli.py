import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import flexcurve
from flexcurve import certain_equivalent, cli, make_discrete, model_io
from flexcurve.cli import main

from conftest import mp_certain_equivalent, mp_crossing, oracle_ce


MODEL = {
    "prospects": {
        "x": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]},
        "d": {"kind": "discrete", "points": [[10, 1.0]]},
        "g": {"kind": "gaussian", "mean": 10, "variance": 4},
    },
    "tree": {
        "root": "root",
        "nodes": {
            "root": {"kind": "decision", "children": [["sure", "t"], ["risk", "c"]]},
            "t": {"kind": "terminal", "payoff": 10},
            "c": {"kind": "chance", "children": [[0.5, "lo"], [0.5, "hi"]]},
            "lo": {"kind": "terminal", "payoff": 0},
            "hi": {"kind": "terminal", "payoff": 100},
        },
    },
    "defaults": {"r": 0.01, "k": "1:100:5"},
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCe:
    def test_two_point(self, model_path, capsys):
        code, out, err = run(capsys, "ce", "--model", model_path, "--id", "x", "--r", "0.01")
        assert code == 0 and err == ""
        assert float(out) == pytest.approx(37.9885493, abs=1e-4)

    def test_default_r_from_model(self, model_path, capsys):
        code, out, _ = run(capsys, "ce", "--model", model_path, "--id", "x")
        assert code == 0
        assert float(out) == pytest.approx(37.9885493, abs=1e-4)

    def test_risk_neutral_prints_mean(self, model_path, capsys):
        code, out, _ = run(capsys, "ce", "--model", model_path, "--id", "x", "--r", "0")
        assert code == 0
        assert out == "50\n"

    def test_out_file(self, model_path, capsys, tmp_path):
        target = tmp_path / "ce.txt"
        code, out, _ = run(
            capsys, "ce", "--model", model_path, "--id", "d", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == "10\n"


class TestCurve:
    def test_header_and_shape(self, model_path, capsys):
        code, out, _ = run(
            capsys, "curve", "--model", model_path, "--ids", "x,d", "--k", "1:100:5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,x,d"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(37.9885493, abs=1e-4)
        assert first[2] == "10"

    def test_no_negative_zero(self, model_path, capsys):
        # Gaussian(10, 4) at r=0.5, k=10 has CE exactly 0
        code, out, _ = run(
            capsys, "curve", "--model", model_path, "--ids", "g", "--r", "0.5", "--k", "1:10:2"
        )
        assert code == 0
        assert out.splitlines()[-1] == "10,0"
        assert "-0," not in out and not out.endswith("-0\n")

    def test_tree_node_column(self, model_path, capsys):
        code, out, _ = run(
            capsys, "curve", "--model", model_path, "--ids", "root,t", "--k", "1:1:1"
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(37.9885493, abs=1e-4)
        assert row[2] == "10"

    def test_byte_determinism(self, model_path, capsys):
        args = ("curve", "--model", model_path, "--ids", "x,g,d", "--k", "1:50:12")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCompare:
    def test_strictly_more_flexible(self, model_path, capsys):
        code, out, _ = run(capsys, "compare", "--model", model_path, "--a", "x", "--b", "d")
        assert code == 0
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["classification"] == "Y_strictly_more_flexible"
        assert float(lines["threshold_K"]) == pytest.approx(6.92, abs=0.05)
        assert float(lines["crossings"]) == pytest.approx(float(lines["threshold_K"]), rel=1e-6)
        assert lines["tail"].startswith("Y_above from k=")

    def test_equal_pair(self, model_path, capsys):
        code, out, _ = run(capsys, "compare", "--model", model_path, "--a", "x", "--b", "x")
        assert code == 0
        assert "classification: equally_flexible" in out
        assert "threshold_K: 1" in out


class TestEnvelope:
    def test_two_prospect_split(self, model_path, capsys):
        code, out, _ = run(
            capsys, "envelope", "--model", model_path, "--ids", "x,d", "--k", "1:20:2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k_lo,k_hi,ids"
        assert len(lines) == 3
        lo = lines[1].split(",")
        hi = lines[2].split(",")
        assert lo[0] == "1" and lo[2] == "x"
        assert hi[1] == "20" and hi[2] == "d"
        assert float(lo[1]) == pytest.approx(6.92, abs=0.05)
        assert float(lo[1]) == float(hi[0])


class TestTreeCommands:
    def test_rollback(self, model_path, capsys):
        code, out, _ = run(capsys, "rollback", "--model", model_path, "--r", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("ce: 37.988")
        assert lines[1] == "choose: root=risk"

    def test_policies(self, model_path, capsys):
        code, out, _ = run(capsys, "policies", "--model", model_path, "--r", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("policy 0: ce=37.988")
        assert "choice=[root=risk]" in lines[0]
        assert "support=[0:0.5;100:0.5]" in lines[0]
        assert lines[1].startswith("policy 1: ce=10 ")
        assert "support=[10:1]" in lines[1]


class TestFailureModes:
    def test_usage_error(self, model_path, capsys):
        code, _, _ = run(capsys, "ce", "--model", model_path)
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, out, err = run(capsys, "ce", "--model", str(bad), "--id", "x", "--r", "0.1")
        assert code == 3 and out == ""
        assert err.startswith("error:parse:")

    BIG = "1" + "0" * 399  # past the float range as an integer literal
    PAST_DIGIT_LIMIT = "1" * 5000
    DIGIT_LIMIT_MESSAGE = (
        "error:parse: malformed number: Exceeds the limit"
        if hasattr(sys, "get_int_max_str_digits")
        else "error:parse: prospects.x.points[0][0]: number must be finite"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"prospects": ' + "[" * 200_000 + "]" * 200_000 + "}", "error:parse: document nested deeper than the JSON decoder's limit\n"),
            ('{"prospects": {"x": {"kind": "discrete", "points": [[%s, 1]]}}}' % BIG, "error:parse: prospects.x.points[0][0]: number must be finite\n"),
            ('{"prospects": {"x": {"kind": "discrete", "points": [[1e400, 1]]}}}', "error:parse: prospects.x.points[0][0]: number must be finite\n"),
            ('{"prospects": {"x": {"kind": "discrete", "points": [[-%s, 1]]}}}' % BIG, "error:parse: prospects.x.points[0][0]: number must be finite\n"),
            ('{"tree": {"root": "t", "nodes": {"t": {"kind": "terminal", "payoff": %s}}}}' % BIG, "error:parse: tree.nodes.t.payoff: number must be finite\n"),
            (
                '{"tree": {"root": "c", "nodes": {"c": {"kind": "chance", "children": [[%s, "t"]]}, "t": {"kind": "terminal", "payoff": 1}}}}' % BIG,
                "error:parse: tree.nodes.c.children[0][0]: number must be finite\n",
            ),
            ('{"defaults": {"r": %s}}' % BIG, "error:parse: defaults.r: number must be finite\n"),
            ('{"prospects": {"x": {"kind": "discrete", "points": [[%s, 1]]}}}' % PAST_DIGIT_LIMIT, DIGIT_LIMIT_MESSAGE),
        ],
        ids=["deep", "int_past_float_range", "float_past_float_range", "negative_int", "payoff", "probability", "defaults_r", "digit_limit"],
    )
    def test_malformed_numbers_and_deep_documents_are_parse_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "rollback", "--model", str(path), "--r", "1")
        assert (code, out) == (3, "")
        assert err.startswith(message) and "Traceback" not in err

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "ce", "--model", str(tmp_path / "nope.json"), "--id", "x", "--r", "0.1"
        )
        assert code == 3
        assert err.startswith("error:parse:")

    # Two masses whose sum passes the float range: math.fsum raised OverflowError (exit 5) for it.
    PAST_FLOAT_RANGE = [8.988465674311579e307, 8.98846567431158e307]

    @pytest.mark.parametrize(
        "model, argv, message",
        [
            (
                {"prospects": {"x": {"kind": "discrete", "points": [[0, PAST_FLOAT_RANGE[0]], [1, PAST_FLOAT_RANGE[1]]]}}},
                ["ce", "--id", "x"],
                "error:parse: prospects.x: masses sum to inf, outside tolerance 1e-09 of 1\n",
            ),
            (
                {
                    "tree": {
                        "root": "c",
                        "nodes": {
                            "c": {"kind": "chance", "children": [[PAST_FLOAT_RANGE[0], "t"], [PAST_FLOAT_RANGE[1], "u"]]},
                            "t": {"kind": "terminal", "payoff": 1},
                            "u": {"kind": "terminal", "payoff": 2},
                        },
                    }
                },
                ["rollback"],
                "error:parse: tree: probabilities at chance node 'c' sum to inf, expected 1\n",
            ),
        ],
        ids=["masses", "probabilities"],
    )
    def test_a_sum_past_the_float_range_is_a_parse_error(self, tmp_path, capsys, model, argv, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, argv[0], "--model", str(path), *argv[1:], "--r", "0.1")
        assert (code, out, err) == (3, "", message)

    def test_unknown_id_is_domain_error(self, model_path, capsys):
        code, _, err = run(capsys, "ce", "--model", model_path, "--id", "ghost", "--r", "0.1")
        assert code == 4
        assert err.startswith("error:domain:")

    @pytest.mark.parametrize("ids", ["a,a", "a,d,a"])
    def test_envelope_of_a_repeated_id_is_domain_error(self, tmp_path, capsys, ids):
        # the ids used to print as one label, "a;a"; curve keeps one column per id
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"prospects": {"a": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]}, "d": {"kind": "discrete", "points": [[10, 1.0]]}}}))
        code, out, err = run(capsys, "envelope", "--model", str(path), "--ids", ids, "--r", "0.01", "--k", "1:50:20")
        assert (code, out, err) == (4, "", "error:domain: repeated prospect id 'a'\n")
        code, out, _ = run(capsys, "curve", "--model", str(path), "--ids", "a,a", "--r", "0.01", "--k", "1:50:2")
        assert code == 0 and out.splitlines()[0] == "k,a,a"

    def test_negative_r_is_domain_error(self, model_path, capsys):
        code, _, err = run(capsys, "ce", "--model", model_path, "--id", "x", "--r", "-1")
        assert code == 4
        assert err.startswith("error:domain:")

    def test_overflow_is_range_error(self, tmp_path, capsys):
        model = {
            "prospects": {"big": {"kind": "discrete", "points": [[-1e308, 0.5], [0, 0.5]]}}
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(model))
        code, _, err = run(capsys, "ce", "--model", str(path), "--id", "big", "--r", "10")
        assert code == 5
        assert err.startswith("error:range:")
        # curve evaluates the whole k grid in one batch
        code, _, err = run(
            capsys, "curve", "--model", str(path), "--ids", "big", "--k", "1:4:3", "--r", "10"
        )
        assert code == 5
        assert err.startswith("error:range:")

    @pytest.mark.parametrize("nested", [False, True])
    def test_expected_value_out_of_range_is_a_range_error(self, tmp_path, capsys, nested):
        # at r = 0 the expected value overflows, to inf alone or to inf - inf under a decision
        big = 1.7976931348623157e308

        def over(nid, payoff):
            pair = [[0.5000000004, f"{nid}1"], [0.5000000004, f"{nid}2"]]
            leaves = {f"{nid}{i}": {"kind": "terminal", "payoff": payoff} for i in (1, 2)}
            return {nid: {"kind": "chance", "children": pair}, **leaves}

        nodes = over("hi", big)
        if nested:
            nodes.update(over("lo", -big))
            nodes["c"] = {"kind": "chance", "children": [[0.5, "hi"], [0.5, "lo"]]}
            nodes["t"] = {"kind": "terminal", "payoff": 0}
            nodes["root"] = {"kind": "decision", "children": [["a", "c"], ["b", "t"]]}
        path = tmp_path / "over.json"
        path.write_text(json.dumps({"tree": {"root": "root" if nested else "hi", "nodes": nodes}}))
        code, out, err = run(capsys, "rollback", "--model", str(path), "--r", "0")
        assert (code, out, err) == (5, "", "error:range: rollback overflow at chance node 'hi'\n")

    def test_unwritable_out_file_is_domain_error(self, model_path, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, "ce", "--model", model_path, "--id", "d", "--out", str(target))
        assert (code, out) == (4, "")
        assert err == f"error:domain: cannot write output file {str(target)!r}: No such file or directory\n"

    def test_k_grid_past_the_step_cap_is_parse_error(self, model_path, tmp_path, capsys):
        steps = model_io.K_GRID_STEPS_CAP + 1
        code, out, err = run(capsys, "curve", "--model", model_path, "--ids", "x", "--k", f"1:2:{steps}")
        assert (code, out) == (3, "")
        assert err == f"error:parse: k grid steps exceed cap {steps - 1}, got '1:2:{steps}'\n"
        # the grid is read before the ids
        code, out, err2 = run(capsys, "envelope", "--model", model_path, "--ids", ",", "--k", f"1:2:{steps}")
        assert (code, out, err2) == (3, "", err)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({**MODEL, "defaults": {"r": 0.01, "k": f"1:2:{steps}"}}))
        code, out, err = run(capsys, "curve", "--model", str(path), "--ids", "x")
        assert (code, out) == (3, "")
        assert err == f"error:parse: defaults.k: k grid steps exceed cap {steps - 1}, got '1:2:{steps}'\n"

    def test_adaptive_plan_that_cannot_be_built_is_parse_error(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split('```json\n"scenarios": ', 1)[1].split("```", 1)[0]
        model = {**MODEL, "scenarios": json.loads(block)}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(model))
        assert run(capsys, "ce", "--model", str(path), "--id", "d")[:2] == (0, "10\n")
        del model["scenarios"]["adaptive"]["payoffs"]["wait"]["down"]["b"]
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "ce", "--model", str(path), "--id", "d")
        assert (code, out) == (3, "")
        assert err == "error:parse: scenarios.adaptive: payoff missing for reachable triple ('wait', 'down', 'b')\n"

    @pytest.mark.parametrize(
        "argv, keep, message",
        [
            (["ce", "--id", "x"], ("prospects", "tree"), "no --r given and the model declares no default"),
            (["rollback"], ("prospects", "tree"), "no --r given and the model declares no default"),
            (["curve", "--ids", "x", "--r", "0.1"], ("prospects",), "no --k given and the model declares no default"),
            (["envelope", "--ids", "x,d", "--r", "0.1"], ("prospects",), "no --k given and the model declares no default"),
            (["envelope", "--ids", ",", "--r", "0.1"], ("prospects",), "no --k given and the model declares no default"),
            (["curve", "--ids", ",", "--r", "0.1", "--k", "1:2:2"], ("prospects",), "no ids given"),
            (["envelope", "--ids", ",", "--r", "0.1", "--k", "1:2:2"], ("prospects",), "no ids given"),
            (["curve", "--ids", "x,zz", "--k", "1:2:2"], ("prospects", "defaults"), "unknown prospect or tree node id 'zz'"),
            (["rollback"], ("prospects", "defaults"), "model declares no decision tree"),
            (["policies", "--r", "0.1"], ("prospects",), "model declares no decision tree"),
        ],
    )
    def test_domain_errors_name_their_cause(self, tmp_path, capsys, argv, keep, message):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({key: MODEL[key] for key in keep}))
        code, out, err = run(capsys, *argv, "--model", str(path))
        assert (code, out, err) == (4, "", f"error:domain: {message}\n")

    def test_sums_past_the_support_cap_are_incomparable(self, tmp_path, capsys):
        points = [[float(i), 1.0 / 1001] for i in range(1001)]
        model = {
            "prospects": {
                "u": {"kind": "discrete", "points": points},
                "v": {"kind": "discrete", "points": [[2.0 * v, m] for v, m in points]},
                "a": {"kind": "sum", "terms": ["u", "v"]},
                "b": {"kind": "sum", "terms": ["v", "u", "u"]},
            }
        }
        path = tmp_path / "sums.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "compare", "--model", str(path), "--a", "a", "--b", "b", "--r", "0.1")
        assert (code, err) == (0, "")
        assert out == "classification: incomparable\nthreshold_K: none\ncrossings: none\ntail: none\n"


def test_cli_import_leaves_scipy_out():
    # scipy.special alone costs about half of a cold CLI start
    src = str(Path(flexcurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, flexcurve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


def test_extreme_payoffs_leave_stderr_empty(tmp_path):
    # The risk-neutral policy's variance overflows, and at r = 1 the term at
    # 1e308 lies 2e308 below the peak; neither may print a numpy warning.
    model = {
        "prospects": {"big": {"kind": "discrete", "points": [[-1e308, 0.5], [1e308, 0.5]]}},
        "tree": {
            "root": "c",
            "nodes": {
                "c": {"kind": "chance", "children": [[0.5, "lo"], [0.5, "hi"]]},
                "lo": {"kind": "terminal", "payoff": -1e308},
                "hi": {"kind": "terminal", "payoff": 1e308},
            },
        },
    }
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(model))
    env = dict(os.environ, PYTHONPATH=str(Path(flexcurve.__file__).resolve().parents[1]))
    for argv, stdout in (
        (["policies", "--r", "0"], "policy 0: ce=0 choice=[] support=[-1e+308:0.5;1e+308:0.5]\n"),
        (["ce", "--id", "big", "--r", "1"], "-1e+308\n"),
    ):
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "flexcurve.cli", *argv, "--model", str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stderr, done.stdout) == (0, "", stdout)


class TestParserReuse:
    def test_usage_error_then_valid_call(self, model_path, capsys, monkeypatch):
        code, out, err = run(capsys, "rollback", "--model", model_path, "--bogus")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err
        # From here on main must not build another parser.
        monkeypatch.setattr(cli, "build_parser", None)
        code, out, err = run(capsys, "rollback", "--model", model_path, "--r", "0.01")
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "choose: root=risk"
        code, out, _ = run(capsys, "ce", "--model", model_path)
        assert (code, out) == (2, "")
        code, out, _ = run(capsys, "ce", "--model", model_path, "--id", "d")
        assert (code, out) == (0, "10\n")

    def test_runners_return_the_lines_main_writes(self, model_path, capsys):
        doc = model_io.parse_model(Path(model_path).read_bytes())
        for argv in (["ce", "--id", "x"], ["curve", "--ids", "x,root"], ["compare", "--a", "x", "--b", "d"],
                     ["envelope", "--ids", "x,d"], ["rollback"], ["policies"]):
            args = cli.build_parser().parse_args(argv + ["--model", model_path])
            lines = args.func(args, doc, MODEL["defaults"]["r"])
            assert run(capsys, *argv, "--model", model_path) == (0, "\n".join(lines) + "\n", "")

    def test_build_parser_returns_a_fresh_parser(self):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert first.parse_args(["rollback", "--model", "m.json"]).func is cli.cmd_rollback


def _chain_model(depth, leave=(0.01, 0.1)):
    rng = random.Random(depth)
    nodes = {}
    for i in range(depth):
        p = rng.uniform(*leave)
        nxt = f"n{i + 1}" if i + 1 < depth else "end"
        nodes[f"n{i}"] = {"kind": "chance", "children": [[p, f"t{i}"], [1.0 - p, nxt]]}
        nodes[f"t{i}"] = {"kind": "terminal", "payoff": rng.uniform(0, 100)}
    nodes["end"] = {"kind": "decision", "children": [["stop", "e0"], ["go", "e1"]]}
    nodes["e0"] = {"kind": "terminal", "payoff": 30}
    nodes["e1"] = {"kind": "terminal", "payoff": 60}
    return {
        "prospects": {"x": MODEL["prospects"]["x"]},
        "tree": {"root": "n0", "nodes": nodes},
        "defaults": {"r": 0.01, "k": "1:4:3"},
    }


def test_tree_commands_past_recursion_limit(tmp_path, capsys):
    depth = 5_000
    assert depth > sys.getrecursionlimit()
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_model(depth)))
    code, out, err = run(capsys, "rollback", "--model", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "choose: end=go"
    code, out, err = run(capsys, "curve", "--model", str(path), "--ids", "n0,n4999,x")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 4
    code, out, err = run(capsys, "policies", "--model", str(path))
    assert (code, err) == (0, "")
    assert [line.split(" choice=")[1].split(" ")[0] for line in out.splitlines()] == [
        "[end=go]",
        "[end=stop]",
    ]


def test_rollback_with_a_tiny_probability_agrees_with_policies(tmp_path, capsys):
    # The chance node's sum over its peak weight 1e-310 overflows; rollback
    # takes the prospect kernel's fallback, as policies does.
    nodes = {
        "c": {"kind": "chance", "children": [[1e-310, "a"], [1.0, "b"]]},
        "a": {"kind": "terminal", "payoff": 0},
        "b": {"kind": "terminal", "payoff": 1},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"tree": {"root": "c", "nodes": nodes}}))
    for r in ("0.001", "1"):
        code, out, err = run(capsys, "rollback", "--model", str(path), "--r", r)
        assert (code, err) == (0, "")
        ce = out.splitlines()[0].removeprefix("ce: ")
        code, out, err = run(capsys, "policies", "--model", str(path), "--r", r)
        assert (code, err) == (0, "")
        assert out.split(" ")[2] == f"ce={ce}"


def test_policies_on_a_chain_whose_tail_mass_underflows(tmp_path, capsys):
    # Leaving the chain with probability 0.05-0.3 a link, the masses of the
    # leaves past a few thousand links underflow to 0.
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(_chain_model(5_000, leave=(0.05, 0.3))))
    code, out, err = run(capsys, "rollback", "--model", str(path))
    assert (code, err) == (0, "")
    rolled = float(out.splitlines()[0].removeprefix("ce: "))
    code, out, err = run(capsys, "policies", "--model", str(path))
    assert (code, err) == (0, "")
    ces = [float(line.split(" ce=")[1].split(" ")[0]) for line in out.splitlines()]
    assert max(ces) == pytest.approx(rolled, rel=1e-9)


_PAYOFF = st.one_of(
    st.floats(-100, 100),
    st.integers(-5, 5),
    st.sampled_from([1e308, -1e308, -1.7976931348623157e308, 1e300, 10**400]),
)

_JUNK = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 1), st.text(max_size=2), st.floats(allow_nan=True)), max_size=3),
)


@st.composite
def tree_documents(draw):
    """Tree models that are deep, wide, overflowing or malformed, as JSON text."""
    shape = draw(st.sampled_from(["chain", "fan", "nested"]))
    nodes = {}
    if shape == "chain":
        depth = draw(st.one_of(st.integers(1, 30), st.sampled_from([1_200, 3_000])))
        p = draw(st.one_of(st.floats(0.01, 0.5), st.sampled_from([0.0, 1.0, -0.5])))
        payoffs = draw(st.lists(_PAYOFF, min_size=1, max_size=4))
        for i in range(depth):
            nxt = f"n{i + 1}" if i + 1 < depth else "leaf"
            nodes[f"n{i}"] = {"kind": "chance", "children": [[p, f"t{i}"], [1.0 - p, nxt]]}
            nodes[f"t{i}"] = {"kind": "terminal", "payoff": payoffs[i % len(payoffs)]}
        nodes["leaf"] = {"kind": "terminal", "payoff": draw(_PAYOFF)}
    elif shape == "fan":
        width = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(["chance", "decision"]))
        nodes["n0"] = {
            "kind": kind,
            "children": [[1.0 / width if kind == "chance" else f"l{i}", f"t{i}"] for i in range(width)],
        }
        for i in range(width):
            nodes[f"t{i}"] = {"kind": "terminal", "payoff": draw(_PAYOFF)}
    else:
        for i in range(draw(st.integers(1, 12))):
            nodes[f"n{i}"] = {
                "kind": "decision",
                "children": [["a", f"n{i}c"], ["b", f"n{i + 1}"]],
            }
            nodes[f"n{i}c"] = {"kind": "chance", "children": [[0.5, f"n{i}x"], [0.5, f"n{i}y"]]}
            nodes[f"n{i}x"] = {"kind": "terminal", "payoff": draw(_PAYOFF)}
            nodes[f"n{i}y"] = {"kind": "terminal", "payoff": draw(_PAYOFF)}
            last = i + 1
        nodes[f"n{last}"] = {"kind": "terminal", "payoff": draw(_PAYOFF)}
    if draw(st.integers(0, 2)) == 0:
        # Break one node: junk children, a junk child pair, a dangling or
        # repeated reference, or a junk payoff.
        nid = draw(st.sampled_from(sorted(nodes)))
        node = nodes[nid]
        if node["kind"] == "terminal":
            node["payoff"] = draw(_JUNK)
        else:
            fault = draw(st.sampled_from(["children", "pair", "dangling", "repeat"]))
            index = draw(st.integers(0, len(node["children"]) - 1))
            if fault == "children":
                node["children"] = draw(_JUNK)
            elif fault == "pair":
                node["children"][index] = draw(_JUNK)
            else:
                target = "ghost" if fault == "dangling" else draw(st.sampled_from(sorted(nodes)))
                node["children"][index] = [node["children"][index][0], target]
    doc = {"prospects": {"x": MODEL["prospects"]["x"]}, "tree": {"root": "n0", "nodes": nodes}}
    return json.dumps(doc)


_DEEP_CHAIN = json.dumps(_chain_model(1_500))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@example(text=_DEEP_CHAIN, command="rollback", r="0.01")
@example(text=_DEEP_CHAIN, command="curve", r="0.01")
@example(text=_DEEP_CHAIN, command="policies", r="40")
@given(
    text=tree_documents(),
    command=st.sampled_from(["rollback", "curve", "policies"]),
    r=st.sampled_from(["0", "0.01", "0.5", "40", "-1", "1e-320"]),
)
def test_tree_command_contract(text, command, r):
    """Generated tree models get a documented exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "model.json"
        path.write_text(text)
        argv = [command, "--model", str(path), "--r", r]
        if command == "curve":
            argv += ["--ids", "n0,x", "--k", "1:50:4"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err.getvalue() == "")


def _prospect_chain(kind, depth, top_first=False):
    """A model whose prospect p{depth} sits atop a chain of affine maps or of sums."""
    prospects = {
        "p0": {"kind": "discrete", "points": [[0, 0.3], [40, 0.5], [100, 0.2]]},
        "safe": {"kind": "discrete", "points": [[20, 0.5], [60, 0.5]]},
        "g": {"kind": "gaussian", "mean": 0.01, "variance": 0.02},
    }
    for i in range(1, depth + 1):
        if kind == "affine":
            prospects[f"p{i}"] = {"kind": "affine", "base": f"p{i - 1}", "scale": 1.002 if i % 2 else 0.998, "offset": 0.01}
        else:
            prospects[f"p{i}"] = {"kind": "sum", "terms": [f"p{i - 1}", "g"] if i % 3 else ["g", f"p{i - 1}"]}
    if top_first:
        prospects = dict(reversed(list(prospects.items())))
    return {"prospects": prospects, "defaults": {"r": 0.01, "k": "1:50:7"}}


@pytest.mark.parametrize("top_first", [False, True], ids=["base_first", "top_first"])
@pytest.mark.parametrize("kind", ["affine", "sum"])
def test_prospect_commands_past_recursion_limit(tmp_path, capsys, kind, top_first):
    depth = 5_000
    assert depth > sys.getrecursionlimit()
    path = str(tmp_path / "chain.json")
    Path(path).write_text(json.dumps(_prospect_chain(kind, depth, top_first)))
    top = f"p{depth}"
    for argv, lines in (
        (["ce", "--id", top], 1),
        (["ce", "--id", "p0"], 1),
        (["curve", "--ids", f"{top},safe"], 8),
        (["compare", "--a", top, "--b", "safe"], 4),
        (["envelope", "--ids", f"{top},safe,g"], None),
    ):
        code, out, err = run(capsys, argv[0], "--model", path, *argv[1:])
        assert (code, err) == (0, "")
        assert lines is None or len(out.splitlines()) == lines
    doc = flexcurve.parse_model(Path(path).read_text())
    code, out, _ = run(capsys, "ce", "--model", path, "--id", top)
    assert float(out) == pytest.approx(oracle_ce(doc.prospects[top], 0.01), rel=1e-10)


def _doubling_model(depth):
    prospects = {"p0": {"kind": "discrete", "points": [[0, 0.5], [1, 0.5]]}}
    for i in range(1, depth + 1):
        prospects[f"p{i}"] = {"kind": "sum", "terms": [f"p{i - 1}", f"p{i - 1}"]}
    return {"prospects": prospects, "defaults": {"r": 0.01}}


def test_certain_equivalent_out_of_range_is_a_range_error(tmp_path, capsys):
    # The CE of affine(coin, 1, 1e308) is about 1e308, but at r = 40 its
    # log-MGF holds -40 * 1e308: exit 5, never a printed inf or a warning.
    model = {
        "prospects": {
            "coin": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]},
            "far": {"kind": "affine", "base": "coin", "scale": 1.0, "offset": 1e308},
        }
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(model))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["ce", "--id", "far"], ["curve", "--ids", "coin,far", "--k", "1:4:3"], ["compare", "--a", "far", "--b", "coin"]):
            code, out, err = run(capsys, *argv, "--model", str(path), "--r", "40")
            assert (code, out) == (5, "") and err.startswith("error:range:"), argv


def test_gaussian_scale_past_the_float_range_names_the_callers_t(tmp_path, capsys):
    # 1e300 * -1e10 leaves the float range: the message names r's t, not the product
    model = {
        "prospects": {
            "g": {"kind": "gaussian", "mean": 1, "variance": 1},
            "far": {"kind": "affine", "base": "g", "scale": 1e300, "offset": 0.0},
        }
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "ce", "--model", str(path), "--id", "far", "--r", "1e10")
    assert (code, out) == (5, "")
    assert err.startswith("error:range:")
    assert "Gaussian scale 1e+300 times t=-10000000000.0 out of floating-point range" in err


def test_tail_certificate_past_the_float_range_is_a_range_error(tmp_path, capsys):
    # The slopes differ by 1e-300 * 1e-30 / 2, which underflows: flat stays
    # below steep until k = 2e330, so no verdict can be certified in floats.
    model = {
        "prospects": {
            "flat": {"kind": "gaussian", "mean": 0, "variance": 1e-300},
            "steep": {"kind": "gaussian", "mean": 1, "variance": 2e-300},
        }
    }
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "compare", "--model", str(path), "--a", "flat", "--b", "steep", "--r", "1e-30")
    assert (code, out, err) == (5, "", "error:range: tail certificate k=inf out of floating-point range\n")


def test_subnormal_mass_difference_keeps_a_finite_tail_certificate(tmp_path, capsys):
    # The lowest levels differ by 1e-320, so the certificate's 0.2 / 1e-320 overflows;
    # its logarithm does not.
    model = {
        "prospects": {
            "x": {"kind": "discrete", "points": [[0, 1e-320], [1, 0.5], [2, 0.5]]},
            "y": {"kind": "discrete", "points": [[1, 0.6], [2, 0.4]]},
        }
    }
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "compare", "--model", str(path), "--a", "x", "--b", "y", "--r", "0.5")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert (lines[0], lines[3]) == ("classification: Y_strictly_more_flexible", "tail: Y_above from k=1470.43560843 (worst-case gap)")
    threshold = lines[1].removeprefix("threshold_K: ")
    assert lines[2] == f"crossings: {threshold}"
    # mpmath puts the crossing at k = 1469.0493116.  The subnormal mass carries 11 bits, so the
    # float CE difference there is off by a jitter of about 6e-8, and no scan can place the root
    # closer than that jitter over the difference's slope: 3.8e-7 relative, past ROOT_REL_TOL.
    pytest.importorskip("mpmath")
    import mpmath as mp

    x, y = (make_discrete(model["prospects"][p]["points"]) for p in ("x", "y"))
    root = mp_crossing(x, y, 0.5, 1469.0493, rel=1e-5)

    def gap(k):
        with mp.workdps(50):
            return mp_certain_equivalent(x, mp.mpf(k) * 0.5) - mp_certain_equivalent(y, mp.mpf(k) * 0.5)

    near = [root * (1.0 + i * 1e-7) for i in range(-6, 7)]
    jitter = max(abs(certain_equivalent(x, k * 0.5) - certain_equivalent(y, k * 0.5) - float(gap(k))) for k in near)
    slope = float((gap(root * (1 + 1e-6)) - gap(root * (1 - 1e-6))) / (2e-6 * root))
    assert abs(float(threshold) - root) <= jitter / abs(slope)


@pytest.mark.parametrize(
    "points, r", [([[1e12, 0.3], [1000000000005, 0.7]], "0.1"), ([[1e10, 0.3], [10000000001, 0.7]], "10")]
)
def test_curve_of_large_values_allows_their_rounding(tmp_path, capsys, points, r):
    # Neighbouring CEs rise by their rounding (an ulp of 1e12 is 1.2e-4), so the
    # curve check's slack scales with the CE: this is not a domain error.
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"prospects": {"y": {"kind": "discrete", "points": points}}}))
    code, out, err = run(capsys, "curve", "--model", str(path), "--ids", "y", "--k", "1:1000:4000", "--r", r)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "k,y" and len(lines) == 4001
    assert all(points[0][0] <= float(line.split(",")[1]) <= points[1][0] for line in lines[1:])


def test_policies_make_one_kernel_call(model_path, capsys, monkeypatch):
    calls = []
    real = flexcurve.prospects._lse_segments
    monkeypatch.setattr(flexcurve.prospects, "_lse_segments", lambda ts, seg: calls.append(len(seg.starts)) or real(ts, seg))
    code, out, _ = run(capsys, "policies", "--model", model_path, "--r", "0.01")
    assert code == 0 and len(out.splitlines()) == 2
    assert calls == [2]


def test_policies_overflow_names_the_first_overflowing_policy(tmp_path, capsys):
    # policy 0 (a_safe) evaluates and policies 1 and 2 overflow: the error
    # is what certain_equivalent raises for policy 1, and nothing is printed
    nodes = {
        "root": {"kind": "decision", "children": [["a_safe", "t"], ["b_far", "f"], ["c_wild", "w"]]},
        "t": {"kind": "terminal", "payoff": 10},
        "f": {"kind": "chance", "children": [[0.5, "f0"], [0.5, "f1"]]},
        "f0": {"kind": "terminal", "payoff": 1.7e308},
        "f1": {"kind": "terminal", "payoff": 1.75e308},
        "w": {"kind": "chance", "children": [[0.5, "w0"], [0.5, "w1"]]},
        "w0": {"kind": "terminal", "payoff": -1e308},
        "w1": {"kind": "terminal", "payoff": 1e308},
    }
    path = tmp_path / "policies.json"
    path.write_text(json.dumps({"prospects": {}, "tree": {"root": "root", "nodes": nodes}}))
    first = make_discrete([(1.7e308, 0.5), (1.75e308, 0.5)])
    with pytest.raises(OverflowError) as alone:
        certain_equivalent(first, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "policies", "--model", str(path), "--r", "40")
    assert (code, out, err) == (5, "", f"error:range: {alone.value}\n")


def test_shared_terms_past_the_part_cap(tmp_path, capsys):
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps(_doubling_model(40)))
    start = time.process_time()
    code, out, err = run(capsys, "ce", "--model", str(path), "--id", "p40")
    assert time.process_time() - start < 1.0
    assert (code, out) == (4, "")
    assert err == "error:domain: the normal form would hold 1099511627776 parts, past the part cap FORM_PART_CAP = 65536\n"
    assert run(capsys, "ce", "--model", str(path), "--id", "p0") == (0, "0.498750005208\n", "")
    path.write_text(json.dumps(_doubling_model(12)))
    assert run(capsys, "ce", "--model", str(path), "--id", "p12") == (0, "2042.88002133\n", "")


_PARAMETER = st.sampled_from([0.5, 1.0, 2.0, 0.0, -1.0, 1e-300, 1e308, -1e308])


@st.composite
def prospect_documents(draw):
    """Prospect models that are deep, shared, cyclic, dangling or overflowing, as JSON text."""
    prospects = {"x": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]}}
    shape = draw(st.sampled_from(["affine", "sum", "doubling", "cycle"]))
    # a doubling chain holds 2**depth parts: past the cap from depth 17 on
    depth = draw(st.integers(1, 40) if shape == "doubling" else st.one_of(st.integers(1, 30), st.sampled_from([1_200, 3_000])))
    leaf = draw(st.sampled_from(["discrete", "gaussian"]))
    if leaf == "discrete":
        prospects["p0"] = {"kind": "discrete", "points": [[draw(_PARAMETER), 0.5], [draw(_PARAMETER), 0.5]]}
    else:
        prospects["p0"] = {"kind": "gaussian", "mean": draw(_PARAMETER), "variance": draw(_PARAMETER)}
    scale, offset = draw(_PARAMETER), draw(_PARAMETER)
    for i in range(1, depth + 1):
        below = f"p{i - 1}"
        if shape == "affine" or (shape == "cycle" and i % 2):
            prospects[f"p{i}"] = {"kind": "affine", "base": below, "scale": scale, "offset": offset}
        else:
            prospects[f"p{i}"] = {"kind": "sum", "terms": [below, below] if shape == "doubling" else [below, "x"]}
    top = f"p{depth}"
    if shape == "cycle":
        prospects["p0"] = {"kind": "affine", "base": draw(st.sampled_from([top, "p0", "x"])), "scale": 1.0, "offset": 0.0}
    if draw(st.integers(0, 3)) == 0:
        victim = draw(st.sampled_from(sorted(prospects)))
        prospects[victim] = {"kind": "affine", "base": "ghost", "scale": 1.0, "offset": 0.0}
    if draw(st.booleans()):
        prospects = dict(reversed(list(prospects.items())))
    return json.dumps({"prospects": prospects}), top


_DEEP_PROSPECTS = json.dumps(_prospect_chain("sum", 1_500, top_first=True))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@example(document=(_DEEP_PROSPECTS, "p1500"), command="compare", r="0.01")
@example(document=(json.dumps(_doubling_model(40)), "p40"), command="envelope", r="0.01")
@given(
    document=prospect_documents(),
    command=st.sampled_from(["ce", "curve", "compare", "envelope"]),
    r=st.sampled_from(["0", "0.01", "0.5", "40", "-1", "1e-320"]),
)
def test_prospect_command_contract(document, command, r):
    """Generated prospect models get a documented exit code, never a traceback."""
    text, top = document
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "model.json"
        path.write_text(text)
        argv = [command, "--model", str(path), "--r", r]
        argv += {
            "ce": ["--id", top],
            "curve": ["--ids", f"{top},x", "--k", "1:50:4"],
            "compare": ["--a", top, "--b", "x"],
            "envelope": ["--ids", f"{top},x", "--k", "1:50:4"],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (err.getvalue() == "")
