import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexcurve
from flexcurve import certain_equivalent, make_discrete
from flexcurve.cli import main


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

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "ce", "--model", str(tmp_path / "nope.json"), "--id", "x", "--r", "0.1"
        )
        assert code == 3
        assert err.startswith("error:parse:")

    def test_unknown_id_is_domain_error(self, model_path, capsys):
        code, _, err = run(capsys, "ce", "--model", model_path, "--id", "ghost", "--r", "0.1")
        assert code == 4
        assert err.startswith("error:domain:")

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

    def test_rollback_without_tree(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"prospects": {}}))
        code, _, err = run(capsys, "rollback", "--model", str(path), "--r", "0.1")
        assert code == 4
        assert "tree" in err


def test_cli_import_leaves_scipy_out():
    # scipy.special alone costs about half of a cold CLI start
    src = str(Path(flexcurve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, flexcurve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"
