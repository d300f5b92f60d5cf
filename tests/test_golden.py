"""Byte-for-byte stdout of the CLI subcommands on the golden corpus."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from flexcurve.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"].removesuffix(".out") for c in CASES])
def test_stdout_matches_golden(case):
    argv = [case["argv"][0], "--model", str(GOLDEN / f"{case['model']}.json")] + case["argv"][1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == (GOLDEN / case["stdout"]).read_text()
