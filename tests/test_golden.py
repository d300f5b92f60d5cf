"""Byte-for-byte stdout of the CLI subcommands on the golden corpus."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from flexcurve.cli import main
from flexcurve.model_io import parse_model

from conftest import mp_crossing

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


# Printed crossings and envelope breakpoints, each with the pair whose CE
# curves meet there: (file, line, field, prospect ids).
PRINTED_ROOTS = [
    ("prospects.compare.0.out", 2, 1, ("wide", "safe")),
    ("prospects.compare.1.out", 2, 1, ("wide", "pg")),
    ("prospects.compare.2.out", 2, 1, ("lift", "wide")),
    ("prospects.compare.3.out", 2, 1, ("near", "safe")),
    ("prospects.compare.4.out", 2, 1, ("mixa", "mixb")),
    ("prospects.compare.5.out", 2, 1, ("mixa", "mixc")),
    ("prospects.envelope.0.out", 1, 1, ("pg", "safe")),
    ("prospects.envelope.1.out", 1, 1, ("wide", "lift")),
]


@pytest.mark.parametrize("name, line, field, pair", PRINTED_ROOTS, ids=[r[0].removesuffix(".out") for r in PRINTED_ROOTS])
def test_printed_roots_match_an_independent_root(name, line, field, pair):
    pytest.importorskip("mpmath")
    doc = parse_model((GOLDEN / "prospects.json").read_text())
    text = (GOLDEN / name).read_text().splitlines()[line]
    printed = float(text.replace(": ", ",").split(",")[field])
    x, y = (doc.prospects[pid] for pid in pair)
    root = mp_crossing(x, y, doc.default_r, printed)
    assert abs(printed - root) <= 1e-11 * root
