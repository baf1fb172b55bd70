"""The CLI report format, pinned against recorded ``--no-timing`` runs.

Each case runs one small invocation in-process and compares its exit code,
stdout, stderr and written files with ``cli_reports.json``: exact keys, key
order, strings, ints and bools, and floats within 1e-9 (numbers inside text
within 2e-6, the last digit of SVG coordinates).  Bytes are not compared,
because BLAS and libm results differ in the last ulp across machines.

To re-record after an intended format change::

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from triscribe.cli import run

RECORDED = Path(__file__).with_name("cli_reports.json")

CASES = {
    "solve-similar": ["solve-similar", "--curve", "gen:ellipse,a=2,b=1,samples=512",
                      "--angles", "90,45,45", "--base", "0.3", "--grid", "32"],
    "solve-equilateral": ["solve-equilateral", "--curve", "gen:ellipse,a=2,b=1,samples=512",
                          "--base", "0.25"],
    "check-hypothesis": ["check-hypothesis", "--curve", "gen:ellipse,a=2,b=1,samples=512",
                         "--angles", "60,60,60"],
    "check-monotone": ["check-monotone", "--curve", "gen:u_turn,samples=512"],
    "sweep": ["sweep", "--curve", "gen:circle,samples=256", "--angles", "60,60,60",
              "--base", "0.001", "--grid", "16"],
    "plot": ["plot", "--curve", "gen:trefoil,samples=64", "--project",
             "--plot-svg", "{tmp}/curve.svg", "--plot-ratio-path", "0.5,{tmp}/ratio.svg"],
    "no-bracket": ["solve-similar", "--curve", "gen:circle,samples=256", "--angles", "60,60,60",
                   "--grid", "2"],
    "refine-failure": ["solve-equilateral", "--curve", "gen:u_turn,leg=1e9,samples=1024"],
    "sweep-trefoil": ["sweep", "--curve", "gen:trefoil,samples=1024", "--angles", "60,60,60"],
    "sweep-tilted-n6": ["sweep", "--curve", "gen:tilted_circle_nd,n=6,samples=2048",
                        "--angles", "90,45,45"],
    "continuum": ["solve-similar", "--curve", "gen:corner_wedge,samples=512", "--angles", "90,45,45",
                  "--grid", "32"],
}

NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def capture(argv, tmp):
    """Exit code, stdout (parsed when it is JSON), stderr and written files of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([arg.replace("{tmp}", str(tmp)) for arg in argv] + ["--no-timing"])
    stdout = out.getvalue()
    return {
        "exit": code,
        "stdout": json.loads(stdout) if stdout else None,
        "stderr": err.getvalue(),
        "files": {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())},
    }


def assert_same_text(got, want, where):
    assert NUMBER.split(got) == NUMBER.split(want), where
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=2e-6), (where, g, w)


def assert_same(got, want, where):
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (where, got, want)
    else:
        assert got == want, (where, got, want)


@pytest.mark.parametrize("name", list(CASES))
def test_report_matches_recording(name, tmp_path):
    want = json.loads(RECORDED.read_text())[name]
    got = capture(CASES[name], tmp_path)
    assert got["exit"] == want["exit"]
    assert_same(got["stdout"], want["stdout"], "stdout")
    assert_same_text(got["stderr"], want["stderr"], "stderr")
    assert list(got["files"]) == list(want["files"])
    for file_name, text in want["files"].items():
        assert_same_text(got["files"][file_name], text, file_name)


if __name__ == "__main__":
    recorded = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = capture(argv, tmp)
    RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases in {RECORDED}", file=sys.stderr)
