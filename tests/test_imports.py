"""What a fresh interpreter loads: numpy only for the numerical commands.

test_entropy imports numpy at collection, so no in-process test can see
what the library itself loads; each test here runs the commands in a child
interpreter, which reports every command's exit code, its stdout and
whether numpy was loaded afterwards.  The parent runs the same commands in
process and compares the output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import artifact
from artifact import semiring
from artifact.cli import main
from artifact.fileformat import serialize
from artifact.fixtures import EX_EXP, EX_POLY1P, EX_POLY2

from conftest import ring

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CHILD = """
import contextlib, io, json, sys
from artifact import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps(runs))
"""


def _fresh_runs(commands: list[list[str]]) -> list[list]:
    """[exit code, stdout, numpy loaded] after each command, in one new interpreter."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def _in_process_runs(commands: list[list[str]], capsys) -> list[list]:
    runs = []
    for argv in commands:
        code = main(argv)
        runs.append([code, capsys.readouterr().out])
    return runs


def _files(tmp_path, **automata) -> dict[str, str]:
    paths = {}
    for name, a in automata.items():
        path = tmp_path / f"{name}.fa"
        path.write_text(serialize(a))
        paths[name] = str(path)
    return paths


def test_structural_commands_never_load_numpy(tmp_path, capsys):
    f = _files(tmp_path, exp=EX_EXP, poly2=EX_POLY2, poly1p=EX_POLY1P)
    commands = [
        ["classify", f["exp"], "--json", "--witness"],
        ["classify", f["poly2"], "--json", "--witness"],
        ["dpa", f["poly2"]],
        ["info", f["poly1p"]],
        ["oracle", "table", f["exp"], "--max-len", "4"],
        ["oracle", "da", f["poly2"], "aaa"],
        ["intersect", f["exp"], f["poly2"]],
        ["power", f["poly2"], "-n", "3"],
        ["trim", f["poly1p"]],
        ["gen", "--states", "5", "--symbols", "2", "--density", "0.3"],
    ]
    fresh = _fresh_runs(commands)
    assert [loaded for _, _, loaded in fresh] == [False] * len(commands)
    assert [run[:2] for run in fresh] == _in_process_runs(commands, capsys)
    assert all(code == 0 for code, _, _ in fresh)


def test_numerical_commands_load_numpy_and_print_the_same(tmp_path, capsys):
    f = _files(tmp_path, poly1p=EX_POLY1P, ring=ring(5))
    commands = [
        ["entropy", f["poly1p"], "--report"],
        ["entropy", f["poly1p"], "--method", "brute"],
        ["expected-length", f["poly1p"]],
        # an SCC of several states: the linear solve of semiring._solve_block
        ["entropy", f["ring"], "--report"],
        ["expected-length", f["ring"]],
    ]
    fresh = _fresh_runs(commands)
    assert fresh[-1][2]
    assert [run[:2] for run in fresh] == _in_process_runs(commands, capsys)
    assert all(code == 0 for code, _, _ in fresh)

    names: dict = {}
    exec("from artifact import *", names)
    assert set(artifact.__all__) <= names.keys()
    assert semiring._EPS == np.finfo(float).eps
