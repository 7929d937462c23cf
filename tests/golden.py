"""Golden outputs: digests that pin CLI output and library answers byte for byte.

golden_outputs.json, beside this file, maps one key per entry to a SHA-256
hex digest:

  * "<command> | <input>": the exit code of `artifact.cli.main` on that
    command and input file, run in-process, and what it wrote to stdout and
    stderr;
  * "library | <input>": the repr of the library's answers on that input:
    classify with and without a witness, verify_witness on the witness,
    and each low-level probe's result or its exception type and text.

Every input comes from a seeded builder or a hand-built automaton of the
test suite (conftest.py), among them the chain DP's two ties and an EDA
beside a dead one (DEAD_EDA), plus three automata for the error paths: a
useful ε-cycle, a dead end, and a dead end behind a useless ε-cycle.
test_golden.py recomputes every digest and names the keys that moved.
Regenerating the file is a change of test data, to be made only by a
change that means to move outputs:

    PYTHONPATH=src python tests/golden.py

The entropy digests pin floats at full precision, as the solver computes
them with numpy on the machine at hand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from artifact import analysis
from artifact.cli import main
from artifact.core import EPSILON, validate
from artifact.entropy import entropy_report
from artifact.errors import AutomatonError
from artifact.fileformat import serialize
from artifact.fixtures import (
    EX_EPS,
    EX_EXP,
    EX_FIN2,
    EX_FIN2U,
    EX_GEO,
    EX_POLY1,
    EX_POLY1P,
    EX_POLY2,
    EX_POLY2P,
    EX_UNIF,
)
from conftest import (
    DEAD_EDA,
    TIE_OF_SITES,
    TIE_WITH_A_PLAIN_EDGE,
    block_chain,
    build_corpus100,
    build_prob50,
    build_scale_instance,
    ladder,
)

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

COMMANDS = (["classify"], ["classify", "--json", "--witness"], ["dpa"], ["info"])
WEIGHTED_COMMANDS = (["entropy", "--report"], ["expected-length"])

#: inputs with more states get no ida_pairs call, which walks every region
SITE_SEARCH_MAX_STATES = 64


def _error_inputs():
    # the linear fixture, a dead end 2 and, behind it, a useless ε-cycle
    linear = [(0, "a", 0), (0, "a", 1), (1, "a", 1), (0, "a", 2)]
    return {
        "eps_cycle": validate(
            ("a",), 2, [0], [1], [(0, EPSILON, 1), (1, EPSILON, 0), (0, "a", 1)]
        ),
        "dead_end": validate(("a",), 3, [0], [1], linear),
        "dead_eps_cycle": validate(
            ("a",), 4, [0], [1], [*linear, (2, EPSILON, 3), (3, EPSILON, 2)]
        ),
    }


def inputs():
    """(plain, weighted): input id -> automaton, in a fixed order."""
    plain = {
        "EX_FIN2": EX_FIN2, "EX_POLY1": EX_POLY1, "EX_POLY2": EX_POLY2,
        "EX_EXP": EX_EXP, "EX_EPS": EX_EPS,
    }
    plain.update((f"corpus100/{i:02d}", a) for i, a in enumerate(build_corpus100()))
    plain.update((f"ladder{k}", ladder(k)) for k in (16, 100))
    plain.update((f"chain{k}", block_chain(k)) for k in (3, 4, 20, 100))
    plain.update(tie_of_sites=TIE_OF_SITES, tie_with_a_plain_edge=TIE_WITH_A_PLAIN_EDGE)
    plain.update(dead_eda=DEAD_EDA)
    plain.update(_error_inputs())
    weighted = {
        "EX_UNIF": EX_UNIF, "EX_GEO": EX_GEO, "EX_FIN2U": EX_FIN2U,
        "EX_POLY1P": EX_POLY1P, "EX_POLY2P": EX_POLY2P,
    }
    weighted.update((f"prob50/{i:02d}", wa) for i, (_, wa, _, _) in enumerate(build_prob50()))
    return plain, weighted


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return _digest(f"exit {code}\nstdout\n{out.getvalue()}stderr\n{err.getvalue()}")


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except AutomatonError as exc:  # the type and text are what is pinned
        return ("raised", type(exc).__name__, str(exc))


def _as_dict(witness):
    return None if witness is None else witness.as_dict()


def _classified(a, want_witness):
    report = analysis.classify(a, want_witness)
    verified = report.witness is not None and analysis.verify_witness(a, report.witness)
    return report.as_dict(), verified


def _degree(a):
    degree, witness = analysis.dpa_with_witness(a)
    return degree, _as_dict(witness)


def _library(a) -> str:
    record = [
        _outcome(_classified, a, False),
        _outcome(_classified, a, True),
        _outcome(analysis.eda_criterion, a),
        _outcome(lambda: _as_dict(analysis.eda_witness(a))),
        _outcome(analysis.ida_criterion, a),
        _outcome(_degree, a),
    ]
    pairs = [(0, a.num_states - 1)]
    if a.num_states <= SITE_SEARCH_MAX_STATES:
        sites = _outcome(lambda: sorted(analysis.ida_pairs(a)))
        record.append(sites)
        if sites[0] == "ok":
            pairs += sites[1][:1]
    for p, q in pairs:
        record.append(_outcome(lambda: _as_dict(analysis.ida_witness(a, p, q))))
    return _digest(repr(record))


def collect(directory: Path) -> dict[str, str]:
    """Every golden digest, with the input files written to directory."""
    plain, weighted = inputs()
    golden: dict[str, str] = {}
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, a in [*plain.items(), ("scale", build_scale_instance()), *weighted.items()]:
            path = name.replace("/", "_") + ".fa"
            Path(path).write_text(serialize(a), encoding="utf-8")
            if name == "scale":
                commands = [["classify", "--json", "--witness"]]
            else:
                commands = [*COMMANDS, *(WEIGHTED_COMMANDS if name in weighted else ())]
            for command in commands:
                golden[f"{' '.join(command)} | {name}"] = _run([*command, path])
    finally:
        os.chdir(here)
    for name, a in plain.items():
        golden[f"library | {name}"] = _library(a)
    for name, wa in weighted.items():
        record = [_outcome(lambda: entropy_report(wa).as_dict()), _library(wa.skeleton)]
        golden[f"library | {name}"] = _digest(repr(record))
    return golden


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = collect(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
