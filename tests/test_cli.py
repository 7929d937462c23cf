"""Command-line interface: output formats, round-trips, exit codes."""

import json
import math

import pytest

from artifact.cli import main
from artifact.core import EPSILON, validate
from artifact.fileformat import parse, serialize
from artifact.fixtures import EX_EXP, EX_FIN2, EX_GEO, EX_POLY1, EX_POLY2, EX_UNIF
from artifact.oracle import count_paths


@pytest.fixture
def write(tmp_path):
    def _write(name, automaton):
        path = tmp_path / name
        path.write_text(serialize(automaton))
        return str(path)

    return _write


def test_classify_prints_one_human_line(write, capsys):
    assert main(["classify", write("p2.fa", EX_POLY2)]) == 0
    assert capsys.readouterr().out == "POLYNOMIAL degree=2\n"
    assert main(["classify", write("exp.fa", EX_EXP)]) == 0
    assert capsys.readouterr().out == "EXPONENTIAL\n"
    assert main(["classify", write("fin.fa", EX_FIN2)]) == 0
    assert capsys.readouterr().out == "FINITE\n"


def test_classify_json_carries_a_verifiable_witness(write, capsys):
    assert main(["classify", "--json", "--witness", write("p2.fa", EX_POLY2)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1  # single structured line
    doc = json.loads(out)
    assert doc["class"] == "POLYNOMIAL"
    assert doc["dpa"] == 2
    assert doc["witness"]["pairs"] == [[0, 1], [1, 2]]


def test_classify_json_is_deterministic(write, capsys):
    path = write("p1.fa", EX_POLY1)
    assert main(["classify", "--json", "--witness", path]) == 0
    first = capsys.readouterr().out
    assert main(["classify", "--json", "--witness", path]) == 0
    assert capsys.readouterr().out == first


def test_dpa_prints_the_degree(write, capsys):
    assert main(["dpa", write("p2.fa", EX_POLY2)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_dpa_on_exponential_input_is_a_usage_error(write, capsys):
    assert main(["dpa", write("exp.fa", EX_EXP)]) == 2
    assert "exponential" in capsys.readouterr().err


def test_parse_errors_exit_2_and_name_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.fa"
    bad.write_text("initial 0\ntrans 0 1\n")
    assert main(["classify", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.fa")]) == 2


def test_epsilon_cycle_exits_3(write, capsys):
    cyc = validate(("a",), 2, [0], [1], [(0, EPSILON, 1), (1, EPSILON, 0), (0, "a", 1)])
    assert main(["classify", write("cyc.fa", cyc)]) == 3
    assert "ε-cycle" in capsys.readouterr().err


def test_entropy_needs_weights_exit_4(write, capsys):
    assert main(["entropy", write("p2.fa", EX_POLY2)]) == 4
    assert "weighted" in capsys.readouterr().err


def test_entropy_human_output_is_six_decimals(write, capsys):
    assert main(["entropy", write("geo.fa", EX_GEO)]) == 0
    assert capsys.readouterr().out == "s 1.386294\n"
    assert main(["entropy", "--base", "2", write("geo.fa", EX_GEO)]) == 0
    assert capsys.readouterr().out == "s 2.000000\n"


def test_entropy_brute_method_reports_residual(write, capsys):
    assert main(["entropy", "--method", "brute", "--max-len", "20", write("geo.fa", EX_GEO)]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split() for line in out.strip().splitlines())
    assert math.isclose(float(lines["h_brute"]), 2 * math.log(2), abs_tol=1e-4)
    assert float(lines["residual_mass"]) < 1e-5


def test_entropy_report_is_full_precision_json(write, capsys):
    assert main(["entropy", "--report", write("geo.fa", EX_GEO)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ambiguity"] == "FINITE"
    assert doc["dpa"] == 0
    assert abs(doc["s"] - 1.3862943610681966) < 1e-12
    assert doc["bound_low"] == doc["bound_high"] == doc["s"]


def test_expected_length_output(write, capsys):
    assert main(["expected-length", write("geo.fa", EX_GEO)]) == 0
    assert capsys.readouterr().out == "l 1.000000\n"


def test_info_summarizes_structure(write, capsys):
    assert main(["info", write("p2.fa", EX_POLY2)]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert fields["states"] == "3"
    assert fields["transitions"] == "5"
    assert fields["weighted"] == "no"
    assert fields["trim"] == "yes"


def test_trim_writes_a_parsable_file(tmp_path, capsys):
    loose = validate(("a",), 3, [0], [1], [(0, "a", 0), (0, "a", 1), (0, "a", 2)])
    src = tmp_path / "loose.fa"
    src.write_text(serialize(loose))
    dst = tmp_path / "trim.fa"
    assert main(["trim", str(src), "-o", str(dst)]) == 0
    trimmed = parse(dst.read_text())
    assert trimmed.num_states == 2


def test_intersect_round_trips_through_the_oracle(write, tmp_path, capsys):
    out = tmp_path / "prod.fa"
    assert main(["intersect", write("p1.fa", EX_POLY1), write("p1b.fa", EX_POLY1), "-o", str(out)]) == 0
    prod = parse(out.read_text())
    for n in range(1, 6):
        assert count_paths(prod, ("a",) * n) == n * n


def test_power_output_parses_despite_its_comment_header(write, capsys):
    assert main(["power", "-n", "2", write("fin.fa", EX_FIN2)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("#")  # composite-state legend
    sq = parse(text)
    assert count_paths(sq, ("a", "b")) == 4


def test_power_cube(write, capsys):
    assert main(["power", "-n", "3", write("fin.fa", EX_FIN2)]) == 0
    cube = parse(capsys.readouterr().out)
    assert count_paths(cube, ("a", "b")) == 8


def test_oracle_da_counts_one_string(write, capsys):
    assert main(["oracle", "da", write("p2.fa", EX_POLY2), "aaa"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_oracle_table_text_and_json_agree(write, capsys):
    path = write("p2.fa", EX_POLY2)
    assert main(["oracle", "table", path, "--max-len", "4"]) == 0
    text = capsys.readouterr().out
    assert main(["oracle", "table", path, "--max-len", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["count"] for r in rows] == [0, 0, 1, 3, 6]
    # the text table carries the same counts in its third column
    counts = [int(line.split()[1]) for line in text.strip().splitlines()[1:]]
    assert counts == [0, 0, 1, 3, 6]


def test_gen_is_deterministic_and_loads_back(capsys):
    argv = ["gen", "--states", "4", "--symbols", "2", "--density", "0.4",
            "--eps-density", "0.1", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    a = parse(first)
    assert a.num_states > 0


def test_entropy_weighted_file_round_trip(tmp_path, capsys):
    path = tmp_path / "unif.fa"
    path.write_text(serialize(EX_UNIF))
    assert main(["entropy", str(path)]) == 0
    assert capsys.readouterr().out == "s 0.693147\n"


@pytest.mark.parametrize(
    "text",
    [
        "initial 0 1.0\nfinal 0 nan\ntrans 0 0 a 0.5\n",
        "initial 0 1.0\nfinal 0 0.5\ntrans 0 0 a nan\n",
    ],
)
@pytest.mark.parametrize("flags", [[], ["--report"]])
def test_nan_weight_exits_4(tmp_path, capsys, text, flags):
    path = tmp_path / "nan.fa"
    path.write_text(text)
    assert main(["entropy", *flags, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan" in captured.err
