"""Text format round-trips and parse diagnostics."""

import math

import pytest

from artifact.errors import (
    MixedWeightedness,
    NonPositiveWeight,
    ParseError,
    WeightOutOfRange,
)
from artifact.fileformat import parse, serialize
from artifact.fixtures import (
    EX_EPS,
    EX_FIN2,
    EX_FIN2U,
    EX_GEO,
    EX_POLY1P,
    EX_POLY2,
    EX_UNIF,
)
from artifact.weighted import WeightedAutomaton, validate_weighted


def test_unweighted_round_trip():
    for a in (EX_FIN2, EX_POLY2, EX_EPS):
        assert parse(serialize(a)) == a


def test_weighted_round_trip():
    for wa in (EX_UNIF, EX_GEO, EX_FIN2U, EX_POLY1P):
        back = parse(serialize(wa))
        assert isinstance(back, WeightedAutomaton)
        assert back.skeleton == wa.skeleton
        assert back.lam == wa.lam
        assert back.rho == wa.rho
        assert back.weights == wa.weights


def test_empty_input_is_the_empty_automaton():
    a = parse("")
    assert a.num_states == 0
    assert a.num_transitions == 0


def test_comments_and_blank_lines_are_ignored():
    text = """
# a two-state machine
initial 0

# comments may appear anywhere as whole lines
final 1
trans 0 1 a
"""
    a = parse(text)
    assert a.num_states == 2
    assert a.num_transitions == 1


def test_epsilon_token_parses_to_the_empty_label():
    a = parse("initial 0\nfinal 1\ntrans 0 1 <eps>\ntrans 0 1 a\n")
    assert a.is_epsilon(0) or a.is_epsilon(1)
    assert serialize(a).count("<eps>") == 1


def test_unknown_directive_reports_its_line():
    with pytest.raises(ParseError) as exc:
        parse("initial 0\nfrobnicate 0\n")
    assert "line 2" in str(exc.value)


def test_wrong_arity_reports_line_and_reason():
    with pytest.raises(ParseError) as exc:
        parse("trans 0 1\n")
    assert "line 1" in str(exc.value)
    assert "trans" in str(exc.value)


def test_state_ids_must_be_nonnegative_integers():
    with pytest.raises(ParseError):
        parse("initial x\n")
    with pytest.raises(ParseError):
        parse("initial -1\n")


def test_duplicate_declarations_are_rejected():
    with pytest.raises(ParseError) as exc:
        parse("initial 0\ninitial 0\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse("initial 0\nfinal 1\nfinal 1\n")


def test_partially_weighted_input_is_rejected():
    with pytest.raises(MixedWeightedness):
        parse("initial 0 1.0\nfinal 1\ntrans 0 1 a\n")
    with pytest.raises(MixedWeightedness):
        parse("initial 0\nfinal 1 0.5\n")


def test_weight_range_is_validated():
    with pytest.raises(NonPositiveWeight):
        parse("initial 0 1.0\nfinal 0 -0.5\n")
    with pytest.raises(WeightOutOfRange):
        parse("initial 0 1.0\nfinal 0 1.5\n")


def test_serialize_is_deterministic():
    assert serialize(EX_FIN2) == serialize(EX_FIN2)
    assert serialize(EX_GEO) == serialize(EX_GEO)


def test_non_ascii_digit_state_ids_are_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse("initial 0\ntrans 0 ² a\n")
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        parse("final ١\n")


def test_nan_weights_are_out_of_range():
    with pytest.raises(WeightOutOfRange):
        validate_weighted(("a",), 1, {0: 1.0}, {0: math.nan}, [(0, "a", 0, 0.5)])
    with pytest.raises(WeightOutOfRange):
        validate_weighted(("a",), 1, {0: 1.0}, {0: 0.5}, [(0, "a", 0, math.nan)])
    with pytest.raises(WeightOutOfRange):
        parse("initial 0 1.0\nfinal 0 nan\ntrans 0 0 a 0.5\n")
