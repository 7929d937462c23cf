"""Command-line front end.

One automaton per file, one command per invocation.  Human-readable output
rounds floats to 6 decimal places; `--json`/`--report` switch to single-line
structured output at full precision.  Exit codes: 0 success, 2 usage or
parse error, 3 ε-cycle input, 4 probabilistic validation failure or cycle
mass ≥ 1, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import classify, dpa
from .core import EPSILON, FiniteAutomaton, is_trim, trim
from .entropy import (
    _MASS_TOL,
    LN2,
    _brute_entropy,
    _sweep,
    entropy_report,
    validate_probabilistic,
)
from .errors import (
    AutomatonError,
    EpsilonCycleInput,
    InternalInvariantViolation,
    MassNotOne,
    NonConvergent,
    NonPositiveWeight,
    WeightOutOfRange,
)
from .fileformat import parse, serialize
from .oracle import count_paths, growth_table, random_automaton
from .product import cube, intersect, square
from .semiring import map_entropy, map_expectation
from .weighted import WeightedAutomaton, trim_weighted


def _load(path: str) -> FiniteAutomaton | WeightedAutomaton:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _skeleton(a: FiniteAutomaton | WeightedAutomaton) -> FiniteAutomaton:
    return a.skeleton if isinstance(a, WeightedAutomaton) else a


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _tokens(s: str) -> tuple[str, ...]:
    """CLI string syntax: empty = ε, commas separate tokens, else characters."""
    if not s:
        return ()
    if "," in s:
        return tuple(s.split(","))
    return tuple(s)


def _cmd_classify(args: argparse.Namespace) -> int:
    report = classify(_skeleton(_load(args.file)), want_witness=args.witness)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.line())
        if args.witness and report.witness is not None:
            print("witness " + json.dumps(report.witness.as_dict()))
    return 0


def _cmd_dpa(args: argparse.Namespace) -> int:
    print(dpa(trim(_skeleton(_load(args.file)))))
    return 0


def _cmd_intersect(args: argparse.Namespace) -> int:
    a = trim(_skeleton(_load(args.left)))
    b = trim(_skeleton(_load(args.right)))
    _emit(serialize(intersect(a, b)), args.output)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    a = trim(_skeleton(_load(args.file)))
    _emit(serialize(square(a) if args.n == 2 else cube(a)), args.output)
    return 0


def _cmd_trim(args: argparse.Namespace) -> int:
    a = _load(args.file)
    t = trim_weighted(a) if isinstance(a, WeightedAutomaton) else trim(a)
    _emit(serialize(t), args.output)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    a = _load(args.file)
    skel = _skeleton(a)
    eps_count = sum(1 for t in skel.transitions if t.label == EPSILON)
    print(f"states {skel.num_states}")
    print(f"transitions {len(skel.transitions)}")
    print(f"epsilon_transitions {eps_count}")
    print(f"alphabet {','.join(skel.alphabet)}")
    print(f"initial {len(skel.initial)}")
    print(f"final {len(skel.final)}")
    print(f"weighted {'yes' if isinstance(a, WeightedAutomaton) else 'no'}")
    print(f"trim {'yes' if is_trim(skel) else 'no'}")
    return 0


def _require_weighted(a: FiniteAutomaton | WeightedAutomaton) -> WeightedAutomaton | None:
    if isinstance(a, WeightedAutomaton):
        return trim_weighted(a)
    print("error: this command needs a weighted automaton file", file=sys.stderr)
    return None


def _cmd_entropy(args: argparse.Namespace) -> int:
    wa = _require_weighted(_load(args.file))
    if wa is None:
        return 4
    if args.report:
        rep = entropy_report(
            wa,
            tol=args.tol,
            want_brute=args.method == "brute",
            brute_max_len=args.max_len,
        )
        print(json.dumps(rep.as_dict(args.base)))
        return 0
    conv = LN2 if args.base == "2" else 1.0
    if args.method == "semiring":
        # the mass check and S come from one entropy sweep
        s = _sweep(wa, map_entropy, args.tol, _MASS_TOL)[1]
        print(f"s {s / conv:.6f}")
    else:
        validate_probabilistic(wa, tol=args.tol)
        h, residual = _brute_entropy(wa, args.max_len)
        print(f"h_brute {h / conv:.6f}")
        print(f"residual_mass {residual:.6f}")
    return 0


def _cmd_expected_length(args: argparse.Namespace) -> int:
    wa = _require_weighted(_load(args.file))
    if wa is None:
        return 4
    # the mass check and L come from one expectation pass
    print(f"l {_sweep(wa, map_expectation, args.tol, _MASS_TOL)[1]:.6f}")
    return 0


def _cmd_oracle_da(args: argparse.Namespace) -> int:
    print(count_paths(_skeleton(_load(args.file)), _tokens(args.string)))
    return 0


def _cmd_oracle_table(args: argparse.Namespace) -> int:
    table = growth_table(_skeleton(_load(args.file)), args.max_len)
    if args.json:
        rows = [
            {"length": r.length, "count": r.count, "string": list(r.string)}
            for r in table.rows
        ]
        print(json.dumps(rows))
    else:
        print("length count string")
        for r in table.rows:
            print(f"{r.length:>6} {r.count:>5} {','.join(r.string)}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    a = random_automaton(
        states=args.states,
        symbols=args.symbols,
        density=args.density,
        eps_density=args.eps_density,
        seed=args.seed,
    )
    _emit(serialize(a), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Ambiguity analysis and entropy of finite automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="ambiguity class (FINITE/POLYNOMIAL/EXPONENTIAL)")
    c.add_argument("file")
    c.add_argument("--json", action="store_true", help="single-line structured output")
    c.add_argument("--witness", action="store_true", help="include a verifiable witness")
    c.set_defaults(func=_cmd_classify)

    d = sub.add_parser("dpa", help="degree of polynomial ambiguity")
    d.add_argument("file")
    d.set_defaults(func=_cmd_dpa)

    i = sub.add_parser("intersect", help="ε-filtered intersection of two automata")
    i.add_argument("left")
    i.add_argument("right")
    i.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    i.set_defaults(func=_cmd_intersect)

    pw = sub.add_parser("power", help="self-intersection (square or cube)")
    pw.add_argument("file")
    pw.add_argument("-n", type=int, choices=(2, 3), required=True)
    pw.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    pw.set_defaults(func=_cmd_power)

    t = sub.add_parser("trim", help="drop states off every successful path")
    t.add_argument("file")
    t.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    t.set_defaults(func=_cmd_trim)

    n = sub.add_parser("info", help="structural summary of an automaton file")
    n.add_argument("file")
    n.set_defaults(func=_cmd_info)

    e = sub.add_parser("entropy", help="entropy of a probabilistic automaton")
    e.add_argument("file")
    e.add_argument("--method", choices=("semiring", "brute"), default="semiring")
    e.add_argument("--tol", type=float, default=1e-10, help="largest accepted solve residual")
    e.add_argument("--max-len", type=int, default=12, help="truncation for --method brute")
    e.add_argument("--base", choices=("e", "2"), default="e")
    e.add_argument("--report", action="store_true", help="full structured report")
    e.set_defaults(func=_cmd_entropy)

    el = sub.add_parser("expected-length", help="expected string length")
    el.add_argument("file")
    el.add_argument("--tol", type=float, default=1e-10, help="largest accepted solve residual")
    el.set_defaults(func=_cmd_expected_length)

    o = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = o.add_subparsers(dest="oracle_command", required=True)
    da = osub.add_parser("da", help="number of accepting paths for one string")
    da.add_argument("file")
    da.add_argument("string", help="characters, comma-separated tokens, or '' for ε")
    da.set_defaults(func=_cmd_oracle_da)
    tb = osub.add_parser("table", help="per-length maxima of the path count")
    tb.add_argument("file")
    tb.add_argument("--max-len", type=int, required=True)
    tb.add_argument("--json", action="store_true", help="single-line structured output")
    tb.set_defaults(func=_cmd_oracle_table)

    g = sub.add_parser("gen", help="seed-deterministic random automaton")
    g.add_argument("--states", type=int, required=True)
    g.add_argument("--symbols", type=int, required=True)
    g.add_argument("--density", type=float, required=True)
    g.add_argument("--eps-density", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    g.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except EpsilonCycleInput as exc:
        return _fail(exc, 3)
    except (MassNotOne, NonConvergent, NonPositiveWeight, WeightOutOfRange) as exc:
        return _fail(exc, 4)
    except InternalInvariantViolation as exc:
        return _fail(exc, 5)
    except (AutomatonError, ValueError, OSError) as exc:
        return _fail(exc, 2)


def _fail(exc: BaseException, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
