"""Command-line front door: JSON in, JSON report out.

Exit status 0 on success (`--help` included); 1 on a domain error or a
bad flag value (such as `--p 9`, `--samples 0` or an `--output` path that
cannot be written); 2 on malformed input, which includes every command
line the argument parser rejects (an unknown flag or subcommand, a
missing flag, a non-integer where an integer is expected) and every JSON
document its reader rejects (a missing key, a non-integer, a ragged
matrix, a shape or index that does not fit, an integer longer than the
interpreter's int-digit limit, 4300 by default).  A nonzero exit writes
{"error": ..., "detail": ...} to stderr and nothing to stdout.  `main`
returns the status; it does not raise SystemExit.  Output is
byte-identical for identical inputs and seeds, and report integers are
written exactly, whatever their length.

Each call builds the parser of the subcommand it names and no other;
`--help`, an unknown subcommand or no arguments build them all.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, Optional

from . import galois, lattice, padic, torsor, torus
from .errors import DomainError


class MalformedInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are malformed input (exit 2), not
    usage text and SystemExit."""

    def error(self, message: str):
        raise MalformedInput(f"{self.prog}: {message}")


def _camel_to_kebab(name: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def _load_json_arg(value: str) -> dict:
    """Accept inline JSON (starts with '{') or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith("{"):
        try:
            text = Path(value).read_text()
        except OSError as exc:
            raise MalformedInput(f"cannot read {value}: {exc}") from exc
    try:
        data = json.loads(text)
    # ValueError: an integer past the interpreter's digit limit (JSONDecodeError
    # is one too); RecursionError: nesting too deep.
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInput("expected a JSON object")
    return data


def _read_json(value: str, reader: Callable[[dict], object], what: str):
    """Load a JSON argument and build it with `reader`.

    A document the reader rejects with KeyError, TypeError or ValueError
    is malformed input (exit 2); a DomainError passes through (exit 1).
    """
    data = _load_json_arg(value)
    try:
        return reader(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad {what}: {exc}") from exc


def _parse_point(value: str, expected: int) -> list[int]:
    try:
        coords = [int(x) for x in value.split(",")]
    except ValueError as exc:
        raise MalformedInput(f"bad point {value!r}: {exc}") from exc
    if len(coords) != expected:
        raise MalformedInput(f"expected {expected} coordinates, got {len(coords)}")
    return coords


def _cmd_snf(args) -> dict:
    matrix = _read_json(args.matrix, lattice.IntegerMatrix.from_json_dict, "matrix")
    result = lattice.smith_normal_form(matrix)
    return {
        "U": result.U.to_json_dict(),
        "S": result.S.to_json_dict(),
        "V": result.V.to_json_dict(),
    }


def _quotient_report(quotient: lattice.LatticeQuotient) -> dict:
    return {
        "group": quotient.group.to_json_dict(),
        "projection": quotient.projection.to_json_dict(),
    }


def _cmd_coinvariants(args) -> dict:
    module = _read_json(args.module, galois.GaloisLatticeModule.from_json_dict, "module")
    return _quotient_report(galois.coinvariants(module, args.subgroup))


def _cmd_tame_quotient(args) -> dict:
    module = _read_json(args.module, galois.GaloisLatticeModule.from_json_dict, "module")
    return _quotient_report(galois.largest_trivial_free_quotient(module))


def _cmd_component_group(args) -> dict:
    if args.module is not None:
        spec = _read_json(args.module, torus.TameTorusSpec.from_json_dict, "torus description")
    elif args.torus == "norm":
        if args.e is None:
            raise MalformedInput("--e is required with --torus norm")
        spec = torus.norm_torus_spec(args.e)
    else:
        raise MalformedInput("provide --torus norm --e N or --module")
    cg = torus.component_group(spec)
    if args.with_frobenius:
        return cg.to_json_dict()
    return cg.group.to_json_dict()


def _cmd_h1(args) -> dict:
    group = _read_json(args.group, lattice.FgAbelianGroup.from_json_dict, "group")
    k = group.num_generators
    if args.frobenius == "identity":
        frob = lattice.IntegerMatrix.identity(k)
    else:
        frob = _read_json(args.frobenius, lattice.IntegerMatrix.from_json_dict, "matrix")
        if (frob.rows, frob.cols) != (k, k):
            raise MalformedInput(f"bad matrix: matrix must be {k}x{k} for this presentation")
    return galois.cyclic_h1(group, frob).to_json_dict()


def _cmd_norm_class(args) -> dict:
    ctx = padic.PadicContext(args.p, args.precision)
    return padic.norm_class(ctx.integer(args.a), args.e).to_json_dict()


def _cmd_oracle_norm_class(args) -> dict:
    ctx = padic.PadicContext(args.p, args.precision)
    return padic.norm_class_oracle(ctx.integer(args.a), args.e, args.search_precision).to_json_dict()


def _cmd_eval_torsor(args) -> dict:
    family = _read_json(args.family, torsor.NormTorsorFamily.from_json_dict, "family")
    point = _parse_point(args.point, family.n_vars)
    return torsor.evaluate(family, point).to_json_dict()


def _cmd_verify_diagram(args) -> dict:
    family = _read_json(args.family, torsor.NormTorsorFamily.from_json_dict, "family")
    return torsor.verify_factorization(family, args.samples, args.seed).to_json_dict()


def _cmd_constancy(args) -> dict:
    family = _read_json(args.family, torsor.NormTorsorFamily.from_json_dict, "family")
    return torsor.constancy_check(family).to_json_dict()


_MODULE = ("--module", dict(required=True, help="module JSON (inline or path)"))
_FAMILY = ("--family", dict(required=True, help="family JSON (inline or path)"))
_PADIC = [
    ("--p", dict(type=int, required=True, help="odd prime")),
    ("--e", dict(type=int, required=True, help="degree, must divide p-1")),
    ("--a", dict(type=int, required=True, help="the element, as an integer")),
    ("--precision", dict(type=int, default=6, help="working precision N")),
]

# Each subcommand: its handler, the example in its epilog, and its
# arguments as (flag, options) pairs.  Every subcommand also takes --output.
_COMMANDS = {
    "snf": (_cmd_snf, 'tametorus snf --matrix \'{"rows":2,"cols":2,"entries":[[2,4],[6,8]]}\'', [
        ("--matrix", dict(required=True, help="matrix JSON (inline or a file path)"))]),
    "coinvariants": (_cmd_coinvariants,
                     "tametorus coinvariants --module module.json --subgroup inertia", [
        _MODULE, ("--subgroup", dict(default="full", choices=galois.SUBGROUP_SELECTORS))]),
    "tame-quotient": (_cmd_tame_quotient, "tametorus tame-quotient --module module.json",
                      [_MODULE]),
    "component-group": (_cmd_component_group,
                        "tametorus component-group --torus norm --e 2   (order-2 group)", [
        ("--torus", dict(choices=["norm"], help="built-in torus family")),
        ("--e", dict(type=int, help="degree of the norm torus")),
        ("--module", dict(help="explicit character module JSON instead of --torus")),
        ("--with-frobenius", dict(action="store_true",
                                  help="include the descended Frobenius matrix in the report"))]),
    "h1": (_cmd_h1, "tametorus h1 --group '{\"free_rank\":0,\"invariant_factors\":[2]}' "
                    "--frobenius identity", [
        ("--group", dict(required=True, help="group JSON (inline or path)")),
        ("--frobenius", dict(required=True, help="matrix JSON, or the literal 'identity'"))]),
    "norm-class": (_cmd_norm_class, "tametorus norm-class --p 5 --e 2 --a 2 --precision 6",
                   _PADIC),
    "oracle-norm-class": (_cmd_oracle_norm_class, "tametorus oracle-norm-class --p 5 --e 2 "
                          "--a 2 --precision 6 --search-precision 3", _PADIC + [
        ("--search-precision", dict(type=int, default=2,
                                    help="coefficient vectors are exhausted mod p^this"))]),
    "eval-torsor": (_cmd_eval_torsor, "tametorus eval-torsor --family family.json --point 1,2", [
        _FAMILY, ("--point", dict(required=True, help="comma-separated integer coordinates"))]),
    "verify-diagram": (_cmd_verify_diagram,
                       "tametorus verify-diagram --family family.json --samples 10000 --seed 42",
                       [_FAMILY, ("--samples", dict(type=int, default=10_000)),
                        ("--seed", dict(type=int, default=0))]),
    "constancy": (_cmd_constancy, "tametorus constancy --family family.json", [_FAMILY]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or only `command`'s: a
    subcommand's usage, help and errors do not depend on its siblings."""
    parser = _Parser(
        prog="tametorus",
        description="Component groups of tame norm tori, p-adic norm classes, "
        "and torsor-evaluation checks over the special fibre.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else [command]:
        func, example, arguments = _COMMANDS[name]
        p = sub.add_parser(name, epilog=f"example: {example}")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.set_defaults(func=func)
    return parser


def _emit(report: dict, output: Optional[str], stream) -> None:
    # Report integers are written exactly, however many digits they have
    # (SNF transforms of a 26 x 26 matrix reach past the default 4300).
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    if output:
        Path(output).write_text(text)
    else:
        stream.write(text)


def _fail(code: int, error: str, detail: str) -> int:
    _emit({"error": error, "detail": detail}, None, sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Anything but a subcommand name first (--help, no arguments, an unknown
    # command, an option) takes the full parser: its help lists them all.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
    except SystemExit as exc:  # --help has printed its text
        return exc.code
    except MalformedInput as exc:
        return _fail(2, "malformed-input", str(exc))
    except DomainError as exc:
        return _fail(1, _camel_to_kebab(type(exc).__name__), str(exc))
    except ValueError as exc:
        return _fail(1, "invalid-value", str(exc))
    try:
        _emit(report, args.output, sys.stdout)
    except OSError as exc:
        return _fail(1, "invalid-value", f"cannot write --output: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
