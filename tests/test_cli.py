import argparse
import contextlib
import io
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametorus import cli
from tametorus.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_component_group_norm_two(capsys):
    code, out, _ = run_cli(capsys, "component-group", "--torus", "norm", "--e", "2")
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "invariant_factors": [2]}


def test_component_group_with_frobenius(capsys):
    code, out, _ = run_cli(capsys, "component-group", "--torus", "norm", "--e", "3",
                           "--with-frobenius")
    assert code == 0
    report = json.loads(out)
    assert report["group"] == {"free_rank": 0, "invariant_factors": [3]}
    assert report["frobenius_action"]["rows"] == 1


def test_h1_identity_frobenius(capsys):
    code, out, _ = run_cli(capsys, "h1", "--group",
                           '{"free_rank":1,"invariant_factors":[]}',
                           "--frobenius", "identity")
    assert code == 0
    assert json.loads(out) == {"free_rank": 0, "invariant_factors": []}


def test_snf_reports_transforms(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix",
                           '{"rows":2,"cols":2,"entries":[[2,4],[6,8]]}')
    assert code == 0
    report = json.loads(out)
    assert report["S"]["entries"] == [[2, 0], [0, 4]]
    assert set(report) == {"U", "S", "V"}


def test_norm_class_and_oracle_agree(capsys):
    code, out, _ = run_cli(capsys, "norm-class", "--p", "5", "--e", "2", "--a", "2",
                           "--precision", "6")
    assert code == 0
    formula = json.loads(out)
    code, out, _ = run_cli(capsys, "oracle-norm-class", "--p", "5", "--e", "2", "--a", "2",
                           "--precision", "6", "--search-precision", "3")
    assert code == 0
    assert json.loads(out) == formula == {"value": 1, "e": 2}


FAMILY = '{"p":5,"precision":6,"e":2,"n_vars":2,"f":[{"c":1,"exp":[2,0]},{"c":1,"exp":[0,0]}]}'


def test_verify_diagram_deterministic(capsys):
    args = ("verify-diagram", "--family", FAMILY, "--samples", "400", "--seed", "7")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    report = json.loads(out1)
    assert report["failures"] == []
    assert report["samples_tested"] + report["skipped_nonunit"] == 400
    assert report["seed"] == 7


def test_eval_torsor(capsys):
    code, out, _ = run_cli(capsys, "eval-torsor", "--family", FAMILY, "--point", "1,0")
    assert code == 0
    assert json.loads(out) == {"value": 1, "e": 2}


def test_constancy(capsys):
    code, out, _ = run_cli(capsys, "constancy", "--family",
                           '{"p":5,"precision":4,"e":2,"n_vars":1,"f":[{"c":1,"exp":[1]}]}')
    assert code == 0
    report = json.loads(out)
    assert report["constant"] is False
    assert report["classes"] == {"1": 0, "2": 1, "3": 1, "4": 0}


def test_tame_quotient_and_coinvariants(capsys):
    module = json.dumps({
        "lattice_rank": 2,
        "generators": [{"rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}],
        "inertia": [0],
        "wild_inertia": [0],
        "frobenius": None,
    })
    code, out, _ = run_cli(capsys, "tame-quotient", "--module", module)
    assert code == 0
    assert json.loads(out)["group"] == {"free_rank": 1, "invariant_factors": []}
    code, out, _ = run_cli(capsys, "coinvariants", "--module", module,
                           "--subgroup", "inertia")
    assert code == 0
    # Z^2 / <(sigma - 1)m> = Z^2 / <(1,-1)> is free of rank 1
    assert json.loads(out)["group"] == {"free_rank": 1, "invariant_factors": []}


def test_infinite_action_exit_code(capsys):
    module = json.dumps({
        "lattice_rank": 2,
        "generators": [{"rows": 2, "cols": 2, "entries": [[1, 1], [0, 1]]}],
    })
    code, out, err = run_cli(capsys, "coinvariants", "--module", module)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "closure-cap-exceeded"


def test_file_input_and_output(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    fam_path.write_text(FAMILY)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-diagram", "--family", str(fam_path),
                           "--samples", "50", "--seed", "3", "--output", str(out_path))
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["failures"] == []


def test_oracle_without_a_represented_norm_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "oracle-norm-class", "--p", "5", "--e", "2", "--a", "13",
                             "--precision", "6", "--search-precision", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "no-represented-norm"


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "norm-class", "--p", "5", "--e", "3", "--a", "2",
                           "--precision", "4")
    assert code == 1
    assert json.loads(err)["error"] == "degree-incompatible"


def test_wild_prime_rejected(capsys):
    code, _, err = run_cli(capsys, "norm-class", "--p", "2", "--e", "2", "--a", "3",
                           "--precision", "4")
    assert code == 1
    assert json.loads(err)["error"] == "invalid-value"


def test_malformed_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "snf", "--matrix", '{"rows":2}')
    assert code == 2
    assert json.loads(err)["error"] == "malformed-input"


@pytest.mark.parametrize("argv", [
    ("snf", "--matrix", '{"rows":1,"cols":1,"entries":[[2.7]]}'),
    ("snf", "--matrix", '{"rows":1,"cols":1,"entries":[[true]]}'),
    ("h1", "--group", '{"free_rank":0,"invariant_factors":[2.9]}', "--frobenius", "identity"),
    ("eval-torsor", "--family",
     '{"p":5,"precision":6,"e":2,"n_vars":1,"f":[{"c":1,"exp":[1.5]}]}', "--point", "2"),
], ids=["float-entry", "bool-entry", "float-factor", "float-exponent"])
def test_non_integer_json_is_malformed(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_deeply_nested_json_is_malformed(capsys):
    code, out, err = run_cli(capsys, "snf", "--matrix", '{"rows":' + "[" * 100_000)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_reports_reparse_under_schema(capsys):
    # round-trip: matrices and groups the CLI emits re-parse
    from tametorus.lattice import FgAbelianGroup, IntegerMatrix

    code, out, _ = run_cli(capsys, "snf", "--matrix",
                           '{"rows":2,"cols":3,"entries":[[1,2,3],[4,5,6]]}')
    assert code == 0
    report = json.loads(out)
    for key in ("U", "S", "V"):
        IntegerMatrix.from_json_dict(report[key])
    code, out, _ = run_cli(capsys, "component-group", "--torus", "norm", "--e", "4")
    assert code == 0
    assert FgAbelianGroup.from_json_dict(json.loads(out)).order() == 4


REJECTED_COMMAND_LINES = {
    "dash-value": ("coinvariants", "--module", "-1e5"),
    "unknown-flag": ("coinvariants", "--module", '{"lattice_rank":1,"generators":[]}',
                     "--unknown", "1"),
    "missing-flag": ("norm-class", "--p", "5", "--e", "2"),
    "non-integer-flag": ("norm-class", "--p", "5", "--e", "x", "--a", "2"),
    "unknown-command": ("no-such-command",),
}


@pytest.mark.parametrize("argv", list(REJECTED_COMMAND_LINES.values()),
                         ids=list(REJECTED_COMMAND_LINES))
def test_rejected_command_line_is_malformed(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


@pytest.mark.parametrize("argv", [("--help",), ("verify-diagram", "--help")])
def test_help_exits_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: tametorus")
    assert err == ""


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_report_integers_past_the_digit_limit_are_written_exactly(capsys):
    # The fixed 26 x 26 matrix of the lattice_tower benchmark: entries of
    # its U and V run past the interpreter's default of 4300 digits.
    rng = random.Random("snf-fixed-26")
    a = [[rng.randint(-20, 20) for _ in range(26)] for _ in range(26)]
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "snf", "--matrix",
                             json.dumps({"rows": 26, "cols": 26, "entries": a}))
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    u, s, v = (report[key]["entries"] for key in "USV")
    assert max(abs(x) for row in u + v for x in row) >= 10 ** 4300
    assert _product(_product(u, a), v) == s


BIG = "1" + "0" * 4200  # 10^4200: its square is past the interpreter's int-digit limit


@pytest.mark.parametrize("argv,detail", [
    (["coinvariants", "--module",
      '{"lattice_rank":2,"generators":[{"rows":2,"cols":2,"entries":'
      f'[[{BIG},0],[0,{BIG}]]}}],"inertia":[0]}}'],
     "generator determinant a 27905-bit integer is not a unit"),
    (["component-group", "--module",
      '{"lattice_rank":2,"generators":[{"rows":2,"cols":2,"entries":[[1,0],[0,1]]}],'
      f'"inertia":[0],"frobenius":{{"rows":2,"cols":2,"entries":[[{BIG},1],[0,{BIG}]]}}}}'],
     "frobenius must be unimodular"),
], ids=["coinvariants-determinant", "component-group-frobenius"])
def test_a_non_unit_past_the_digit_limit_is_a_domain_error(capsys, argv, detail):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "not-unimodular", "detail": detail}


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_output_is_an_error(tmp_path, capsys, target):
    code, out, err = run_cli(capsys, "norm-class", "--p", "5", "--e", "2", "--a", "2",
                             "--output", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-value"
    assert list(tmp_path.iterdir()) == []


def test_sample_count_is_bounded(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify-diagram", "--family", FAMILY,
                             "--samples", "1000001")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "invalid-value"


def _module(**changes):
    base = {"lattice_rank": 2,
            "generators": [{"rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}],
            "inertia": [0], "wild_inertia": [], "frobenius": None}
    return json.dumps({**base, **changes})


def _family(**changes):
    base = {"p": 5, "precision": 4, "e": 2, "n_vars": 1, "f": [{"c": 1, "exp": [1]}]}
    return json.dumps({**base, **changes})


def _diag(*d):
    n = len(d)
    return {"rows": n, "cols": n, "entries": [[d[i] if i == j else 0 for j in range(n)]
                                              for i in range(n)]}


RAGGED = {"rows": 2, "cols": 2, "entries": [[1, 0], [0]]}

# Documents their reader rejects, by the kind of document they are.
SHAPE_ERRORS = {
    "module": {
        "ragged-entries": _module(generators=[RAGGED]),
        "generator-shape": _module(lattice_rank=3),
        "frobenius-shape": _module(frobenius=_diag(1)),
        "inertia-index": _module(inertia=[1]),
        "wild-index": _module(wild_inertia=[3]),
        "frobenius-not-normalizing": _module(
            generators=[_diag(-1, 1)],
            frobenius={"rows": 2, "cols": 2, "entries": [[1, 1], [0, 1]]}),
        "wild-outside-inertia": _module(generators=[_diag(-1, 1), _diag(1, -1)],
                                        inertia=[0], wild_inertia=[1]),
    },
    "torus": {"norm-degree-zero": json.dumps({"torus": "norm", "e": 0})},
    "frobenius": {"frobenius-shape": json.dumps(_diag(1, 1))},
    "family": {
        "non-prime-p": _family(p=9),
        "precision-one": _family(precision=1),
        "exponent-length": _family(f=[{"c": 1, "exp": [1, 0]}]),
        "n-vars-negative": _family(n_vars=-1, f=[]),
    },
    "matrix": {
        "ragged-entries": json.dumps(RAGGED),
        # json.loads raises a plain ValueError past the interpreter's limit.
        "integer-past-digit-limit": '{"rows":1,"cols":1,"entries":[[' + "1" * 5000 + "]]}",
    },
}
DOC = object()  # where the document goes in a command line
READERS = {
    "module": [("coinvariants", "--module", DOC), ("tame-quotient", "--module", DOC),
               ("component-group", "--module", DOC)],
    "torus": [("component-group", "--module", DOC)],
    "frobenius": [("h1", "--group", '{"free_rank":0,"invariant_factors":[2]}',
                   "--frobenius", DOC)],
    "family": [("eval-torsor", "--family", DOC, "--point", "1"),
               ("verify-diagram", "--family", DOC, "--samples", "10"),
               ("constancy", "--family", DOC)],
    "matrix": [("snf", "--matrix", DOC),
               ("h1", "--group", '{"free_rank":0,"invariant_factors":[2]}', "--frobenius", DOC)],
}


@pytest.mark.parametrize("argv", [
    pytest.param([doc if a is DOC else a for a in command], id=f"{command[0]}-{kind}-{name}")
    for kind, docs in SHAPE_ERRORS.items()
    for name, doc in docs.items()
    for command in READERS[kind]
])
def test_rejected_document_is_malformed(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "malformed-input"


def test_frobenius_of_the_right_shape_off_the_relations_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "h1", "--group", '{"free_rank":1,"invariant_factors":[2]}',
                             "--frobenius", json.dumps({"rows": 2, "cols": 2,
                                                        "entries": [[1, 0], [1, 1]]}))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "invalid-value",
                               "detail": "matrix does not preserve the torsion relations"}


def test_a_file_whose_top_level_is_not_an_object_is_malformed(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "snf", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "malformed-input", "detail": "expected a JSON object"}


PADIC_FLAGS = ("--p", "5", "--e", "2", "--a", "2")

# Requests whose size parameter lies past its cap: (exit code, error, argv).
OVER_CAP = {
    "oracle-search-precision": (1, "search-space-too-large", (
        "oracle-norm-class", *PADIC_FLAGS, "--search-precision", "1000000000")),
    "precision-past-cap": (1, "invalid-value", ("norm-class", *PADIC_FLAGS,
                                                "--precision", "10001")),
    "precision-huge": (1, "invalid-value", ("norm-class", *PADIC_FLAGS,
                                            "--precision", "100000000")),
    "oracle-precision-huge": (1, "invalid-value", ("oracle-norm-class", *PADIC_FLAGS,
                                                   "--precision", "100000000")),
    "norm-degree-past-cap": (1, "invalid-value", ("component-group", "--torus", "norm",
                                                  "--e", "257")),
    "norm-degree-huge": (1, "invalid-value", ("component-group", "--torus", "norm",
                                              "--e", "300")),
    "norm-degree-document": (2, "malformed-input", ("component-group", "--module",
                                                    json.dumps({"torus": "norm", "e": 257}))),
    "family-precision-past-cap": (2, "malformed-input", (
        "eval-torsor", "--family", _family(precision=10001), "--point", "1")),
    "family-precision-huge": (2, "malformed-input", ("constancy", "--family",
                                                     _family(precision=10**8))),
    "constancy-n-vars-huge": (1, "enumeration-too-large", (
        "constancy", "--family", _family(n_vars=30_000_000, f=[]))),
    "constancy-dlog-work": (1, "enumeration-too-large", (
        "constancy", "--family", _family(p=999959, precision=2, e=999958))),
    "p-past-cap": (1, "invalid-value", ("norm-class", "--p", "1000000000039", "--e",
                                        "1000000000038", "--a", "12345", "--precision", "2")),
    "family-p-past-cap": (2, "malformed-input", ("constancy", "--family",
                                                 _family(p=1000000000039, precision=2))),
    "verify-precision-times-samples": (1, "sampling-too-large", (
        "verify-diagram", "--family", _family(precision=10_000), "--samples", "1000000")),
    "verify-n-vars-times-samples": (1, "sampling-too-large", (
        "verify-diagram", "--family", _family(n_vars=10**7, f=[]), "--samples", "1000")),
    "group-rank-huge": (2, "malformed-input", (
        "h1", "--group", '{"free_rank":100000000,"invariant_factors":[]}',
        "--frobenius", "identity")),
    "matrix-cols-huge": (2, "malformed-input", (
        "snf", "--matrix", '{"rows":0,"cols":100000000,"entries":[]}')),
    "module-rank-huge": (2, "malformed-input", (
        "coinvariants", "--module", '{"lattice_rank":100000000,"generators":[]}')),
}


@pytest.mark.parametrize("expected_code,error,argv", list(OVER_CAP.values()), ids=list(OVER_CAP))
def test_parameters_past_their_cap_fail_fast(capsys, expected_code, error, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == expected_code
    assert out == ""
    assert json.loads(err)["error"] == error


def _permutation_module(cycles):
    n = sum(cycles)
    image = []
    for c in cycles:
        image += [len(image) + (i + 1) % c for i in range(c)]
    entries = [[int(image[j] == i) for j in range(n)] for i in range(n)]
    return json.dumps({"lattice_rank": n,
                       "generators": [{"rows": n, "cols": n, "entries": entries}]})


def test_closure_is_charged_for_its_entries(capsys):
    # Order 2*3*5*...*23 at rank 100: the entry budget stops the closure
    # long before the element cap would.
    module = _permutation_module([2, 3, 5, 7, 11, 13, 17, 19, 23])
    code, out, err = run_cli(capsys, "coinvariants", "--module", module)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "closure-cap-exceeded"
    assert "rank 100" in error["detail"]
    assert int(re.search(r"(\d+) elements", error["detail"]).group(1)) <= 1664


def _row_additions(n, count):
    # Seeded row additions to I: a nonnegative unimodular matrix that is not
    # a permutation, so of infinite order, whose powers' entries grow.
    rng = random.Random(n)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return {"rows": n, "cols": n, "entries": rows}


def test_closure_is_charged_for_the_words_of_its_entries(capsys):
    module = json.dumps({"lattice_rank": 8, "generators": [_row_additions(8, 32)]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "coinvariants", "--module", module)
    assert time.perf_counter() - start < 3.0
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "closure-cap-exceeded"
    assert int(re.search(r"(\d+) elements", error["detail"]).group(1)) < 10_000


def test_order_loop_is_charged_for_its_work(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "h1", "--group", '{"free_rank":16,"invariant_factors":[]}',
                             "--frobenius", json.dumps(_row_additions(16, 64)))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "infinite-order"


# The requests cli_mix benchmarks, each answer checked against an
# independent reference when bench/record_cli.py recorded it.
RECORDED_CASES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "cli_cases.json").read_text())

# The error kind on stderr of each recorded case that fails, keyed by its
# argv; cli_cases.json records no stderr, so a reworded or reclassified
# error would otherwise pass at the same exit code.
RECORDED_ERROR_KINDS = {
    ("snf", "--matrix", '{"rows":2,"cols":2,"entries":[[1,2],[3'): "malformed-input",
    ("snf", "--matrix", '{"rows":2}'): "malformed-input",
    ("h1", "--group", '{"free_rank":0}', "--frobenius", "identity"): "malformed-input",
    ("eval-torsor", "--family",
     '{"p":5,"precision":4,"e":2,"n_vars":2,"f":[{"c":1,"exp":[2,0]},{"c":1,"exp":[0,0]}]}',
     "--point", "1,2,3"): "malformed-input",
    ("eval-torsor", "--family",
     '{"p":5,"precision":4,"e":2,"n_vars":2,"f":[{"c":1,"exp":[2,0]},{"c":1,"exp":[0,0]}]}',
     "--point", "1,x"): "malformed-input",
    ("component-group", "--torus", "norm"): "malformed-input",
    ("component-group",): "malformed-input",
    ("norm-class", "--p", "5", "--e", "2"): "malformed-input",
    ("norm-class", "--p", "5", "--e", "two", "--a", "2"): "malformed-input",
    ("frobenius-twist",): "malformed-input",
    ("tame-quotient", "--module", '{"lattice_rank":2'): "malformed-input",
    ("norm-class", "--p", "7", "--e", "4", "--a", "3", "--precision", "4"): "degree-incompatible",
    ("norm-class", "--p", "9", "--e", "2", "--a", "3", "--precision", "4"): "invalid-value",
    ("norm-class", "--p", "11", "--e", "5", "--a", "0", "--precision", "4"): "precision-exhausted",
    ("oracle-norm-class", "--p", "13", "--e", "4", "--a", "2", "--precision", "4",
     "--search-precision", "3"): "search-space-too-large",
    ("constancy", "--family",
     '{"p":101,"precision":4,"e":2,"n_vars":3,"f":[{"c":1,"exp":[0,0,0]}]}'):
        "enumeration-too-large",
    ("eval-torsor", "--family",
     '{"p":7,"precision":4,"e":3,"n_vars":1,"f":[{"c":1,"exp":[1]}]}',
     "--point", "0"): "precision-exhausted",
    ("verify-diagram", "--family",
     '{"p":7,"precision":4,"e":4,"n_vars":1,"f":[{"c":1,"exp":[1]}]}',
     "--samples", "10"): "degree-incompatible",
    ("component-group", "--module",
     '{"lattice_rank":1,"generators":[{"rows":1,"cols":1,"entries":[[-1]]}],"inertia":[0],'
     '"wild_inertia":[0]}'): "tameness-violation",
    ("tame-quotient", "--module",
     '{"lattice_rank":1,"generators":[{"rows":1,"cols":1,"entries":[[2]]}]}'): "not-unimodular",
}


@pytest.mark.parametrize("case", RECORDED_CASES,
                         ids=[f"{i}-{case['group']}" for i, case in enumerate(RECORDED_CASES)])
def test_recorded_case_keeps_exit_code_and_stdout(capsys, case):
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    # A success writes nothing to stderr; a failure writes its error kind.
    kind = RECORDED_ERROR_KINDS.get(tuple(case["argv"]))
    assert (json.loads(err)["error"] if code else err) == (kind or "")


SNF_2X2 = ("snf", "--matrix", '{"rows":2,"cols":2,"entries":[[2,4],[6,8]]}')

# Command lines whose exit code, stdout and stderr must not depend on
# whether the parser holds one subcommand or all of them.
PARITY_LINES = [
    *(pytest.param(case["argv"], id=f"recorded-{i}") for i, case in enumerate(RECORDED_CASES)),
    *(pytest.param(argv, id=f"rejected-{name}") for name, argv in REJECTED_COMMAND_LINES.items()),
    pytest.param(("--help",), id="help"),
    pytest.param(("-h",), id="h"),
    pytest.param((), id="no-arguments"),
    pytest.param(("snf", "snf"), id="command-twice"),
    pytest.param(("snf", "--mat", SNF_2X2[2]), id="abbreviated-flag"),
    pytest.param(("--output", "x", *SNF_2X2), id="option-before-command"),
    *(pytest.param((name, "--help"), id=f"{name}-help") for name in cli._COMMANDS),
]


@pytest.mark.parametrize("argv", PARITY_LINES)
def test_one_subcommand_parser_answers_as_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    alone = run_cli(capsys, *argv)
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert run_cli(capsys, *argv) == alone


def test_only_the_named_subcommand_parser_is_built(capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)

    def names_built(*argv):
        built.clear()
        run_cli(capsys, *argv)
        return built

    assert names_built(*SNF_2X2) == ["snf"]
    for argv in [("--help",), (), ("no-such-command",)]:
        assert names_built(*argv) == list(cli._COMMANDS), argv
    # main() reads sys.argv itself and still builds one subcommand.
    monkeypatch.setattr(sys, "argv", ["tametorus", *SNF_2X2])
    built.clear()
    assert main() == 0
    assert built == ["snf"]
    assert json.loads(capsys.readouterr().out)["S"]["entries"] == [[2, 0], [0, 4]]


VALID_REQUESTS = [
    ("coinvariants", "--module", _module(), "--subgroup", "inertia"),
    ("tame-quotient", "--module", _module(wild_inertia=[0])),
    ("component-group", "--module", _module(frobenius=_diag(-1, -1))),
    ("component-group", "--module", json.dumps({"torus": "norm", "e": 6}), "--with-frobenius"),
    ("snf", "--matrix", json.dumps({"rows": 2, "cols": 3, "entries": [[2, 4, 1], [6, 8, 3]]})),
    ("h1", "--group", '{"free_rank":1,"invariant_factors":[2,4]}',
     "--frobenius", json.dumps(_diag(1, -1, 1))),
    ("eval-torsor", "--family", FAMILY, "--point", "1,0"),
    ("verify-diagram", "--family", FAMILY, "--samples", "20"),
    ("constancy", "--family", _family(f=[{"c": 1, "exp": [2]}, {"c": 2, "exp": [0]}])),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-4, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_documents_keep_the_exit_contract(data):
    argv = list(data.draw(st.sampled_from(VALID_REQUESTS)))
    slot = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a.startswith("{")]))
    doc = json.loads(argv[slot])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(JSON_VALUES)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    argv[slot] = json.dumps(doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert (out.getvalue() == "") == (code != 0)
    if code:
        report = json.loads(err.getvalue())
        assert isinstance(report, dict) and "error" in report
    else:
        assert err.getvalue() == ""
