import json

import pytest

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
