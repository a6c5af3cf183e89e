"""Package-wide contracts: module boundaries and exact integer inputs."""

import ast
import doctest
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import tametorus
from tametorus.galois import GaloisLatticeModule, endomorphism_order
from tametorus.lattice import FgAbelianGroup, IntegerMatrix
from tametorus.padic import NormClass, PadicContext, PadicInt, dlog_steps
from tametorus.torsor import (
    MultivariatePolynomial,
    NormTorsorFamily,
    evaluate,
    reduce_point,
    special_eval,
    verify_factorization,
)

PACKAGE = Path(tametorus.__file__).parent


def private_sibling_names(path: Path) -> list[str]:
    """Underscore names that a module takes from a sibling module, either by
    `from .sibling import _name` or as `sibling._name` after `from . import sibling`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [name for path in modules for name in private_sibling_names(path)] == []


def test_benchmark_traced_names_resolve():
    # The benchmark traces these by name; a rename must fail here, not only
    # in the benchmark's own selftest.
    spec = importlib.util.spec_from_file_location(
        "bench_spans", PACKAGE.parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr in spans.TRACED.values()
               if not hasattr(importlib.import_module(f"tametorus.{module}"), attr)]
    assert spans.TRACED and missing == []


def _family():
    f = MultivariatePolynomial(1, ((1, (1,)),))
    return NormTorsorFamily(PadicContext(5, 4), 2, f)


def _x_plus_2():
    # f = x + 2 in the variables x, y over p = 7: y does not occur in f.
    f = MultivariatePolynomial(2, ((1, (1, 0)), (2, (0, 0))))
    return NormTorsorFamily(PadicContext(7, 4), 3, f)


def test_docstring_examples_pass():
    # The examples `pytest --doctest-modules src/tametorus` runs.
    modules = [tametorus] + [importlib.import_module(f"tametorus.{path.stem}")
                             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    results = [doctest.testmod(module, verbose=False) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 5


_NEG1 = IntegerMatrix.from_rows([[-1]])
_SWAP = IntegerMatrix.from_rows([[0, 1], [1, 0]])

NON_INTEGERS = {
    "from-rows-float": lambda: IntegerMatrix.from_rows([[2.7]]),
    "from-rows-fraction": lambda: IntegerMatrix.from_rows([[Fraction(5, 2)]]),
    "from-rows-str": lambda: IntegerMatrix.from_rows([["3"]]),
    "from-cols-float": lambda: IntegerMatrix.from_cols([[1, 2.5]]),
    "group-factor-float": lambda: FgAbelianGroup(0, (2.9,)),
    "group-free-rank-float": lambda: FgAbelianGroup(1.5),
    "cyclic-orders-float": lambda: FgAbelianGroup.from_cyclic_orders([2.5]),
    "polynomial-coefficient-float": lambda: MultivariatePolynomial(1, ((1.5, (1,)),)),
    "polynomial-exponent-float": lambda: MultivariatePolynomial(1, ((1, (1.0,)),)),
    "evaluate-point-float": lambda: evaluate(_family(), [2.5]),
    "reduce-point-fraction": lambda: reduce_point(_family(), [Fraction(1, 2)]),
    "evaluate-mod-absent-variable-float": lambda: _x_plus_2().f.evaluate_mod([2, 1.5], 7),
    "evaluate-mod-linear-variable-float": lambda: _x_plus_2().f.evaluate_mod([1.5, 2], 7),
    "evaluate-mod-modulus-float": lambda: _x_plus_2().f.evaluate_mod([2, 1], 7.0),
    "special-eval-absent-variable-float": lambda: special_eval(_x_plus_2(), [2, 1.5]),
    "special-eval-linear-variable-float": lambda: special_eval(_x_plus_2(), [1.5, 2]),
    "special-eval-point-fraction": lambda: special_eval(_x_plus_2(), [Fraction(3), 0]),
    "verify-seed-float": lambda: verify_factorization(_x_plus_2(), 10, 1.5),
    "verify-seed-str": lambda: verify_factorization(_x_plus_2(), 10, "abc"),
    "verify-sample-count-float": lambda: verify_factorization(_x_plus_2(), 10.0, 1),
    "context-integer-float": lambda: PadicContext(5, 4).integer(2.5),
    "context-precision-float": lambda: PadicContext(5, 2.5),
    "context-prime-float": lambda: PadicContext(5.0, 4),
    "padic-int-fraction": lambda: PadicInt(PadicContext(5, 4), Fraction(7, 2)),
    "order-cap-float": lambda: endomorphism_order(FgAbelianGroup.free(1), _NEG1, cap=2.5),
    "module-rank-float": lambda: GaloisLatticeModule(2.0, (_SWAP,)),
    "module-inertia-float": lambda: GaloisLatticeModule(2, (_SWAP,), inertia=(0.0,)),
    "module-wild-float": lambda: GaloisLatticeModule(2, (_SWAP,), (0,), wild_inertia=(0.0,)),
    "torsor-degree-float": lambda: NormTorsorFamily(
        PadicContext(7, 4), 3.0, MultivariatePolynomial(1, ((1, (1,)),))),
    "dlog-steps-degree-float": lambda: dlog_steps(7, 3.0),
    "polynomial-n-vars-float": lambda: MultivariatePolynomial(1.0, ((1, (1,)),)),
    "matrix-scale-float": lambda: IntegerMatrix.identity(2).scale(1.5),
    "matrix-rows-float": lambda: IntegerMatrix(2.0, 1, (1, 2)),
    "matrix-cols-float": lambda: IntegerMatrix(1, 2.0, (1, 2)),
    "norm-class-degree-float": lambda: NormClass(3.0, 1),
    "norm-class-value-float": lambda: NormClass(3, 1.0),
}


@pytest.mark.parametrize("build", list(NON_INTEGERS.values()), ids=list(NON_INTEGERS))
def test_builders_reject_non_integers(build):
    with pytest.raises(TypeError):
        build()
