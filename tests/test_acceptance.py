"""Acceptance suite: one test per criterion, exact tolerances, one
printed PASS/FAIL line each (run with `pytest tests/test_acceptance.py -v -s`).

The heavier criteria (the formula-vs-oracle sweep and the diagram
sampling) take a couple of minutes combined; everything else is fast.
"""

import random

from tametorus.errors import InfiniteOrder, NoStabilization
from tametorus.galois import (
    GaloisLatticeModule,
    cyclic_h1,
    endomorphism_order,
    largest_trivial_free_quotient,
)
from tametorus.lattice import (
    FgAbelianGroup,
    IntegerMatrix,
    kernel_basis,
    smith_normal_form,
    solve_matrix,
    vstack,
)
from tametorus.padic import PadicContext, norm_class, norm_class_oracle
from tametorus.torsor import (
    MultivariatePolynomial,
    NormTorsorFamily,
    constancy_check,
    sample_points,
    verify_factorization,
)
from tametorus.torus import component_group, h1_frobenius, norm_torus_spec

from helpers import (
    h1_by_trace_kernel,
    random_finite_action_module,
    random_matrix,
    random_order_bounded_action,
)

SWEEP_CONFIGS = [(3, 2), (5, 2), (7, 2), (13, 2), (7, 3), (13, 3)]
DIAGRAM_CONFIGS = [(3, 2), (5, 2), (7, 3)]


def report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_component_group_order_two():
    cg = component_group(norm_torus_spec(2))
    ok = cg.group == FgAbelianGroup(0, (2,)) and cg.group.order() == 2
    report(1, "component group of the tame quadratic norm torus has order 2", ok)


def test_criterion_2_h1_of_order_two_component_group():
    h1 = cyclic_h1(FgAbelianGroup(0, (2,)), IntegerMatrix.identity(1))
    ok = h1 == FgAbelianGroup(0, (2,)) and h1.order() == 2
    report(2, "H^1(k, Z/2) with trivial Frobenius has order 2", ok)


def test_criterion_3_formula_vs_oracle_sweep():
    disagreements = 0
    checked = 0
    for p, e in SWEEP_CONFIGS:
        ctx = PadicContext(p, 6)
        for alpha in (0, 1, 2):
            search_precision = 2 + alpha // e
            for u in range(1, p):
                a = ctx.integer(p**alpha * u)
                checked += 1
                if norm_class(a, e) != norm_class_oracle(a, e, search_precision):
                    disagreements += 1
    ok = disagreements == 0
    report(3, f"formula agrees with oracle on all {checked} sweep values "
              f"(p,e in {SWEEP_CONFIGS})", ok)


def test_criterion_4_cardinality_bridge():
    ok = True
    for p, e in SWEEP_CONFIGS:
        ctx = PadicContext(p, 6)
        classes = {
            norm_class(ctx.integer(p**alpha * u), e).value
            for alpha in (0, 1)
            for u in range(1, p)
        }
        h1 = h1_frobenius(component_group(norm_torus_spec(e)))
        ok = ok and len(classes) == e == h1.order()
    report(4, "number of distinct norm classes equals e equals |H^1(k, Phi)|", ok)


def _random_polynomial(rng: random.Random, n_vars: int) -> MultivariatePolynomial:
    terms = []
    for _ in range(rng.randrange(2, 7)):
        exps = [0] * n_vars
        budget = rng.randrange(0, 5)  # total degree at most 4
        for _ in range(budget):
            exps[rng.randrange(n_vars)] += 1
        terms.append((rng.randint(-9, 9), tuple(exps)))
    poly = MultivariatePolynomial(n_vars, tuple(terms))
    if not poly.terms:
        return MultivariatePolynomial.constant(n_vars, 1)
    return poly


def test_criterion_5_diagram_commutativity():
    failures = 0
    skip_mismatches = 0
    runs = 0
    rng = random.Random(5_2026)
    for p, e in DIAGRAM_CONFIGS:
        ctx = PadicContext(p, 4)
        for _ in range(20):
            n_vars = rng.randrange(1, 4)
            family = NormTorsorFamily(ctx, e, _random_polynomial(rng, n_vars))
            seed = rng.randrange(10**6)
            rep = verify_factorization(family, 10_000, seed)
            runs += 1
            failures += len(rep.failures)
            # independent recount of the skip set from the same seed
            replay = sample_points(family, 10_000, random.Random(seed))
            vanishing = sum(
                1 for pt in replay
                if family.f.evaluate_mod([x % p for x in pt], p) == 0
            )
            if rep.skipped_nonunit != vanishing or rep.samples_tested != 10_000 - vanishing:
                skip_mismatches += 1
    ok = failures == 0 and skip_mismatches == 0 and runs == 60
    report(5, f"diagram commuted on all {runs} sampled families "
              "(10^4 points each) with exact skip sets", ok)


def test_criterion_6_tame_quotient_construction():
    ident_ok = largest_trivial_free_quotient(
        GaloisLatticeModule(2, (IntegerMatrix.from_rows([[0, 1], [1, 0]]),))
    ).group == FgAbelianGroup(2)
    sign_ok = largest_trivial_free_quotient(
        GaloisLatticeModule(1, (IntegerMatrix.from_rows([[-1]]),),
                            inertia=(0,), wild_inertia=(0,))
    ).group.is_trivial
    swap_ok = largest_trivial_free_quotient(
        GaloisLatticeModule(2, (IntegerMatrix.from_rows([[0, 1], [1, 0]]),),
                            inertia=(0,), wild_inertia=(0,))
    ).group == FgAbelianGroup(1)

    rng = random.Random(6_2026)
    universal_ok = True
    modules = 0
    while modules < 100:
        rank = rng.randrange(1, 5)
        module = random_finite_action_module(rng, rank)
        modules += 1
        quotient = largest_trivial_free_quotient(module)
        proj = quotient.projection
        ident = IntegerMatrix.identity(rank)
        wild = module.subgroup_generators("wild_inertia")
        universal_ok = universal_ok and quotient.group.invariant_factors == ()
        universal_ok = universal_ok and all(
            d == 1 for d in smith_normal_form(proj).diagonal()
        )
        universal_ok = universal_ok and all(
            (proj @ (g - ident)).is_zero() for g in wild
        )
        row_space = kernel_basis(
            vstack([(g - ident).transpose() for g in wild], cols=rank)
        )
        for _ in range(2):
            r = rng.randrange(0, 3)
            hom = IntegerMatrix.from_rows(
                [list(row_space.apply([rng.randint(-3, 3) for _ in range(row_space.cols)]))
                 for _ in range(r)],
                cols=rank,
            )
            factor = solve_matrix(proj.transpose(), hom.transpose())
            universal_ok = universal_ok and factor is not None
            if factor is not None:
                universal_ok = universal_ok and factor.transpose() @ proj == hom
    ok = ident_ok and sign_ok and swap_ok and universal_ok
    report(6, f"tame quotient: three stated examples plus the universal "
              f"property on {modules} random modules", ok)


def test_criterion_7_lattice_core_property_suite():
    rng = random.Random(7_2026)
    snf_ok = True
    for _ in range(1000):
        a = random_matrix(rng, max_dim=6, lo=-20, hi=20)
        r = smith_normal_form(a)
        snf_ok = snf_ok and (r.U @ a @ r.V) == r.S
        snf_ok = snf_ok and r.U.det() in (1, -1) and r.V.det() in (1, -1)
        d = r.diagonal()
        snf_ok = snf_ok and all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            snf_ok = snf_ok and (y == 0 if x == 0 else y % x == 0)

    stabilization_ok = True
    actions = 0
    while actions < 100:
        drawn = random_order_bounded_action(rng)
        if drawn is None:
            continue
        group, frob = drawn
        try:
            endomorphism_order(group, frob, cap=6)
        except InfiniteOrder:
            continue  # draw produced a non-invertible or high-order action
        actions += 1
        try:
            agrees = h1_by_trace_kernel(group, frob) == cyclic_h1(group, frob)
        except NoStabilization:
            agrees = False
        stabilization_ok = stabilization_ok and agrees
    ok = snf_ok and stabilization_ok
    report(7, "SNF contract on 1000 random matrices; stabilization doubling "
              f"never fired on {actions} bounded-order actions", ok)


def test_criterion_8_constancy_probe():
    rng = random.Random(8_2026)
    configs = [(3, 2), (5, 2), (7, 2), (7, 3), (13, 2)]
    constant_ok = True
    instances = 0
    while instances < 50:
        p, e = configs[instances % len(configs)]
        ctx = PadicContext(p, 4)
        n_vars = rng.randrange(1, 3)
        g = _random_polynomial(rng, n_vars)
        h = _random_polynomial(rng, n_vars)
        c = rng.randrange(1, p)
        f = (g**e).scale(c) + h.scale(p)
        family = NormTorsorFamily(ctx, e, f)
        rep = constancy_check(family)
        if not rep.classes:
            continue  # g vanished identically on the special fibre; redraw
        instances += 1
        constant_ok = constant_ok and rep.constant
        expected = norm_class(ctx.integer(c), e).value
        constant_ok = constant_ok and set(rep.classes.values()) == {expected}

    x_family = NormTorsorFamily(
        PadicContext(5, 4), 2, MultivariatePolynomial.variable(1, 0)
    )
    not_constant_ok = not constancy_check(x_family).constant
    ok = constant_ok and not_constant_ok
    report(8, f"constancy holds on {instances} unit-times-power families and "
              "fails for f = x at (5,2)", ok)
