import dataclasses
import itertools
import json
import random
import time

import pytest

import tametorus.torsor
from tametorus.errors import (
    ContextMismatch,
    DegreeIncompatible,
    EnumerationTooLarge,
    PrecisionExhausted,
    SamplingTooLarge,
    SpecialFibreVanishing,
)
from tametorus.padic import NormClass, PadicContext, norm_class
from tametorus.torsor import (
    SAMPLING_WORK_CAP,
    FactorizationReport,
    FailureRecord,
    MultivariatePolynomial,
    NormTorsorFamily,
    constancy_check,
    evaluate,
    reduce_point,
    sample_points,
    sample_work,
    special_eval,
    verify_factorization,
)

from helpers import dense_poly_value, dlog_by_scan, norm_class_by_scan, random_torsor_terms

P = MultivariatePolynomial


def family(p, e, f, precision=4):
    return NormTorsorFamily(PadicContext(p, precision), e, f)


def x_squared_plus_one():
    return P(1, ((1, (2,)), (1, (0,))))


class TestPolynomial:
    def test_canonical_form_combines_and_sorts(self):
        f = P(2, ((1, (0, 0)), (2, (1, 1)), (-2, (1, 1)), (3, (2, 0)), (5, (0, 2))))
        assert f.terms == ((3, (2, 0)), (5, (0, 2)), (1, (0, 0)))

    def test_graded_lex_order(self):
        f = P(2, ((1, (1, 0)), (1, (0, 2)), (1, (1, 1))))
        degrees = [sum(e) for _, e in f.terms]
        assert degrees == sorted(degrees, reverse=True)
        assert f.terms[0][1] == (0, 2) or f.terms[0][1] == (1, 1)
        # within a degree, lexicographically larger exponent first
        assert f.terms[:2] == ((1, (1, 1)), (1, (0, 2)))

    def test_algebra(self):
        x = P.variable(1, 0)
        one = P.constant(1, 1)
        f = (x + one) * (x + one)
        assert f == P(1, ((1, (2,)), (2, (1,)), (1, (0,))))
        assert (x**3).terms == ((1, (3,)),)

    def test_evaluate_mod(self):
        f = x_squared_plus_one()
        assert f.evaluate_mod([1], 625) == 2
        assert f.evaluate_mod([2], 625) == 5
        assert f.evaluate_mod([7], 5) == 0

    def test_json_roundtrip(self):
        f = P(2, ((3, (1, 2)), (-1, (0, 0))))
        assert P.from_json_list(2, f.to_json_list()) == f

    def test_negative_variable_count_is_rejected(self):
        with pytest.raises(ValueError, match="n_vars must be nonnegative"):
            P(-1, ())
        with pytest.raises(ValueError, match="n_vars must be nonnegative"):
            NormTorsorFamily.from_json_dict({"p": 5, "precision": 4, "e": 2, "n_vars": -1, "f": []})
        # No variables is still a family: f is a constant.
        fam = family(5, 2, P.constant(0, 3))
        assert fam.f.evaluate_mod([], 5) == 3
        assert verify_factorization(fam, 5, seed=0).samples_tested == 5


class TestEvaluate:
    def test_constant_one_everywhere_zero(self):
        fam = family(5, 2, P.constant(2, 1))
        rng = random.Random(0)
        for _ in range(20):
            pt = [rng.randrange(fam.context.modulus) for _ in range(2)]
            assert evaluate(fam, pt).value == 0

    def test_nonresidue_point(self):
        fam = family(5, 2, x_squared_plus_one())
        assert evaluate(fam, [1]).value == 1

    def test_uniformizer_point(self):
        # f(2) = 5 and 5 is a norm from Q_5(sqrt 5)
        fam = family(5, 2, x_squared_plus_one())
        assert evaluate(fam, [2]).value == 0

    def test_patch_boundary_is_loud(self):
        fam = family(5, 2, P(1, ((1, (1,)),)))
        with pytest.raises(PrecisionExhausted):
            evaluate(fam, [0])

    def test_degree_must_divide(self):
        with pytest.raises(DegreeIncompatible):
            family(5, 3, x_squared_plus_one())


class TestReduceAndSpecialEval:
    def test_reduce(self):
        fam = family(5, 2, x_squared_plus_one())
        assert reduce_point(fam, [0]) == (0,)
        assert reduce_point(fam, [7]) == (2,)
        fam3 = family(3, 2, P.constant(2, 1))
        assert reduce_point(fam3, [10, -1]) == (1, 2)

    def test_special_constant(self):
        fam = family(5, 2, P.constant(1, 1))
        assert special_eval(fam, [3]).value == 0

    def test_special_nonresidue(self):
        fam = family(5, 2, x_squared_plus_one())
        assert special_eval(fam, [1]).value == 1

    def test_special_cubic(self):
        fam = family(7, 3, P(1, ((1, (1,)),)))
        assert special_eval(fam, [2]).value == 2

    def test_vanishing(self):
        fam = family(5, 2, x_squared_plus_one())
        with pytest.raises(SpecialFibreVanishing):
            special_eval(fam, [2])


class TestVerifyFactorization:
    def test_constant_unit_no_skips(self):
        fam = family(5, 2, P.constant(2, 3))
        report = verify_factorization(fam, 300, seed=1)
        assert report.commuted
        assert report.skipped_nonunit == 0
        assert report.samples_tested == 300

    def test_x_squared_plus_one_skip_set(self):
        fam = family(5, 2, x_squared_plus_one())
        report = verify_factorization(fam, 2000, seed=42)
        assert report.failures == ()
        # regenerate the primary sample: skips are exactly residues 2 and 3
        rng = random.Random(42)
        points = sample_points(fam, 2000, rng)
        vanishing = [pt for pt in points if pt[0] % 5 in (2, 3)]
        assert report.skipped_nonunit == len(vanishing)
        assert report.samples_tested == 2000 - len(vanishing)

    def test_two_variable_cubic_family(self):
        fam = family(7, 3, P(2, ((1, (1, 1)), (1, (0, 0)))))
        report = verify_factorization(fam, 1500, seed=9)
        assert report.failures == ()

    def test_deterministic(self):
        fam = family(5, 2, x_squared_plus_one())
        a = verify_factorization(fam, 500, seed=5)
        b = verify_factorization(fam, 500, seed=5)
        assert a == b

    def test_multiplicativity_in_f(self):
        rng = random.Random(83)
        ctx = PadicContext(5, 4)
        f1 = P(1, ((1, (2,)), (1, (0,))))
        f2 = P(1, ((2, (1,)), (1, (0,))))
        fam1 = NormTorsorFamily(ctx, 2, f1)
        fam2 = NormTorsorFamily(ctx, 2, f2)
        fam12 = NormTorsorFamily(ctx, 2, f1 * f2)
        checked = 0
        for _ in range(60):
            pt = [rng.randrange(ctx.modulus)]
            try:
                lhs = evaluate(fam12, pt)
                rhs = evaluate(fam1, pt) + evaluate(fam2, pt)
            except PrecisionExhausted:
                continue
            checked += 1
            assert lhs == rhs
        assert checked > 20

    def test_reduction_invariance(self):
        # same residue mod p, same class
        fam = family(7, 3, P(1, ((1, (2,)), (3, (0,)))))
        rng = random.Random(97)
        mod = fam.context.modulus
        for _ in range(50):
            base = rng.randrange(mod)
            if fam.f.evaluate_mod([base % 7], 7) == 0:
                continue
            other = (base + 7 * rng.randrange(mod // 7)) % mod
            assert evaluate(fam, [base]) == evaluate(fam, [other])


class TestConstancy:
    def test_unit_constant(self):
        fam = family(5, 2, P.constant(1, 3))
        report = constancy_check(fam)
        assert report.constant
        assert set(report.classes.values()) == {1}
        assert len(report.classes) == 5

    def test_x_is_not_constant(self):
        fam = family(5, 2, P(1, ((1, (1,)),)))
        report = constancy_check(fam)
        assert not report.constant
        assert report.classes == {(1,): 0, (2,): 1, (3,): 1, (4,): 0}

    def test_eth_power_shape_is_constant(self):
        # f = c*g^e + p*h reduces to c*gbar^e on the special fibre
        g = P(1, ((1, (1,)), (2, (0,))))
        h = P(1, ((3, (2,)), (1, (0,))))
        c = 2
        f = (g * g).scale(c) + h.scale(5)
        fam = family(5, 2, f)
        report = constancy_check(fam)
        assert report.constant
        assert set(report.classes.values()) == {1}  # 2 is a non-residue mod 5

    def test_enumeration_guard(self):
        fam = family(101, 2, P.constant(4, 1), precision=2)
        with pytest.raises(EnumerationTooLarge):
            constancy_check(fam)

    def test_every_unit_class_at_e_equal_to_p_minus_one(self):
        # fbar = x takes every value of F_p* once, so every class occurs
        p = 10007
        start = time.perf_counter()
        report = constancy_check(family(p, p - 1, P.variable(1, 0), precision=2))
        assert time.perf_counter() - start < 5.0
        assert not report.constant and len(report.classes) == p - 1
        for x in random.Random(89).sample(range(1, p), 50):
            assert report.classes[(x,)] == dlog_by_scan(x, p)

    def test_dlog_work_guard(self):
        # p - 1 = 2 * 499979: one point per unit, each a discrete log of
        # up to 1439 steps
        fam = family(999959, 999958, P.variable(1, 0), precision=2)
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLarge, match="p = 999959, e = 999958, n_vars = 1"):
            constancy_check(fam)
        assert time.perf_counter() - start < 1.0


def test_family_json_roundtrip():
    fam = family(5, 2, x_squared_plus_one(), precision=6)
    d = fam.to_json_dict()
    assert d == {
        "p": 5,
        "precision": 6,
        "e": 2,
        "n_vars": 1,
        "f": [{"c": 1, "exp": [2]}, {"c": 1, "exp": [0]}],
    }
    assert NormTorsorFamily.from_json_dict(d) == fam


class TestSamplingWorkBound:
    def test_cost_grows_with_precision_terms_n_vars_and_e(self):
        small = family(5, 2, x_squared_plus_one())
        assert sample_work(family(5, 2, x_squared_plus_one(), precision=1000)) > sample_work(small)
        assert sample_work(family(5, 2, x_squared_plus_one() * x_squared_plus_one())) > \
            sample_work(small)
        assert sample_work(family(5, 2, P.constant(3, 1))) > sample_work(family(5, 2, P.constant(1, 1)))
        assert sample_work(family(5, 4, x_squared_plus_one())) > sample_work(small)

    def test_past_the_bound_raises_before_sampling(self):
        fam = family(5, 2, P(2, ((1, (1, 3)), (1, (0, 0)))), precision=10_000)
        count = SAMPLING_WORK_CAP // sample_work(fam) + 1
        start = time.perf_counter()
        with pytest.raises(SamplingTooLarge, match="precision = 10000"):
            verify_factorization(fam, count, seed=0)
        assert time.perf_counter() - start < 1.0

    def test_accepts_the_sizes_in_use(self):
        # the sample cap at precision 4, and 10^4 samples of a degree-4
        # polynomial in three variables at precision 8
        assert 10**6 * sample_work(family(101, 10, P(3, ((1, (1, 1, 1)), (2, (0, 0, 0)))))) \
            <= SAMPLING_WORK_CAP
        dense = P(3, tuple((1, e) for e in itertools.product(range(5), repeat=3) if sum(e) <= 4))
        assert 10**4 * sample_work(family(7, 3, dense, precision=8)) <= SAMPLING_WORK_CAP


class TestPublicRoutesValidate:
    def test_coordinate_count(self):
        fam = family(5, 2, x_squared_plus_one())
        with pytest.raises(ValueError):
            evaluate(fam, [1, 2])
        with pytest.raises(ValueError):
            special_eval(fam, [1, 2])

    def test_unreduced_and_negative_coordinates(self):
        fam = family(5, 2, x_squared_plus_one())
        assert evaluate(fam, [1 + 625 * 7]) == evaluate(fam, [1]) == evaluate(fam, [-624])
        assert special_eval(fam, [-4]) == special_eval(fam, [1])

    def test_padic_coordinates(self):
        fam = family(7, 3, P(2, ((1, (1, 1)), (1, (0, 0)))))
        ctx = fam.context
        assert evaluate(fam, [ctx.integer(3), 5]) == evaluate(fam, [3, 5])
        assert reduce_point(fam, [ctx.integer(10), 5]) == reduce_point(fam, [10, 5]) == (3, 5)
        with pytest.raises(ContextMismatch):
            evaluate(fam, [PadicContext(7, 5).integer(3), 5])
        with pytest.raises(ContextMismatch):
            reduce_point(fam, [PadicContext(7, 5).integer(3), 5])


PRIMES_TO_101 = [q for q in range(3, 102) if all(q % d for d in range(2, q))]


def reference_families(count=300, seed=7_2026):
    """Seeded (terms, family) pairs: p <= 101, any e | p - 1, 1-3 variables,
    precision 2-5, coefficients in [-12, 12] with zeros and repeats."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice(PRIMES_TO_101)
        e = rng.choice([d for d in range(1, p) if (p - 1) % d == 0])
        n_vars = rng.randrange(1, 4)
        terms = random_torsor_terms(rng, n_vars)
        out.append((terms, family(p, e, P(n_vars, tuple(terms)), precision=rng.randrange(2, 6))))
    return out


def reference_points(rng, terms, fam):
    """Random points, out-of-range and negative lifts, the origin, and lifts
    of special-fibre zeros (so that p divides f(P))."""
    p, mod, n = fam.context.p, fam.context.modulus, fam.n_vars
    points = [[rng.randrange(mod) for _ in range(n)] for _ in range(6)]
    points += [[rng.randrange(-3 * mod, 3 * mod) for _ in range(n)] for _ in range(2)]
    points += [[0] * n, [mod] * n]
    zeros = [pt for pt in ([rng.randrange(p) for _ in range(n)] for _ in range(3 * p))
             if dense_poly_value(terms, pt) % p == 0]
    for pt in zeros[:4]:
        points.append([x + p * rng.randrange(mod) for x in pt])
    return points


class TestAgainstReference:
    """The compiled per-family path against a dense evaluator and a scanned
    discrete log on 300 seeded families."""

    def test_point_routes(self):
        rng = random.Random(11)
        seen = {"exhausted": 0, "vanishing": 0, "p | f(P), e odd": 0, "p | f(P), e even": 0,
                "sign twisted": 0}
        for terms, fam in reference_families():
            p, N, e = fam.context.p, fam.context.precision, fam.e
            for pt in reference_points(rng, terms, fam):
                value = dense_poly_value(terms, pt)
                for m in (p, fam.context.modulus, rng.randrange(1, 1000)):
                    assert fam.f.evaluate_mod(pt, m) == value % m
                expected = norm_class_by_scan(value, p, N, e)
                if expected is None:
                    seen["exhausted"] += 1
                    with pytest.raises(PrecisionExhausted):
                        evaluate(fam, pt)
                else:
                    assert evaluate(fam, pt) == NormClass(e, expected)
                    if value % p == 0:
                        v = next(k for k in range(N) if value % p ** (k + 1))
                        seen["p | f(P), e even" if e % 2 == 0 else "p | f(P), e odd"] += 1
                        seen["sign twisted"] += v * (e - 1) % 2
                if value % p == 0:
                    seen["vanishing"] += 1
                    with pytest.raises(SpecialFibreVanishing):
                        special_eval(fam, pt)
                else:
                    assert special_eval(fam, pt) == NormClass(e, dlog_by_scan(value, p) % e)
        assert min(seen.values()) > 20, seen

    def test_verify_factorization_replay(self):
        rng = random.Random(12)
        for terms, fam in reference_families():
            p, N, e = fam.context.p, fam.context.precision, fam.e
            mod, n = fam.context.modulus, fam.n_vars
            count, seed = rng.randrange(1, 40), rng.randrange(10**6)
            replay = random.Random(seed)
            primaries = [tuple(replay.randrange(mod) for _ in range(n)) for _ in range(count)]
            tested = skipped = 0
            failures = []
            for pt in primaries:
                fbar = dense_poly_value(terms, pt) % p
                if fbar == 0:
                    skipped += 1
                    continue
                tested += 1
                special = dlog_by_scan(fbar, p) % e
                partner = tuple((x + p * replay.randrange(mod // p)) % mod for x in pt)
                for q in (pt, partner):
                    generic = norm_class_by_scan(dense_poly_value(terms, q), p, N, e)
                    if generic != special:
                        failures.append(FailureRecord(q, generic, special))
            expected = FactorizationReport(tested, skipped, tuple(failures), seed)
            assert verify_factorization(fam, count, seed) == expected
            assert failures == []

    def test_constancy_classes(self):
        checked = 0
        for terms, fam in reference_families():
            p, n = fam.context.p, fam.n_vars
            if p ** n > 2500:
                continue
            expected = {}
            for pt in itertools.product(range(p), repeat=n):
                fbar = dense_poly_value(terms, pt) % p
                if fbar:
                    expected[pt] = dlog_by_scan(fbar, p) % fam.e
            report = constancy_check(fam)
            assert report.classes == expected
            assert report.constant == (len(set(expected.values())) <= 1)
            checked += 1
        assert checked > 100

    def test_degree_checked_before_precision(self):
        for p in PRIMES_TO_101[:8]:
            zero = PadicContext(p, 3).integer(p ** 3)
            for e in range(1, p + 2):
                if (p - 1) % e:
                    with pytest.raises(DegreeIncompatible):
                        norm_class(zero, e)
                else:
                    with pytest.raises(PrecisionExhausted):
                        norm_class(zero, e)


def test_special_class_once_per_value(monkeypatch):
    # torsor's own eth_power_class binding serves only the special route
    calls = []
    original = tametorus.torsor.eth_power_class
    monkeypatch.setattr(tametorus.torsor, "eth_power_class",
                        lambda *args: calls.append(args) or original(*args))
    fam = family(13, 4, P(2, ((1, (2, 0)), (3, (0, 1)), (1, (0, 0)))))
    verify_factorization(fam, 500, seed=3)
    points = sample_points(fam, 500, random.Random(3))
    values = {fam.f.evaluate_mod(pt, 13) for pt in points} - {0}
    assert len(calls) == len(values) <= 12
    calls.clear()
    report = constancy_check(fam)
    assert len(calls) == len({fam.f.evaluate_mod(pt, 13) for pt in report.classes}) <= 12


def test_failures_record_each_point_and_then_its_partner(monkeypatch):
    # Shifting the special route's class by one makes both checks of every
    # tested point fail: the primary point is recorded, then its partner.
    original = tametorus.torsor.eth_power_class
    monkeypatch.setattr(tametorus.torsor, "eth_power_class",
                        lambda u, e: original(u, e) + NormClass(e, 1))
    fam = family(7, 3, P.constant(2, 2))
    generic = evaluate(fam, [0, 0]).value
    report = verify_factorization(fam, 12, seed=4)
    assert not report.commuted
    assert (report.samples_tested, report.skipped_nonunit) == (12, 0)

    replay = random.Random(4)
    primaries = sample_points(fam, 12, replay)
    mod = fam.context.modulus
    expected = []
    for pt in primaries:
        partner = tuple((x + 7 * replay.randrange(mod // 7)) % mod for x in pt)
        expected += [FailureRecord(pt, generic, (generic + 1) % 3),
                     FailureRecord(partner, generic, (generic + 1) % 3)]
    assert report.failures == tuple(expected)

    doc = report.to_json_dict()
    assert doc["failures"] == [
        {"point": list(r.point), "class_generic": generic, "class_special": (generic + 1) % 3}
        for r in expected]
    again = verify_factorization(fam, 12, seed=4)
    assert again == report
    assert json.dumps(again.to_json_dict()) == json.dumps(doc)


def test_compiled_forms_leave_eq_hash_and_json_alone():
    fam, twin = family(5, 2, x_squared_plus_one()), family(5, 2, x_squared_plus_one())
    evaluate(fam, [1])
    special_eval(fam, [1])
    assert fam == twin and hash(fam) == hash(twin)
    assert fam.to_json_dict() == twin.to_json_dict()
    assert [f.name for f in dataclasses.fields(fam)] == ["context", "e", "f"]
