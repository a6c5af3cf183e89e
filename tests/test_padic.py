import copy
import dataclasses
import pickle
import random
import sys
import time

import pytest

import tametorus.padic
from tametorus.errors import (
    ContextMismatch,
    DegreeIncompatible,
    DomainError,
    NoRepresentedNorm,
    NotAUnit,
    PrecisionExhausted,
    SearchSpaceTooLarge,
)
from tametorus.padic import (
    PRECISION_CAP,
    PRIME_CAP,
    NormClass,
    PadicContext,
    PadicInt,
    dlog_steps,
    eth_power_class,
    field_norm,
    norm_class,
    norm_class_oracle,
    power_exceeds,
    smallest_primitive_root,
    unit_part,
)

from helpers import divisors, dlog_by_scan, is_prime_mr, norm_class_by_scan


def clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("tametorus"):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class TestContext:
    def test_rejects_two(self):
        with pytest.raises(ValueError, match="wildly"):
            PadicContext(2, 4)

    def test_rejects_composite_and_low_precision(self):
        with pytest.raises(ValueError):
            PadicContext(9, 4)
        with pytest.raises(ValueError):
            PadicContext(5, 1)

    def test_precision_cap(self):
        assert PadicContext(5, PRECISION_CAP).integer(-1).residue == 5 ** PRECISION_CAP - 1
        with pytest.raises(ValueError):
            PadicContext(5, PRECISION_CAP + 1)

    def test_prime_cap(self):
        largest = 2**32 - 5  # the largest prime below 2^32
        assert is_prime_mr(largest) and PadicContext(largest, 2).p == largest
        start = time.perf_counter()
        for p in (2**32 + 15, 1_000_000_000_039, 10**100 + 267):
            with pytest.raises(ValueError, match="below 2\\^32"):
                PadicContext(p, 2)
        assert time.perf_counter() - start < 1.0
        assert PRIME_CAP == 2**32

    def test_accepts_exactly_the_odd_primes(self):
        for n in [*range(-2, 3000), *range(PRIME_CAP - 40, PRIME_CAP)]:
            if n != 2 and is_prime_mr(n):
                assert PadicContext(n, 2).p == n
            else:
                with pytest.raises(ValueError):
                    PadicContext(n, 2)

    def test_each_number_is_factored_once(self):
        clear_package_caches()
        p = 1000003
        norm_class(PadicContext(p, 2).integer(12345), p - 1)
        assert tametorus.padic._prime_powers.cache_info().misses == 2  # p and p - 1
        norm_class(PadicContext(p, 3).integer(54321), p - 1)
        assert tametorus.padic._prime_powers.cache_info().misses == 2

    def test_primitive_roots(self):
        assert smallest_primitive_root(3) == 2
        assert smallest_primitive_root(5) == 2
        assert smallest_primitive_root(7) == 3
        assert smallest_primitive_root(13) == 2
        assert smallest_primitive_root(41) == 6


class TestArithmetic:
    def test_add_with_carry_into_valuation(self):
        ctx = PadicContext(5, 4)
        s = ctx.integer(2) + ctx.integer(3)
        assert s.residue == 5 and s.known_valuation == 1

    def test_zero_times_anything_is_exhausted(self):
        ctx = PadicContext(5, 4)
        z = ctx.integer(0) * ctx.integer(17)
        assert z.is_exhausted
        assert z.known_valuation == ctx.precision

    def test_mul_exact_mod_p_cubed(self):
        ctx = PadicContext(5, 3)
        assert (ctx.integer(24) * ctx.integer(24)).residue == 76

    def test_sub_and_negatives_reduce(self):
        ctx = PadicContext(7, 3)
        assert (ctx.integer(3) - ctx.integer(5)).residue == 343 - 2

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            PadicContext(5, 4).integer(1) + PadicContext(7, 4).integer(1)
        with pytest.raises(ContextMismatch):
            PadicContext(5, 4).integer(1) * PadicContext(5, 5).integer(1)


class TestUnitPart:
    def test_two_digits(self):
        v, u = unit_part(PadicContext(5, 4).integer(50))
        assert (v, u.residue) == (2, 2)

    def test_unit_input(self):
        a = PadicContext(5, 4).integer(7)
        v, u = unit_part(a)
        assert v == 0 and u == a

    def test_27_times_2(self):
        v, u = unit_part(PadicContext(3, 5).integer(54))
        assert (v, u.residue) == (3, 2)

    def test_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            unit_part(PadicContext(5, 4).integer(625))

    def test_valuation_split_on_every_residue(self):
        for p in (3, 5, 7):
            ctx = PadicContext(p, 4)
            zero = ctx.integer(0)
            assert zero.known_valuation == 4
            for split in (unit_part, lambda a: norm_class(a, 2)):
                with pytest.raises(PrecisionExhausted):
                    split(zero)
            for r in range(1, p**4):
                v = max(k for k in range(4) if r % p**k == 0)
                u = r // p**v
                a = ctx.integer(r)
                assert a.known_valuation == v
                assert unit_part(a) == (v, ctx.integer(u))
                for e in divisors(p - 1):
                    twisted = -u if v * (e - 1) % 2 else u
                    assert norm_class(a, e) == eth_power_class(ctx.integer(twisted), e)


class TestEthPowerClass:
    def test_one_is_always_a_power(self):
        for p, e in [(5, 2), (7, 3), (13, 4)]:
            assert eth_power_class(PadicContext(p, 4).integer(1), e).value == 0

    def test_nonresidue_mod_five(self):
        assert eth_power_class(PadicContext(5, 4).integer(2), 2).value == 1

    def test_cube_class_mod_seven(self):
        # primitive root 3: 3^2 = 2, so dlog(2) = 2; cubes mod 7 are {1, 6}
        assert eth_power_class(PadicContext(7, 4).integer(2), 3).value == 2
        cubes = {pow(x, 3, 7) for x in range(1, 7)}
        assert 2 not in cubes

    def test_dlog_matches_brute_force(self):
        # every odd p < 400, every e | p - 1 and every unit
        for p in range(3, 400, 2):
            if not is_prime_mr(p):
                continue
            ctx = PadicContext(p, 2)
            logs = [None] + [dlog_by_scan(u, p) for u in range(1, p)]
            for e in divisors(p - 1):
                for u in range(1, p):
                    assert eth_power_class(ctx.integer(u), e).value == logs[u] % e, (p, e, u)

    def test_large_primes_solve_the_power_residue_equation(self):
        rng = random.Random(83)
        for _ in range(8):
            p = rng.randrange(10**4, PRIME_CAP)
            while not is_prime_mr(p):
                p = rng.randrange(10**4, PRIME_CAP)
            ctx = PadicContext(p, 2)
            g = ctx.primitive_root
            composite = [d for d in divisors(p - 1) if 1 < d < (p - 1) // 2 and not is_prime_mr(d)]
            for e in (p - 1, (p - 1) // 2, rng.choice(composite)):
                tametorus.padic._dlog_plan.cache_clear()
                tametorus.padic._prime_powers.cache_clear()
                for _ in range(4):
                    a = rng.randrange(1, p)
                    r = eth_power_class(ctx.integer(a), e).value
                    assert 0 <= r < e
                    assert pow(a * pow(g, -r, p), (p - 1) // e, p) == 1, (p, e, a, r)

    def test_class_near_half_of_a_safe_prime_near_two_to_31_is_fast(self):
        # p - 1 = 2q with q prime: a scan would take about 10^9 steps here
        p = 2147483579
        e = p - 1
        tametorus.padic._dlog_plan.cache_clear()
        tametorus.padic._prime_powers.cache_clear()
        ctx = PadicContext(p, 3)
        k = e // 2 + 12345
        start = time.perf_counter()
        value = norm_class(ctx.integer(pow(ctx.primitive_root, k, p) + p * 7), e).value
        assert time.perf_counter() - start < 1.0
        assert value == k

    def test_dlog_steps_counts_the_plan(self):
        assert dlog_steps(5, 2) == 2 + 1 + 1  # one whole table of 2 entries
        assert dlog_steps(131, 65) == (3 + 2 + 4) + (4 + 4 + 3)  # parts of order 5 and 13
        assert dlog_steps(999959, 999958) == (2 + 1 + 19) + (708 + 707 + 2)
        with pytest.raises(DegreeIncompatible):
            dlog_steps(7, 4)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            eth_power_class(PadicContext(5, 4).integer(10), 2)

    def test_degree_incompatible(self):
        with pytest.raises(DegreeIncompatible):
            eth_power_class(PadicContext(5, 4).integer(2), 3)


class TestNormClass:
    def test_unit_square_is_a_norm(self):
        ctx = PadicContext(5, 6)
        for u in (1, 4, 6, 9):
            assert norm_class(ctx.integer(u), 2).value == 0

    def test_p_is_a_norm_for_p_five(self):
        # N(sqrt(5)) = -5 and -1 = 2^2 mod 5
        assert norm_class(PadicContext(5, 4).integer(5), 2).value == 0

    def test_two_is_not_a_norm(self):
        assert norm_class(PadicContext(5, 4).integer(2), 2).value == 1

    def test_homomorphism(self):
        rng = random.Random(61)
        for p, e in [(5, 2), (7, 3), (13, 2), (13, 3)]:
            ctx = PadicContext(p, 6)
            for _ in range(40):
                a = ctx.integer(rng.randrange(1, ctx.modulus))
                b = ctx.integer(rng.randrange(1, ctx.modulus))
                prod = a * b
                if a.is_exhausted or b.is_exhausted or prod.is_exhausted:
                    continue
                assert norm_class(prod, e) == norm_class(a, e) + norm_class(b, e)

    def test_norms_have_class_zero(self):
        rng = random.Random(67)
        for p, e in [(5, 2), (7, 3), (13, 3)]:
            ctx = PadicContext(p, 6)
            for _ in range(40):
                coeffs = tuple(rng.randrange(-p**2, p**2) for _ in range(e))
                n = field_norm(p, e, coeffs)
                value = ctx.integer(n)
                if value.is_exhausted:
                    continue
                assert norm_class(value, e).value == 0

    def test_tame_stability(self):
        # the class of p^v * u only depends on a mod p^(v+1)
        rng = random.Random(71)
        for p, e in [(5, 2), (7, 3)]:
            ctx = PadicContext(p, 6)
            for _ in range(40):
                a = ctx.integer(rng.randrange(1, ctx.modulus))
                if a.is_exhausted:
                    continue
                v = a.known_valuation
                if v + 1 >= ctx.precision:
                    continue
                bump = ctx.integer(p ** (v + 1) * rng.randrange(ctx.modulus))
                assert norm_class(a + bump, e) == norm_class(a, e)

    def test_exhausted_input(self):
        with pytest.raises(PrecisionExhausted):
            norm_class(PadicContext(5, 4).integer(0), 2)

    def test_matches_the_definition_on_units_and_non_units(self):
        # v = 0 hands a itself to eth_power_class; v > 0 builds the twisted unit.
        rng = random.Random(79)
        seen = set()
        for p in (3, 5, 7, 11, 13):
            ctx = PadicContext(p, 4)
            for e in divisors(p - 1):
                for _ in range(40):
                    r = rng.randrange(1, ctx.modulus) * p ** rng.choice((0, 0, 1, 2, 3))
                    expected = norm_class_by_scan(r, p, 4, e)
                    if expected is None:
                        continue
                    a = ctx.integer(r)
                    assert norm_class(a, e) == NormClass(e, expected), (p, e, r)
                    seen.add((a.known_valuation > 0, e % 2))
        assert seen == {(False, 0), (False, 1), (True, 0), (True, 1)}


class TestOracle:
    def test_one_is_a_norm(self):
        assert norm_class_oracle(PadicContext(5, 6).integer(1), 2, 2).value == 0

    def test_two_needs_one_twist(self):
        assert norm_class_oracle(PadicContext(5, 6).integer(2), 2, 3).value == 1

    def test_seven_is_a_norm_in_degree_three(self):
        assert norm_class_oracle(PadicContext(7, 6).integer(7), 3, 2).value == 0

    def test_matches_formula_on_units_and_uniformizers(self):
        for p, e in [(3, 2), (5, 2), (7, 3)]:
            ctx = PadicContext(p, 6)
            for alpha in (0, 1):
                for u in range(1, p):
                    a = ctx.integer(p**alpha * u)
                    assert norm_class_oracle(a, e, 2) == norm_class(a, e)

    def test_search_precision_doubling_keeps_verdicts(self):
        for p, e in [(3, 2), (5, 2)]:
            ctx = PadicContext(p, 6)
            for alpha in (0, 1):
                for u in range(1, p):
                    a = ctx.integer(p**alpha * u)
                    assert norm_class_oracle(a, e, 2) == norm_class_oracle(a, e, 3)

    def test_search_space_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            norm_class_oracle(PadicContext(13, 12).integer(5), 3, 3)

    def test_precision_must_cover_valuation_plus_two(self):
        with pytest.raises(PrecisionExhausted):
            norm_class_oracle(PadicContext(5, 4).integer(125), 2, 2)

    def test_no_represented_norm_is_a_domain_error(self):
        assert issubclass(NoRepresentedNorm, DomainError)
        with pytest.raises(NoRepresentedNorm):
            norm_class_oracle(PadicContext(5, 6).integer(13), 2, 1)


def test_power_exceeds():
    cap = 10**6
    for base in (2, 3, 10, 1000003):
        for exponent in range(0, 45):
            assert power_exceeds(base, exponent, cap) == (base**exponent > cap)
    assert power_exceeds(3, 10**18, cap)


class TestNormClassValue:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormClass(2, 2)
        with pytest.raises(ValueError):
            NormClass(0, 0)

    def test_addition(self):
        assert NormClass(3, 2) + NormClass(3, 2) == NormClass(3, 1)
        with pytest.raises(ValueError):
            NormClass(2, 1) + NormClass(3, 1)

    def test_json(self):
        assert NormClass(3, 2).to_json_dict() == {"value": 2, "e": 3}


class TestValueSemantics:
    # PadicInt and NormClass validate in their own __init__; equality,
    # hashing, repr, replace, copying and immutability stay those of a
    # frozen dataclass.
    def check_value(self, value, twin, other, text, names, changes, changed):
        assert value == twin and hash(value) == hash(twin) and {twin: 1}[value] == 1
        assert value != other
        assert repr(value) == text
        assert [f.name for f in dataclasses.fields(value)] == names
        assert dataclasses.replace(value, **changes) == changed
        assert dataclasses.replace(value) == value
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value and hash(copied) == hash(value) and repr(copied) == text
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        # A frozen slotted dataclass's generated __setattr__ raises TypeError
        # for a name that is not a field (CPython 3.11-3.13), not
        # FrozenInstanceError; either way nothing is stored.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.extra = 1
        assert value == twin and not hasattr(value, "extra")

    def test_padic_int(self):
        ctx = PadicContext(5, 4)
        self.check_value(PadicInt(ctx, -3), PadicInt(PadicContext(5, 4), 622),
                         PadicInt(PadicContext(5, 5), 622), "PadicInt(622 mod 5^4)",
                         ["context", "residue"], {"residue": 630}, ctx.integer(5))
        assert PadicInt(residue=7, context=ctx) == ctx.integer(7)
        with pytest.raises(TypeError):
            PadicInt(ctx, 2.5)
        with pytest.raises(TypeError):
            PadicInt(ctx, "3")

    def test_norm_class(self):
        self.check_value(NormClass(3, 2), NormClass(e=3, value=2), NormClass(3, 1),
                         "NormClass(e=3, value=2)", ["e", "value"], {"value": 0}, NormClass(3, 0))
        assert NormClass(3, 2) != NormClass(4, 2)
        for e, value in ((0, 0), (-1, 0), (3, 3), (3, -1)):
            with pytest.raises(ValueError):
                NormClass(e, value)
        for e, value in ((3.0, 1), (3, 1.0), ("3", 1)):
            with pytest.raises(TypeError):
                NormClass(e, value)
        with pytest.raises(ValueError):
            dataclasses.replace(NormClass(3, 2), e=2)


def test_field_norm_quadratic_and_cubic_forms():
    # degree 2: N(c0 + c1 t) = c0^2 - p c1^2; degree 3 adds the cubic form
    rng = random.Random(73)
    for _ in range(50):
        p = rng.choice((3, 5, 7, 13))
        c0, c1, c2 = (rng.randrange(-20, 20) for _ in range(3))
        assert field_norm(p, 2, (c0, c1)) == c0 * c0 - p * c1 * c1
        expected = c0**3 + p * c1**3 + p * p * c2**3 - 3 * p * c0 * c1 * c2
        assert field_norm(p, 3, (c0, c1, c2)) == expected
