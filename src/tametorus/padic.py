"""Fixed-precision p-adic integer arithmetic and norm classes.

A PadicContext fixes an odd prime p and a working precision N; values
are exact residues mod p^N with valuation bookkeeping.  `norm_class`
computes the class of an element in K*/N(L*) for the totally ramified
cyclic extension L = K(p^(1/e)) with e | p-1, via reduction and a
discrete logarithm in the residue field (Pohlig-Hellman over the prime
powers dividing e, baby-step giant-step inside each).
`norm_class_oracle` answers the same question by brute force:
exhaustively representing norms as determinants of multiplication
matrices.  The two routes are independent; the oracle is the ground
truth the formula is tested against.

Contexts with p = 2 (or p not prime) are rejected outright: in the wild
case a unit's norm-class is not determined by its reduction, so nothing
here would be meaningful.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

from .errors import (
    ContextMismatch,
    DegreeIncompatible,
    NoRepresentedNorm,
    NotAUnit,
    PrecisionExhausted,
    SearchSpaceTooLarge,
)
from .lattice import det_rows

__all__ = [
    "PadicContext",
    "PadicInt",
    "NormClass",
    "unit_part",
    "eth_power_class",
    "dlog_steps",
    "norm_class",
    "norm_class_oracle",
    "power_exceeds",
]

ORACLE_CANDIDATE_CAP = 10_000_000
PRECISION_CAP = 10_000
# Bounds trial division (2^15 odd divisors), factoring p - 1 and the
# largest baby-step table (2^16 entries).
PRIME_CAP = 2 ** 32
# A cyclic part of at most this order is tabulated whole, so a small e
# costs one table lookup per discrete log.
WHOLE_TABLE_ORDER = 64


def power_exceeds(base: int, exponent: int, cap: int) -> bool:
    """Whether base ** exponent > cap, for base >= 2 and exponent >= 0,
    without building a power much larger than cap."""
    # base ** cap.bit_length() >= 2 ** cap.bit_length() > cap.
    return base ** min(exponent, cap.bit_length()) > cap


@lru_cache(maxsize=64)
def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    # (q, q^k) for each prime q with q^k exactly dividing n >= 1, by trial
    # division by 2 and then by odd numbers only.  Cached, so the primality
    # of p, the primitive root's p - 1 and the parts of e share one run.
    out = []
    for q in itertools.chain((2,) if n >= 4 else (), range(3, isqrt(n) + 1, 2)):
        if n % q == 0:
            power = 1
            while n % q == 0:
                n //= q
                power *= q
            out.append((q, power))
            if q * q > n:
                break
    if n > 1:
        out.append((n, n))
    return tuple(out)


def smallest_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p (the canonical generator)."""
    factors = [q for q, _ in _prime_powers(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"{p} has no primitive root; is it prime?")


@dataclass(frozen=True)
class PadicContext:
    """An odd prime p < PRIME_CAP together with a working precision
    2 <= N <= PRECISION_CAP."""

    p: int
    precision: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", operator.index(self.p))
        object.__setattr__(self, "precision", operator.index(self.precision))
        if self.p == 2:
            raise ValueError("p = 2 is wildly ramified here and not supported")
        if self.p >= PRIME_CAP:
            raise ValueError(f"p must be below 2^32 = {PRIME_CAP}, got {self.p}")
        if self.p < 3 or _prime_powers(self.p) != ((self.p, self.p),):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if not 2 <= self.precision <= PRECISION_CAP:
            raise ValueError(f"precision must be between 2 and {PRECISION_CAP}")

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.precision

    @cached_property
    def primitive_root(self) -> int:
        return smallest_primitive_root(self.p)

    def integer(self, value: int) -> "PadicInt":
        return PadicInt(self, value)


@dataclass(frozen=True, slots=True, init=False)
class PadicInt:
    """A p-adic integer known exactly mod p^N."""

    context: PadicContext
    residue: int

    def __init__(self, context: PadicContext, residue: int) -> None:
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "residue", operator.index(residue) % context.modulus)

    @property
    def is_exhausted(self) -> bool:
        """Zero to working precision: no valuation or unit part exists."""
        return self.residue == 0

    @property
    def known_valuation(self) -> int:
        """min(v_p(residue), N); equal to N exactly when exhausted."""
        if self.residue == 0:
            return self.context.precision
        return _split(self.residue, self.context.p)[0]

    def _check_context(self, other: "PadicInt") -> None:
        if self.context != other.context:
            raise ContextMismatch(f"{self.context} vs {other.context}")

    def __add__(self, other: "PadicInt") -> "PadicInt":
        self._check_context(other)
        return PadicInt(self.context, self.residue + other.residue)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        self._check_context(other)
        return PadicInt(self.context, self.residue - other.residue)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        self._check_context(other)
        return PadicInt(self.context, self.residue * other.residue)

    def __repr__(self) -> str:
        return f"PadicInt({self.residue} mod {self.context.p}^{self.context.precision})"


def _split(n: int, p: int) -> tuple[int, int]:
    # (v, u) with n = p^v * u and p not dividing u, for a residue n mod p^N.
    if n == 0:
        raise PrecisionExhausted("value is 0 mod p^N; no unit decomposition exists")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def unit_part(a: PadicInt) -> tuple[int, PadicInt]:
    """Decompose a = p^v * u with u a unit (known mod p^(N-v)).

    Raises PrecisionExhausted when a is zero to working precision.
    """
    v, u = _split(a.residue, a.context.p)
    return v, PadicInt(a.context, u)


@dataclass(frozen=True, slots=True, init=False)
class NormClass:
    """A residue class in Z/e, the value group of K*/N(L*)."""

    e: int
    value: int

    def __init__(self, e: int, value: int) -> None:
        if operator.index(e) < 1:
            raise ValueError("e must be positive")
        if not 0 <= operator.index(value) < e:
            raise ValueError(f"value {value} out of range for Z/{e}")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "value", value)

    def __add__(self, other: "NormClass") -> "NormClass":
        if self.e != other.e:
            raise ValueError("cannot add classes of different degree")
        return NormClass(self.e, (self.value + other.value) % self.e)

    def to_json_dict(self) -> dict:
        return {"value": self.value, "e": self.e}


def check_degree(p: int, e: int) -> None:
    """Raise DegreeIncompatible unless e is positive and divides p - 1;
    a non-integer e raises TypeError."""
    if operator.index(e) < 1:
        raise DegreeIncompatible("e must be positive")
    if (p - 1) % e != 0:
        raise DegreeIncompatible(f"e = {e} does not divide p - 1 = {p - 1}")


def _dlog_parts(e: int) -> list[tuple[int, int, int]]:
    # (order n, baby steps m, giant steps ceil(n / m)) of each cyclic part
    # the discrete log solves: a small e whole, otherwise each prime power
    # n exactly dividing e, with m = ceil(sqrt(n)).
    if e <= WHOLE_TABLE_ORDER:
        return [(e, e, 1)]
    parts = []
    for _, n in _prime_powers(e):
        m = isqrt(n - 1) + 1
        parts.append((n, m, -(-n // m)))
    return parts


def dlog_steps(p: int, e: int) -> int:
    """Multiplications mod p of the discrete-log plan for (p, e), counted
    without building it: per part of order n, the m baby steps of its
    table, the ceil(n / m) giant steps of the longest search and the
    squarings of the projection z -> z^(e/n)."""
    check_degree(p, e)
    return sum(m + giants + (e // n).bit_length() for n, m, giants in _dlog_parts(e))


@lru_cache(maxsize=16)
def _dlog_plan(p: int, e: int, g: int) -> tuple:
    # Per part of order n, generated by w = g^((p-1)/n): the projection
    # exponent e/n, the CRT coefficient (1 mod n, 0 mod e/n), the
    # baby-step table {w^j: j} for j < m, the giant multiplier w^(-m) and
    # the giant-step count.
    plan = []
    for n, m, giants in _dlog_parts(e):
        cofactor = e // n
        w = pow(g, (p - 1) // n, p)
        table = {}
        x = 1
        for j in range(m):
            table[x] = j
            x = x * w % p
        coefficient = cofactor * pow(cofactor, -1, n) % e
        plan.append((cofactor, coefficient, table, pow(x, -1, p), giants))
    return tuple(plan)


def eth_power_class(u: PadicInt, e: int) -> NormClass:
    """Class of a unit in k*/(k*)^e, as a discrete log mod e.

    The value is dlog(u mod p) modulo e with respect to the smallest
    primitive root mod p, so it is 0 exactly when the reduction of u is
    an e-th power in the residue field.  z = ubar^((p-1)/e) lies in the
    order-e subgroup; its log is found by Pohlig-Hellman: projected to
    each prime-power part, solved there by baby-step giant-step, and
    combined by the Chinese remainder theorem.
    """
    ctx = u.context
    p = ctx.p
    check_degree(p, e)
    ubar = u.residue % p
    if ubar == 0:
        raise NotAUnit("reduction mod p is zero")
    z = pow(ubar, (p - 1) // e, p)
    r = 0
    for cofactor, coefficient, table, giant, giants in _dlog_plan(p, e, ctx.primitive_root):
        y = pow(z, cofactor, p)
        i = 0
        while (j := table.get(y)) is None:
            i += 1
            if i == giants:
                raise AssertionError("unreachable: z lies in the subgroup generated by g^((p-1)/e)")
            y = y * giant % p
        r += (i * len(table) + j) * coefficient
    return NormClass(e, r % e)


def norm_class(a: PadicInt, e: int) -> NormClass:
    """Class of a in K*/N(L*) for L = K(p^(1/e)), identified with Z/e.

    With a = p^v * u the class is that of (-1)^(v(e-1)) * u in
    k*/(k*)^e: the uniformizer's norm is (-1)^(e-1) p, so peeling off
    powers of p twists the unit by the corresponding sign.
    """
    p = a.context.p
    check_degree(p, e)
    v, u = _split(a.residue, p)
    if v:
        a = PadicInt(a.context, -u if v * (e - 1) % 2 else u)
    return eth_power_class(a, e)


def _mult_matrix_rows(p: int, e: int, coeffs: tuple[int, ...]) -> list[list[int]]:
    # Multiplication by sum(c_i t^i) on the basis 1, t, ..., t^(e-1), t^e = p.
    return [
        [coeffs[r - j] if r >= j else p * coeffs[r - j + e] for j in range(e)]
        for r in range(e)
    ]


def field_norm(p: int, e: int, coeffs: tuple[int, ...]) -> int:
    """N(b) for b = sum(c_i t^i) in L = K(t), t^e = p: the determinant of
    the multiplication-by-b matrix over the basis 1, t, ..., t^(e-1)."""
    if len(coeffs) != e:
        raise ValueError(f"expected {e} coefficients")
    return det_rows(_mult_matrix_rows(p, e, coeffs))


# Oracle traffic comes grouped by key (a run of queries at one p, e,
# search precision and valuation), so a few entries keep every hit; one
# entry can hold ~185k residues.
@lru_cache(maxsize=8)
def _norm_residue_master(p: int, e: int, search_precision: int, k_build: int) -> frozenset:
    # All residues mod p^k_build of N(t^j b), b over coefficient vectors
    # mod p^search_precision, j in 0..e-1.  N(t) = (-1)^(e-1) p.
    mod = p ** k_build
    shift = ((-1) ** (e - 1)) * p % mod
    out = set()
    for coeffs in itertools.product(range(p ** search_precision), repeat=e):
        n = field_norm(p, e, coeffs) % mod
        out.add(n)
        for _ in range(1, e):
            n = n * shift % mod
            out.add(n)
    return frozenset(out)


@lru_cache(maxsize=8)
def _norm_residue_set(p: int, e: int, search_precision: int, k: int) -> frozenset:
    # Norm residues mod p^k; built from a shared master set at the finest
    # exponent any sound query at this search precision can need.
    k_build = max(k, e * (search_precision - 1) + 1)
    master = _norm_residue_master(p, e, search_precision, k_build)
    if k_build == k:
        return master
    q = p ** k
    return frozenset(x % q for x in master)


def norm_class_oracle(a: PadicInt, e: int, search_precision: int) -> NormClass:
    """Brute-force norm class: the least r such that a * w^(-r) is a
    represented norm, where w lifts the canonical generator of k*.

    Membership is tested by exhausting coefficient vectors mod
    p^search_precision and valuation shifts b -> t^j b, accepting when
    N(b) matches the target mod p^(v(a)+2); two spare digits let tame
    Hensel lifting promote the approximate representation to an exact
    one.  Raises SearchSpaceTooLarge when the candidate count would
    exceed 10^7.
    """
    ctx = a.context
    check_degree(ctx.p, e)
    if search_precision < 1:
        raise ValueError("search_precision must be positive")
    if power_exceeds(ctx.p, e * search_precision, ORACLE_CANDIDATE_CAP):
        raise SearchSpaceTooLarge(
            f"p^(e*search_precision) = {ctx.p}^{e * search_precision} exceeds {ORACLE_CANDIDATE_CAP}"
        )
    v, _ = _split(a.residue, ctx.p)
    if v + 2 > ctx.precision:
        raise PrecisionExhausted(
            f"need a mod p^{v + 2} but the context only carries p^{ctx.precision}"
        )
    modulus = ctx.p ** (v + 2)
    residues = _norm_residue_set(ctx.p, e, search_precision, v + 2)
    w_inv = pow(ctx.primitive_root, -1, ctx.modulus)
    target = a.residue % ctx.modulus
    for r in range(e):
        if target % modulus in residues:
            return NormClass(e, r)
        target = target * w_inv % ctx.modulus
    raise NoRepresentedNorm(
        "no class admits a represented norm; increase search_precision"
    )
