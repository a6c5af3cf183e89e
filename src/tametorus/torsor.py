"""Explicit norm-torsor families over affine space, and empirical checks
that torsor evaluation factors through reduction to the special fibre.

The model is affine n-space over the valuation ring, so every point with
coordinates in Z_p is a smooth point; the torsor patch is the locus
where the defining function f is a unit.  `verify_factorization` samples
points and compares the generic-fibre class of f(P) with the residue
class computed purely on the special fibre; `constancy_check` exhausts
the special fibre instead.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Union

from .errors import (
    ContextMismatch,
    EnumerationTooLarge,
    SamplingTooLarge,
    SpecialFibreVanishing,
)
from .lattice import json_int
from .padic import (
    NormClass,
    PadicContext,
    PadicInt,
    check_degree,
    dlog_steps,
    eth_power_class,
    norm_class,
    power_exceeds,
)

__all__ = [
    "MultivariatePolynomial",
    "NormTorsorFamily",
    "FailureRecord",
    "FactorizationReport",
    "ConstancyReport",
    "evaluate",
    "reduce_point",
    "special_eval",
    "verify_factorization",
    "sample_work",
    "constancy_check",
    "sample_points",
]

CONSTANCY_ENUMERATION_CAP = 10 ** 6
# Bound on min(p - 1, p^n_vars) * dlog_steps(p, e) for constancy_check:
# each distinct nonzero value of fbar costs one discrete log.  The most
# expensive accepted fibre (p = 510179, e = p - 1) takes about 9 s on a
# 2-vCPU x86 machine, as long as 10^6 points at e = 2.
CONSTANCY_DLOG_WORK_CAP = 10 ** 8
SAMPLE_COUNT_CAP = 10 ** 6
# Bound on sample_count * sample_work(family) for verify_factorization.
# One work unit is about 0.011 us on a 2-vCPU x86 machine with Python 3.11
# (the model is within a factor of 2 of 31 timed families), so an accepted
# run takes about a minute there.
SAMPLING_WORK_CAP = 5 * 10 ** 9

# A polynomial's terms as (coefficient, its nonzero (variable, exponent) pairs).
_Sparse = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


@dataclass(frozen=True)
class MultivariatePolynomial:
    """Integer polynomial in n_vars variables, terms in graded-lex order.

    Terms are (coefficient, exponent-vector) pairs; construction combines
    like terms, drops zeros and sorts canonically, so equal polynomials
    compare equal.
    """

    n_vars: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if operator.index(self.n_vars) < 0:
            raise ValueError("n_vars must be nonnegative")
        combined: dict[tuple[int, ...], int] = {}
        for coeff, exps in self.terms:
            exps = tuple(map(operator.index, exps))
            if len(exps) != self.n_vars:
                raise ValueError("exponent vector length does not match n_vars")
            if any(x < 0 for x in exps):
                raise ValueError("exponents must be nonnegative")
            combined[exps] = combined.get(exps, 0) + operator.index(coeff)
        canon = tuple(
            (c, e)
            for e, c in sorted(combined.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
            if c != 0
        )
        object.__setattr__(self, "terms", canon)

    @classmethod
    def constant(cls, n_vars: int, c: int) -> "MultivariatePolynomial":
        return cls(n_vars, ((c, (0,) * n_vars),))

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultivariatePolynomial":
        exps = tuple(1 if i == index else 0 for i in range(n_vars))
        return cls(n_vars, ((1, exps),))

    def degree(self) -> int:
        return max((sum(e) for _, e in self.terms), default=0)

    @cached_property
    def _sparse(self) -> _Sparse:
        return tuple((c, tuple((i, k) for i, k in enumerate(exps) if k))
                     for c, exps in self.terms)

    def _reduced(self, modulus: int) -> _Sparse:
        return tuple((c % modulus, pairs) for c, pairs in self._sparse)

    def evaluate_mod(self, point: Sequence[int], modulus: int) -> int:
        """Exact value of the polynomial at integer coordinates, mod `modulus`."""
        if len(point) != self.n_vars:
            raise ValueError("point length does not match n_vars")
        return _evaluate_sparse(self._sparse, list(map(operator.index, point)),
                                operator.index(modulus))

    def _binop(self, other: "MultivariatePolynomial", mul: bool) -> "MultivariatePolynomial":
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        if not mul:
            return MultivariatePolynomial(self.n_vars, self.terms + other.terms)
        terms = []
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                terms.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
        return MultivariatePolynomial(self.n_vars, tuple(terms))

    def __add__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self._binop(other, mul=False)

    def __mul__(self, other: "MultivariatePolynomial") -> "MultivariatePolynomial":
        return self._binop(other, mul=True)

    def __pow__(self, n: int) -> "MultivariatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = MultivariatePolynomial.constant(self.n_vars, 1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, c: int) -> "MultivariatePolynomial":
        return MultivariatePolynomial(self.n_vars, tuple((c * a, e) for a, e in self.terms))

    def to_json_list(self) -> list[dict]:
        return [{"c": c, "exp": list(e)} for c, e in self.terms]

    @classmethod
    def from_json_list(cls, n_vars: int, data: Sequence[dict]) -> "MultivariatePolynomial":
        return cls(n_vars, tuple((json_int(t["c"]), tuple(json_int(x) for x in t["exp"]))
                                 for t in data))


def _evaluate_sparse(sparse: _Sparse, point: Sequence[int], modulus: int) -> int:
    # The one evaluator: value mod `modulus` of a sparse polynomial at a
    # point of ints (callers check coordinates with operator.index).
    total = 0
    for term, pairs in sparse:
        for i, k in pairs:
            term = term * (point[i] if k == 1 else pow(point[i], k, modulus)) % modulus
        total += term
    return total % modulus


@dataclass(frozen=True)
class NormTorsorFamily:
    """A norm-form torsor over affine space: degree e, defining function f.

    Over the locus where f is a unit this is the patch
    {norm-form(x_1..x_e) = f} familiar from x^2 - p y^2 = f; its class at
    a point is the norm class of f there.
    """

    context: PadicContext
    e: int
    f: MultivariatePolynomial

    def __post_init__(self) -> None:
        check_degree(self.context.p, self.e)

    @property
    def n_vars(self) -> int:
        return self.f.n_vars

    # f compiled once per family: its sparse terms with the coefficients
    # reduced mod p^N (generic fibre) and mod p (special fibre).
    @cached_property
    def _f_generic(self) -> _Sparse:
        return self.f._reduced(self.context.modulus)

    @cached_property
    def _f_special(self) -> _Sparse:
        return self.f._reduced(self.context.p)

    def to_json_dict(self) -> dict:
        return {
            "p": self.context.p,
            "precision": self.context.precision,
            "e": self.e,
            "n_vars": self.n_vars,
            "f": self.f.to_json_list(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NormTorsorFamily":
        n_vars = json_int(d["n_vars"])
        return cls(
            context=PadicContext(json_int(d["p"]), json_int(d["precision"])),
            e=json_int(d["e"]),
            f=MultivariatePolynomial.from_json_list(n_vars, d["f"]),
        )


Point = Sequence[Union[PadicInt, int]]


def _point_residues(family: NormTorsorFamily, point: Point) -> tuple[int, ...]:
    out = []
    for x in point:
        if isinstance(x, PadicInt):
            if x.context != family.context:
                raise ContextMismatch("point coordinate from a different context")
            out.append(x.residue)
        else:
            out.append(operator.index(x) % family.context.modulus)
    if len(out) != family.n_vars:
        raise ValueError(f"expected {family.n_vars} coordinates")
    return tuple(out)


def evaluate(family: NormTorsorFamily, point: Point) -> NormClass:
    """Generic-fibre route: the norm class of f(P).

    Raises PrecisionExhausted when f(P) is 0 mod p^N, signalling that the
    point leaves the torsor patch.
    """
    ctx = family.context
    value = _evaluate_sparse(family._f_generic, _point_residues(family, point), ctx.modulus)
    return norm_class(PadicInt(ctx, value), family.e)


def reduce_point(family: NormTorsorFamily, point: Point) -> tuple[int, ...]:
    """Reduction of a point to the special fibre: coordinates mod p."""
    return tuple(x % family.context.p for x in _point_residues(family, point))


def special_eval(family: NormTorsorFamily, point_bar: Sequence[int]) -> NormClass:
    """Special-fibre route: the e-th power residue class of fbar(Pbar).

    Raises SpecialFibreVanishing when fbar(Pbar) = 0: the point reduces
    outside the unit locus and the factorization makes no claim there.
    """
    p = family.context.p
    if len(point_bar) != family.n_vars:
        raise ValueError(f"expected {family.n_vars} coordinates")
    value = _evaluate_sparse(family._f_special, [operator.index(x) % p for x in point_bar], p)
    if value == 0:
        raise SpecialFibreVanishing("f vanishes at this point of the special fibre")
    return eth_power_class(family.context.integer(value), family.e)


@dataclass(frozen=True)
class FailureRecord:
    point: tuple[int, ...]
    class_generic: int
    class_special: int

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "class_generic": self.class_generic,
            "class_special": self.class_special,
        }


@dataclass(frozen=True)
class FactorizationReport:
    """Evidence record for one sampling run of the commutativity check."""

    samples_tested: int
    skipped_nonunit: int
    failures: tuple[FailureRecord, ...]
    seed: int

    @property
    def commuted(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "samples_tested": self.samples_tested,
            "skipped_nonunit": self.skipped_nonunit,
            "failures": [f.to_json_dict() for f in self.failures],
            "seed": self.seed,
        }


def sample_points(family: NormTorsorFamily, count: int, rng: random.Random) -> list[tuple[int, ...]]:
    """`count` points sampled uniformly over residues mod p^N.

    Drawn as one contiguous block from `rng` so that a report's primary
    sample can be regenerated independently from its seed.
    """
    randrange = rng.randrange
    mod = family.context.modulus
    coordinates = range(family.n_vars)
    return [tuple([randrange(mod) for _ in coordinates]) for _ in range(count)]


def sample_work(family: NormTorsorFamily) -> int:
    """Estimated cost of one verify_factorization sample, in work units.

    A sample draws 2 * n_vars coordinates mod p^N, evaluates f twice
    mod p^N (square-and-multiply for each variable power, each product
    quadratic in the word length of p^N) and takes discrete logs of up to
    dlog_steps(p, e) steps.  The constants are fitted to timings at
    precision 4, 100, 1000 and 10^4; no number of the size of p^N is built.
    """
    words = 1 + family.context.precision * family.context.p.bit_length() // 64
    mults = sum(k.bit_length() + bin(k).count("1") - 1
                for _, pairs in family.f._sparse for _, k in pairs)
    return (2000 + 7 * family.n_vars * (8 + words) + mults * (2 + words) ** 2
            + 14 * dlog_steps(family.context.p, family.e))


def verify_factorization(family: NormTorsorFamily, sample_count: int, seed: int) -> FactorizationReport:
    """Sample points and check both routes around the square agree.

    For each sampled point whose reduction keeps f a unit, the norm class
    of f(P) must equal the residue class computed on the special fibre;
    a congruent partner point Q = P + p*(random) is checked against the
    same special-fibre class, which is the operational content of the
    factorization (the class depends only on P mod p).  Disagreements
    are recorded, not raised.  Deterministic for a given seed; the count
    must lie in [1, SAMPLE_COUNT_CAP], and SamplingTooLarge is raised when
    sample_count * sample_work(family) exceeds SAMPLING_WORK_CAP.
    """
    sample_count, seed = operator.index(sample_count), operator.index(seed)
    if not 1 <= sample_count <= SAMPLE_COUNT_CAP:
        raise ValueError(f"sample_count must be between 1 and {SAMPLE_COUNT_CAP}")
    work = sample_work(family)
    if sample_count * work > SAMPLING_WORK_CAP:
        raise SamplingTooLarge(
            f"sample_count * sample_work = {sample_count} * {work} exceeds {SAMPLING_WORK_CAP} "
            f"(p = {family.context.p}, precision = {family.context.precision}, "
            f"e = {family.e}, n_vars = {family.n_vars}, terms = {len(family.f.terms)})"
        )
    rng = random.Random(seed)
    randrange = rng.randrange
    primaries = sample_points(family, sample_count, rng)
    f_special, f_generic = family._f_special, family._f_generic
    ctx, e = family.context, family.e
    p, mod = ctx.p, ctx.modulus
    step = mod // p

    tested = 0
    skipped = 0
    failures: list[FailureRecord] = []
    # The special-fibre class of each nonzero value of fbar, computed once.
    special_classes: dict[int, int] = {}
    for point in primaries:
        value = _evaluate_sparse(f_special, point, p)
        if value == 0:
            skipped += 1
            continue
        tested += 1
        special = special_classes.get(value)
        if special is None:
            special = special_classes[value] = eth_power_class(PadicInt(ctx, value), e).value
        generic = norm_class(PadicInt(ctx, _evaluate_sparse(f_generic, point, mod)), e).value
        if generic != special:
            failures.append(FailureRecord(point, generic, special))
        partner = tuple([(x + p * randrange(step)) % mod for x in point])
        partner_class = norm_class(PadicInt(ctx, _evaluate_sparse(f_generic, partner, mod)), e).value
        if partner_class != special:
            failures.append(FailureRecord(partner, partner_class, special))
    return FactorizationReport(tested, skipped, tuple(failures), seed)


@dataclass(frozen=True)
class ConstancyReport:
    """Classes of every unit-locus point of the special fibre."""

    constant: bool
    classes: dict[tuple[int, ...], int] = field(hash=False)

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "classes": {",".join(str(x) for x in k): v for k, v in sorted(self.classes.items())},
        }


def constancy_check(family: NormTorsorFamily) -> ConstancyReport:
    """Exhaust the special fibre's unit locus and report whether a single
    class occurs.  Raises EnumerationTooLarge when p^n_vars > 10^6, or
    when min(p - 1, p^n_vars) * dlog_steps(p, e) > CONSTANCY_DLOG_WORK_CAP."""
    p = family.context.p
    if power_exceeds(p, family.n_vars, CONSTANCY_ENUMERATION_CAP):
        raise EnumerationTooLarge(
            f"p^n_vars = {p}^{family.n_vars} exceeds {CONSTANCY_ENUMERATION_CAP}"
        )
    values = min(p - 1, p ** family.n_vars)
    steps = dlog_steps(p, family.e)
    if values * steps > CONSTANCY_DLOG_WORK_CAP:
        raise EnumerationTooLarge(
            f"min(p - 1, p^n_vars) * dlog_steps = {values} * {steps} exceeds "
            f"{CONSTANCY_DLOG_WORK_CAP} (p = {p}, e = {family.e}, n_vars = {family.n_vars})"
        )
    f_special, ctx, e = family._f_special, family.context, family.e
    classes: dict[tuple[int, ...], int] = {}
    # At most min(p - 1, p^n_vars) entries: one discrete log per value.
    special_classes: dict[int, int] = {}
    for point_bar in itertools.product(range(p), repeat=family.n_vars):
        value = _evaluate_sparse(f_special, point_bar, p)
        if value:
            r = special_classes.get(value)
            if r is None:
                r = special_classes[value] = eth_power_class(PadicInt(ctx, value), e).value
            classes[point_bar] = r
    return ConstancyReport(constant=len(set(special_classes.values())) <= 1, classes=classes)
