"""Finite matrix groups acting on integer lattices, with a marked
inertia / wild-inertia filtration.

Provides invariants and coinvariants of the action, the largest free
quotient on which wild inertia acts trivially, and first cohomology of a
procyclic action on a finitely generated abelian group.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Optional, Sequence

from .errors import ClosureCapExceeded, InfiniteOrder, NotUnimodular
from .lattice import (
    DIMENSION_CAP,
    FgAbelianGroup,
    IntegerMatrix,
    LatticeQuotient,
    hstack,
    json_dimension,
    json_int,
    kernel_basis,
    saturate,
    unimodular_inverse,
    vstack,
)

__all__ = [
    "MatrixGroup",
    "GaloisLatticeModule",
    "close_group",
    "coinvariants",
    "invariants",
    "largest_trivial_free_quotient",
    "cyclic_h1",
    "SUBGROUP_SELECTORS",
]

DEFAULT_CLOSURE_CAP = 10_000
# Words a closure may hold, an element of rank n whose largest entry has
# bit length b costing n^2 * (1 + b // 64): the e = 256 norm torus's own
# closure, 256 elements of rank 255.
CLOSURE_ENTRY_CAP = DIMENSION_CAP * (DIMENSION_CAP - 1) ** 2
# Work endomorphism_order may spend.  For a rank-k matrix with z nonzero
# entries, the largest of bit length b, a step of an orbit walk under it
# costs k + z * (1 + b // 64) and a product with it on the right
# k * (k + z * (1 + b // 64)), what each loops over.  At 100-250 ns a unit
# on a 2-vCPU x86 machine it stops a loop within about 10-25 s, and even
# taking successive powers it admits the e = 256 norm torus's rank-255
# action (256 powers, 5 * 10^7 units).
ORDER_WORK_CAP = 10 ** 8

SUBGROUP_SELECTORS = ("full", "inertia", "wild_inertia")


class MatrixGroup:
    """A finite group of unimodular integer matrices, given by generators.

    A group closed from several generators carries its full element list.
    A cyclic group <g> carries instead the orbit of v = (1, ..., n) that
    certified it (see `close_group`): the points g^j v for j < L are
    distinct and g^L = I, so its order is L, and g^j is its only element
    that can send v to g^j v.  Its sorted `elements` are multiplied out
    only when first read.  Concurrent reads return equal results.
    """

    def __init__(self, dimension: int, generators: Sequence[IntegerMatrix],
                 elements: Sequence[IntegerMatrix]):
        self.dimension = dimension
        self.generators = tuple(generators)
        self._elements: Optional[tuple[IntegerMatrix, ...]] = tuple(elements)
        self._orbit: Optional[dict[tuple[int, ...], int]] = None

    @classmethod
    def _cyclic(cls, dimension: int, generators: Sequence[IntegerMatrix], g: IntegerMatrix,
                orbit: dict[tuple[int, ...], int]) -> "MatrixGroup":
        group = cls(dimension, generators, ())
        group._elements, group._generator, group._orbit = None, g, orbit
        return group

    @property
    def elements(self) -> tuple[IntegerMatrix, ...]:
        if self._elements is None:
            self._elements = _closure_walk((self._generator,), self.dimension)
        return self._elements

    @cached_property
    def _element_keys(self) -> frozenset:
        return frozenset(m.entries for m in self.elements)

    @property
    def order(self) -> int:
        return len(self.elements) if self._orbit is None else len(self._orbit)

    def __contains__(self, m: IntegerMatrix) -> bool:
        if not m.rows == m.cols == self.dimension:
            return False
        if self._orbit is None:
            return m.entries in self._element_keys
        j = self._orbit.get(m.apply(range(1, m.cols + 1)))
        if j is None:
            return False
        return m.is_identity() if j == 0 else m == _power(self._generator, j, operator.matmul)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"MatrixGroup(dimension={self.dimension}, order={self.order})"


def _bits(entries: Sequence[int]) -> int:
    """Bit length of the largest |entry|."""
    return max(map(abs, entries), default=0).bit_length()


def _words(m: IntegerMatrix) -> int:
    """Machine words per entry of m: 1 + b // 64, b the bit length of its
    largest |entry|."""
    return 1 + _bits(m.entries) // 64


class _Undecided(Exception):
    """An orbit walk or its power check stopped before deciding the order."""


def _word_sized(m: IntegerMatrix) -> IntegerMatrix:
    """m, if each entry fits in 63 bits; raises _Undecided otherwise."""
    if _bits(m.entries) > 63:
        raise _Undecided
    return m


def _sparse_rows(m: IntegerMatrix) -> list[list[tuple[int, int]]]:
    """Each row of m as the (column, entry) pairs of its nonzero entries."""
    return [[(j, x) for j, x in enumerate(m.row(i)) if x] for i in range(m.rows)]


def _apply_sparse(rows: list[list[tuple[int, int]]], vec: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(x * vec[j] for j, x in row) for row in rows)


def _power(m: IntegerMatrix, exponent: int, mul) -> IntegerMatrix:
    """m^exponent for exponent >= 1 by square-and-multiply: fewer than
    2 * exponent.bit_length() products."""
    result = None
    while True:
        if exponent & 1:
            result = m if result is None else mul(result, m)
        exponent >>= 1
        if not exponent:
            return result
        m = mul(m, m)


def _orbit_order(step, start: tuple[int, ...], limit: int,
                 power_is_identity) -> Optional[dict[tuple[int, ...], int]]:
    """The orbit of `start` under a map of finite order, or None if undecided.

    Walks start, step(start), ... until the walk first comes back to
    `start`, after L steps say, and power_is_identity(L) confirms that the
    L-th power of the map is the identity.  The map then has order exactly
    L, since the orbit has L distinct points, and the orbit is returned as
    a dict from each point to its exponent.  Returns None when the orbit
    would pass `limit` points, the walk meets an entry past 63 bits or a
    point it has seen other than `start` (the map is not injective), the
    power is not the identity, or `step` or `power_is_identity` raise
    _Undecided.
    """
    orbit = {start: 0}
    try:
        point = step(start)
        while point != start:
            if point in orbit or len(orbit) >= limit or _bits(point) > 63:
                return None
            orbit[point] = len(orbit)
            point = step(point)
        return orbit if power_is_identity(len(orbit)) else None
    except _Undecided:
        return None


def _cyclic_orbit(g: IntegerMatrix) -> Optional[dict[tuple[int, ...], int]]:
    """The orbit of (1, ..., n) under g of finite order, or None when the
    walk cannot decide: an entry of g, of an orbit point or of a checked
    power passes 63 bits, or <g> would pass the closure's element or word
    cap (L elements of rank n hold L * n^2 words)."""
    n = g.rows
    rows = _sparse_rows(g)
    ident = IntegerMatrix.identity(n)
    return _orbit_order(
        lambda v: _apply_sparse(rows, v), tuple(range(1, n + 1)),
        min(DEFAULT_CLOSURE_CAP, CLOSURE_ENTRY_CAP // n ** 2),
        lambda order: _power(_word_sized(g), order, lambda a, b: _word_sized(a @ b)) == ident)


def _closure_walk(steps: Sequence[IntegerMatrix],
                  dimension: int) -> tuple[IntegerMatrix, ...]:
    """Breadth-first closure of distinct non-identity unimodular matrices,
    sorted by entries; raises ClosureCapExceeded at the caps."""
    ident = IntegerMatrix.identity(dimension)
    queue = [ident]
    seen = {ident.entries}
    words = dimension ** 2
    for x in queue:
        for g in steps:
            y = x @ g
            if y.entries in seen:
                continue
            words += dimension ** 2 * _words(y)
            if len(queue) >= DEFAULT_CLOSURE_CAP or words > CLOSURE_ENTRY_CAP:
                raise ClosureCapExceeded(
                    f"closure of rank {dimension} exceeded {len(queue)} elements")
            seen.add(y.entries)
            queue.append(y)
    return tuple(sorted(queue, key=lambda m: m.entries))


def close_group(generators: Sequence[IntegerMatrix], *,
                dimension: Optional[int] = None) -> MatrixGroup:
    """Multiplicative closure of a set of unimodular matrices.

    The closure of a finite set of invertible matrices, if finite, is a
    group (powers of each element cycle back to the identity).  Elements
    are returned in a deterministic canonical order.

    When every distinct non-identity generator lies in <g> for the first
    one, g, the group is cyclic and no element is multiplied out: g's
    order is the length L of the orbit of one vector, confirmed by g^L = I
    (which also proves det g = +/-1), and membership is one orbit lookup
    and one power.  Any other case, or a walk that cannot decide, takes
    the breadth-first closure.

    Raises NotUnimodular for a generator with determinant other than
    +/-1, and ClosureCapExceeded past DEFAULT_CLOSURE_CAP elements or
    once the elements would hold more than CLOSURE_ENTRY_CAP words.
    """
    gens = tuple(generators)
    if dimension is None:
        if not gens:
            raise ValueError("dimension is required for an empty generating set")
        dimension = gens[0].rows
    for g in gens:
        if g.rows != dimension or g.cols != dimension:
            raise ValueError("generators must be square matrices of the stated dimension")
    ident = IntegerMatrix.identity(dimension)
    # Repeats and the identity add nothing to the group.
    steps = [g for g in dict.fromkeys(gens) if g != ident]
    if steps:
        orbit = _cyclic_orbit(steps[0])
        if orbit is not None:
            group = MatrixGroup._cyclic(dimension, gens, steps[0], orbit)
            # Dimino's first rule: a generator already in <g> adds nothing.
            if all(h in group for h in steps[1:]):
                return group

    for g in gens:
        det = g.det()
        if det not in (1, -1):
            raise NotUnimodular(f"generator determinant {det} is not a unit")
    return MatrixGroup(dimension, gens, _closure_walk(steps, dimension))


class GaloisLatticeModule:
    """An integer lattice with a finite matrix action and marked subgroups.

    `generators` generate the full acting group; `inertia` and
    `wild_inertia` are index subsets of the generator list marking the
    inertia and wild-inertia subgroups.  An optional Frobenius matrix
    must be unimodular and normalize the inertia action.

    The groups `full_group`, `inertia_group` and `wild_group` are closed
    on first read, each distinct generator tuple at most once per module.
    The constructor closes the full group (this rejects an infinite
    action) and the inertia group only when a Frobenius is given or a
    wild generator is not itself marked as inertia.  A cyclic group, such
    as tame inertia acting through one generator, is validated by one
    orbit walk and one power check, without its elements (see
    `close_group`).
    """

    def __init__(self, lattice_rank: int, generators: Sequence[IntegerMatrix],
                 inertia: Sequence[int] = (), wild_inertia: Sequence[int] = (),
                 frobenius: Optional[IntegerMatrix] = None):
        self._assign(lattice_rank, generators, inertia, wild_inertia, frobenius)

        for g in self.generators:
            if g.rows != lattice_rank or g.cols != lattice_rank:
                raise ValueError("generator shape does not match lattice_rank")
        for idx in self.inertia_indices + self.wild_indices:
            if not 0 <= idx < len(self.generators):
                raise ValueError(f"generator index {idx} out of range")

        self._closure("full")  # raises ClosureCapExceeded for an infinite action
        if not set(self.wild_indices) <= set(self.inertia_indices):
            for g in self.subgroup_generators("wild_inertia"):
                if g not in self.inertia_group:
                    raise ValueError("wild inertia is not contained in inertia")

        if frobenius is not None:
            if frobenius.rows != lattice_rank or frobenius.cols != lattice_rank:
                raise ValueError("frobenius shape does not match lattice_rank")
            try:
                f_inv = unimodular_inverse(frobenius)
            except NotUnimodular as exc:
                raise NotUnimodular("frobenius must be unimodular") from exc
            for g in self.inertia_group.generators:
                if (frobenius @ g @ f_inv) not in self.inertia_group:
                    raise ValueError("frobenius does not normalize the inertia action")

    def _assign(self, lattice_rank, generators, inertia, wild_inertia, frobenius):
        self.lattice_rank = lattice_rank
        self.generators = tuple(generators)
        self.inertia_indices = tuple(inertia)
        self.wild_indices = tuple(wild_inertia)
        self.frobenius = frobenius
        self._closures: dict[tuple[IntegerMatrix, ...], MatrixGroup] = {}

    @classmethod
    def _unchecked(cls, *fields) -> "GaloisLatticeModule":
        """A module built without the constructor's checks (for a dual, say)."""
        module = cls.__new__(cls)
        module._assign(*fields)
        return module

    def _closure(self, subgroup: str) -> MatrixGroup:
        gens = self.subgroup_generators(subgroup)
        if gens not in self._closures:
            self._closures[gens] = close_group(gens, dimension=self.lattice_rank)
        return self._closures[gens]

    full_group = property(lambda self: self._closure("full"))
    inertia_group = property(lambda self: self._closure("inertia"))
    wild_group = property(lambda self: self._closure("wild_inertia"))

    def subgroup_generators(self, subgroup: str) -> tuple[IntegerMatrix, ...]:
        if subgroup == "full":
            return self.generators
        if subgroup == "inertia":
            return tuple(self.generators[i] for i in self.inertia_indices)
        if subgroup == "wild_inertia":
            return tuple(self.generators[i] for i in self.wild_indices)
        raise ValueError(f"unknown subgroup selector {subgroup!r}; use one of {SUBGROUP_SELECTORS}")

    def effective_frobenius(self) -> IntegerMatrix:
        """The Frobenius matrix, defaulting to the identity when absent."""
        if self.frobenius is None:
            return IntegerMatrix.identity(self.lattice_rank)
        return self.frobenius

    def to_json_dict(self) -> dict:
        return {
            "lattice_rank": self.lattice_rank,
            "generators": [g.to_json_dict() for g in self.generators],
            "inertia": list(self.inertia_indices),
            "wild_inertia": list(self.wild_indices),
            "frobenius": None if self.frobenius is None else self.frobenius.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GaloisLatticeModule":
        frob = d.get("frobenius")
        return cls(
            lattice_rank=json_dimension(d["lattice_rank"], "lattice_rank"),
            generators=[IntegerMatrix.from_json_dict(g) for g in d["generators"]],
            inertia=[json_int(i) for i in d.get("inertia", [])],
            wild_inertia=[json_int(i) for i in d.get("wild_inertia", [])],
            frobenius=None if frob is None else IntegerMatrix.from_json_dict(frob),
        )


def _action_relations(module: GaloisLatticeModule, subgroup: str) -> IntegerMatrix:
    """Columns spanning <(g - 1)m> over the marked subgroup's generators.

    Generators suffice: (gh - 1) = (g - 1)h + (h - 1), so the sublattice
    generated over a generating set equals the one over the whole group.
    """
    n = module.lattice_rank
    ident = IntegerMatrix.identity(n)
    return hstack([g - ident for g in module.subgroup_generators(subgroup)], rows=n)


def coinvariants(module: GaloisLatticeModule, subgroup: str = "full") -> LatticeQuotient:
    """The coinvariant quotient M / <(g - 1)m> under the marked subgroup.

    Returns a LatticeQuotient carrying the group in normal form, the
    projection matrix onto normal-form coordinates, and `descend` for
    pushing compatible endomorphisms (e.g. Frobenius) to the quotient.
    """
    return LatticeQuotient(_action_relations(module, subgroup))


def invariants(module: GaloisLatticeModule, subgroup: str = "full") -> IntegerMatrix:
    """Basis (as columns) of the saturated fixed sublattice {m : g m = m}."""
    n = module.lattice_rank
    ident = IntegerMatrix.identity(n)
    stacked = vstack([g - ident for g in module.subgroup_generators(subgroup)], cols=n)
    return kernel_basis(stacked)


def largest_trivial_free_quotient(module: GaloisLatticeModule) -> LatticeQuotient:
    """The largest free quotient of the lattice on which wild inertia acts trivially.

    Computed as the quotient by the saturation of the wild relation
    lattice: coinvariants first, then torsion removed.  The result is
    free, the projection is surjective, every wild generator fixes the
    quotient pointwise, and any lattice map to a free module with trivial
    wild action factors through the projection.
    """
    rel = _action_relations(module, "wild_inertia")
    return LatticeQuotient(saturate(rel))


def check_presented_endomorphism(group: FgAbelianGroup, matrix: IntegerMatrix) -> None:
    """Validate that `matrix`, on the group's normal-form coordinates, is an
    endomorphism: d_i times column i must reduce to zero for each d_i."""
    k = group.num_generators
    if matrix.rows != k or matrix.cols != k:
        raise ValueError(f"matrix must be {k}x{k} for this presentation")
    for i, d in enumerate(group.invariant_factors):
        if any(group.reduce([d * x for x in matrix.col(i)])):
            raise ValueError("matrix does not preserve the torsion relations")


def _reduce_endo(group: FgAbelianGroup, matrix: IntegerMatrix) -> IntegerMatrix:
    """Canonical representative of an endomorphism: each column reduced,
    that is row i taken mod d_i for each torsion coordinate."""
    k, entries = matrix.cols, list(matrix.entries)
    for i, d in enumerate(group.invariant_factors):
        entries[i * k:(i + 1) * k] = [x % d for x in entries[i * k:(i + 1) * k]]
    return IntegerMatrix(matrix.rows, k, tuple(entries))


def endomorphism_order(group: FgAbelianGroup, matrix: IntegerMatrix, *,
                       cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """Multiplicative order of `matrix` as an endomorphism of the group.

    The order is first read off the orbit of one reduced vector, as in
    `close_group`, each step and product charged against ORDER_WORK_CAP;
    a walk that cannot decide falls back to taking successive powers.

    Raises InfiniteOrder when no power within `cap` acts as the identity
    (in particular when the matrix is not invertible on the group), or
    once the powers would cost more than ORDER_WORK_CAP.
    """
    check_presented_endomorphism(group, matrix)
    k = group.num_generators
    ident = IntegerMatrix.identity(k)  # reduced, as every d_i >= 2
    reduced = _reduce_endo(group, matrix)
    rows = _sparse_rows(reduced)
    step_cost = k + sum(map(len, rows)) * _words(reduced)
    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > ORDER_WORK_CAP:
            raise _Undecided

    def step(vec):
        charge(step_cost)
        return group.reduce(_apply_sparse(rows, vec))

    def mul(a, b):
        charge(_product_work(a))
        return _word_sized(_reduce_endo(group, a @ b))

    orbit = _orbit_order(step, group.reduce(range(1, k + 1)), cap,
                         lambda order: _power(reduced, order, mul) == ident)
    if orbit is not None:
        return len(orbit)

    acc, work = reduced, 0
    for m in range(1, cap + 1):
        if acc == ident:
            return m
        work += _product_work(acc)
        if work > ORDER_WORK_CAP:
            raise InfiniteOrder(f"no power up to {m} of the rank-{k} matrix acts as the "
                                f"identity within {ORDER_WORK_CAP} work units")
        acc = _reduce_endo(group, acc @ matrix)
    raise InfiniteOrder(f"no power up to {cap} acts as the identity")


def _product_work(a: IntegerMatrix) -> int:
    """What a @ b loops over for square a of rank k: each entry of a, and
    k multiply-adds for each nonzero one."""
    k = a.rows
    return k * (k + (k * k - a.entries.count(0)) * _words(a))


def cyclic_h1(group: FgAbelianGroup, frobenius: IntegerMatrix) -> FgAbelianGroup:
    """First cohomology of a procyclic action on a presented abelian group.

    The generator acts through `frobenius` on normal-form coordinates
    (torsion generators first, then free ones) with finite order, and
    H^1 = (A/(F - 1)A)_tors.  Reason: H^1 is the union, over multiples n
    of the period of F, of ker(N_n)/(F - 1)A with N_n the trace; since
    N_n (F - 1) = 0 and over Q N_n is n times the projection onto the
    invariants along (F - 1)A, that union is the set of x with a multiple
    in (F - 1)A.

    Raises InfiniteOrder when no power of `frobenius` up to
    DEFAULT_CLOSURE_CAP acts as the identity, or once its powers cost more
    than ORDER_WORK_CAP, and ValueError when it is not an endomorphism.

    >>> cyclic_h1(FgAbelianGroup.cyclic(2), IntegerMatrix.identity(1))
    FgAbelianGroup(free_rank=0, invariant_factors=(2,))
    """
    endomorphism_order(group, frobenius)
    coinvariant = group.quotient(frobenius - IntegerMatrix.identity(group.num_generators))
    return FgAbelianGroup(0, coinvariant.invariant_factors)
