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

from .errors import ClosureCapExceeded, InfiniteOrder, NotUnimodular, describe_int
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
# Work one endomorphism_order call may spend.  For a rank-k matrix with z
# nonzero entries of w words (1 + b // 64, b the largest bit length), a
# walk step under it from a point of w' words costs k + z * max(w, w'),
# and a product with a w'-word matrix on the right k * (k + z * max(w, w')):
# a multiply-add takes about max(w, w') single-word ones (up to 100 words),
# so at 100-250 ns a unit on a 2-vCPU x86 machine a call stops in 10-25 s.
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


def _words(entries: Sequence[int]) -> int:
    """Machine words per entry: 1 + b // 64, b the bit length of the
    largest |entry|."""
    return 1 + _bits(entries) // 64


class _Undecided(Exception):
    """A one-generator walk met an entry past 63 bits, or g^L != I."""


def _word_sized(m: IntegerMatrix) -> IntegerMatrix:
    """m, if each entry fits in 63 bits; raises _Undecided otherwise."""
    if _bits(m.entries) > 63:
        raise _Undecided
    return m


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


def _orbit(step, start: tuple[int, ...], limit: int) -> Optional[dict[tuple[int, ...], int]]:
    """The orbit of `start` as a dict from each point to its exponent,
    walked by step(point, exponent) until `start` first comes back; None
    when no power up to `limit` of the map fixes `start`: the orbit would
    pass `limit` points, or it meets a point twice, so the map is not
    injective and never brings `start` back."""
    orbit = {start: 0}
    point = step(start, 0)
    while point != start:
        if point in orbit or len(orbit) >= limit:
            return None
        orbit[point] = len(orbit)
        point = step(point, orbit[point])
    return orbit


def _cyclic_orbit(g: IntegerMatrix, limit: int) -> Optional[dict[tuple[int, ...], int]]:
    """The orbit of (1, ..., n) under g, whose order is then its length L,
    or None when no g^j with 0 < j <= limit fixes (1, ..., n).  Raises
    _Undecided when an entry of g, of an orbit point or of a checked power
    passes 63 bits, or when g^L != I."""
    def step(v, _):
        point = g.apply(v)
        if _bits(point) > 63:
            raise _Undecided
        return point

    orbit = _orbit(step, tuple(range(1, g.rows + 1)), limit)
    if orbit is not None and not _power(_word_sized(g), len(orbit),
                                        lambda a, b: _word_sized(a @ b)).is_identity():
        raise _Undecided
    return orbit


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
            words += dimension ** 2 * _words(y.entries)
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
    and one power.  An orbit past the closure's caps is final too: after
    the determinant check, ClosureCapExceeded is raised with no element
    multiplied out.  Any other case, or a walk that cannot decide, takes
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
    orbit: Optional[dict] = {}  # empty: no orbit decided the group
    if steps:
        limit = min(DEFAULT_CLOSURE_CAP, CLOSURE_ENTRY_CAP // dimension ** 2)  # the closure's caps
        try:
            orbit = _cyclic_orbit(steps[0], limit)
        except _Undecided:
            pass
    if orbit:
        group = MatrixGroup._cyclic(dimension, gens, steps[0], orbit)
        # Dimino's first rule: a generator already in <g> adds nothing.
        if all(h in group for h in steps[1:]):
            return group

    for g in steps:
        det = g.det()
        if det not in (1, -1):
            raise NotUnimodular(f"generator determinant {describe_int(det)} is not a unit")
    if orbit is None:
        # g^0, ..., g^limit are distinct (a point met twice makes det g = 0),
        # so the closure would stop at a cap, after `limit` word-sized elements.
        raise ClosureCapExceeded(f"closure of rank {dimension} exceeded {limit} elements")
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

    Read off orbits of reduced vectors in rounds, each step and product
    charged against one ORDER_WORK_CAP budget.  With h = F^order, a round
    walks a vector that h moves until it comes back, after L steps, and
    takes h^L; as F^n = I only for multiples n of order * L, the order is
    exact once h = I.  The vectors are (1, ..., k), then the basis; h^L
    fixes each one walked, so h = I once all are fixed.

    Raises InfiniteOrder when no power within `cap` acts as the identity
    (in particular when the matrix is not invertible on the group), or
    once deciding the order would cost more than ORDER_WORK_CAP.
    """
    check_presented_endomorphism(group, matrix)
    k = group.num_generators
    h, order, work = _reduce_endo(group, matrix), 1, 0  # I is reduced, as every d_i >= 2
    starts = iter((group.reduce(range(1, k + 1)), *map(IntegerMatrix.identity(k).col, range(k))))

    def charge(units: int, proved: int) -> None:  # no F^n is I for 0 < n <= proved
        nonlocal work
        work += units
        if work > ORDER_WORK_CAP:
            raise InfiniteOrder(f"no power up to {proved} of the rank-{k} matrix acts as the "
                                f"identity within {ORDER_WORK_CAP} work units")

    while not h.is_identity():
        nonzero, words = len(h.entries) - h.entries.count(0), _words(h.entries)

        def step(vec, j):  # h != I, and no h^i with 0 < i <= j fixes the start
            charge(k + nonzero * max(words, _words(vec)), order * max(j, 1))
            return group.reduce(h.apply(vec))

        for start in starts:  # h moves one of them, as h != I
            orbit = _orbit(step, start, cap // order)
            if orbit is None:
                raise InfiniteOrder(f"no power up to {cap} acts as the identity")
            if len(orbit) > 1:
                break
        period = len(orbit)

        def mul(a, b):  # each entry of a, and k multiply-adds for each nonzero one
            units = (k * k - a.entries.count(0)) * max(_words(a.entries), _words(b.entries))
            charge(k * (k + units), order * period - 1)
            return _reduce_endo(group, a @ b)
        h = _power(h, period, mul)
        order *= period
    return order


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
    DEFAULT_CLOSURE_CAP acts as the identity, or once deciding its order
    would cost more than ORDER_WORK_CAP, and ValueError when it is not an
    endomorphism.

    >>> cyclic_h1(FgAbelianGroup.cyclic(2), IntegerMatrix.identity(1))
    FgAbelianGroup(free_rank=0, invariant_factors=(2,))
    """
    endomorphism_order(group, frobenius)
    coinvariant = group.quotient(frobenius - IntegerMatrix.identity(group.num_generators))
    return FgAbelianGroup(0, coinvariant.invariant_factors)
