"""Finite matrix groups acting on integer lattices, with a marked
inertia / wild-inertia filtration.

Provides invariants and coinvariants of the action, the largest free
quotient on which wild inertia acts trivially, and first cohomology of a
procyclic action on a finitely generated abelian group.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, cached_property
from typing import Optional, Sequence

from .errors import ClosureCapExceeded, InfiniteOrder, NotUnimodular, describe_int
from .lattice import (
    DIMENSION_CAP,
    FgAbelianGroup,
    IntegerMatrix,
    LatticeQuotient,
    det_rows,
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
    A cyclic group <g> carries instead the levels of g's order chain (see
    `_order_levels`): its order is the product of their orbit lengths, and
    membership sifts a matrix down them to the one exponent j it can have,
    then checks it against g^j.  Its sorted `elements` are multiplied out
    only when first read.  Concurrent reads return equal results.
    """

    def __init__(self, dimension: int, generators: Sequence[IntegerMatrix],
                 elements: Sequence[IntegerMatrix]):
        self.dimension = dimension
        self.generators = tuple(generators)
        self._elements: Optional[tuple[IntegerMatrix, ...]] = tuple(elements)
        self._levels: Optional[list[tuple[tuple[int, ...], dict]]] = None

    @classmethod
    def _cyclic(cls, dimension: int, generators: Sequence[IntegerMatrix], g: IntegerMatrix,
                levels: list[tuple[tuple[int, ...], dict]]) -> "MatrixGroup":
        group = cls(dimension, generators, ())
        group._elements, group._generator, group._levels = None, g, levels
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
        if self._levels is None:
            return len(self.elements)
        return math.prod(len(orbit) for _, orbit in self._levels)

    def __contains__(self, m: IntegerMatrix) -> bool:
        if not m.rows == m.cols == self.dimension:
            return False
        if self._levels is None:
            return m.entries in self._element_keys
        g, j, period = self._generator, 0, 1  # m can only be g^j, j known mod period
        for start, orbit in self._levels:
            shift = -j % period  # then g^shift m is a power of g^period, this level's generator
            point = m.apply(start)
            for _ in range(shift):
                point = g.apply(point)
            t = orbit.get(point)
            if t is None:
                return False
            j, period = (period * t - shift) % (period * len(orbit)), period * len(orbit)
        return m.is_identity() if j == 0 else m == _power(g, j, operator.matmul)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"MatrixGroup(dimension={self.dimension}, order={self.order})"


def _words(entries: Sequence[int]) -> int:
    """Machine words per entry: 1 + b // 64, b the bit length of the
    largest |entry|, read off the largest and the least entry (a bit
    length ignores the sign) with no |entry| built."""
    return 1 + max(max(entries, default=0).bit_length(),
                   min(entries, default=0).bit_length()) // 64


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


def _order_levels(h: IntegerMatrix, limit: int, stop, group: Optional[FgAbelianGroup] = None,
                  wide=None, repeat=None) -> Optional[list[tuple[tuple[int, ...], dict]]]:
    """The chain <h> > <h^L_0> > <h^(L_0 L_1)> > ... > 1 as a list of levels,
    each a start vector and its orbit (point -> exponent) under the level's
    generator h' = h^m: a round walks a start that h' moves until it comes
    back, after L steps, then goes on with h'^L until h' = I, and h's order
    is the product of the orbit lengths.  The starts are (1, ..., k), then
    the basis.  h acts on Z^k, or on `group` with its reduction.

    Steps and products are charged against ORDER_WORK_CAP: stop(proved) is
    called once it is spent, and wide(proved, w), if given, before each step
    from a point of w > 1 words; either may raise, knowing that no h^n with
    0 < n <= proved is I.  Returns None when the order would pass `limit`,
    or, when a walk meets a point twice (h is not injective), repeat() or None.
    """
    k, ident = h.rows, IntegerMatrix.identity(h.rows)
    first = tuple(range(1, k + 1)) if group is None else group.reduce(range(1, k + 1))
    starts = itertools.chain([first], map(ident.col, range(k)))
    levels, order, work = [], 1, 0
    # h and each product come with their words and zero count, read once.
    words, zeros = _words(h.entries), h.entries.count(0)
    while h.entries != ident.entries:  # I is reduced, as every d_i >= 2
        nonzero = len(h.entries) - zeros
        for start in starts:  # h moves one of them, as h != I
            orbit, point = {}, start
            while point not in orbit:
                if len(orbit) >= limit // order:
                    return None
                orbit[point] = j = len(orbit)  # no h^i with 0 < i <= j fixes the start
                # _words(point), inlined
                w = 1 + max(max(point).bit_length(), min(point).bit_length()) // 64
                work += k + nonzero * (w if w > words else words)
                if work > ORDER_WORK_CAP:
                    stop(order * (j or 1))
                if w > 1 and wide:
                    wide(order * (j or 1), w)
                point = h.apply(point) if group is None else group.reduce(h.apply(point))
            if point != start:
                return repeat() if repeat else None
            if len(orbit) > 1:
                break
        levels.append((start, orbit))
        period = len(orbit)

        def mul(a, b):  # each entry of a, and k multiply-adds for each nonzero one
            nonlocal work  # a and b are (matrix, words, zero count), as is the product
            (a, a_words, a_zeros), (b, b_words, _) = a, b
            work += k * (k + (k * k - a_zeros) * max(a_words, b_words))
            if work > ORDER_WORK_CAP:
                stop(order * period - 1)
            p = a @ b if group is None else _reduce_endo(group, a @ b)
            return p, _words(p.entries), p.entries.count(0)
        h, words, zeros = _power((h, words, zeros), period, mul)
        order *= period
    return levels


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


def _check_units(steps: Sequence[IntegerMatrix]) -> None:
    """Raises NotUnimodular for the first matrix whose determinant is not +/-1."""
    for g in steps:
        det = g.det()
        if det not in (1, -1):
            raise NotUnimodular(f"generator determinant {describe_int(det)} is not a unit")


def close_group(generators: Sequence[IntegerMatrix], *,
                dimension: Optional[int] = None) -> MatrixGroup:
    """Multiplicative closure of a set of unimodular matrices.

    The closure of a finite set of invertible matrices, if finite, is a
    group (powers of each element cycle back to the identity).  Elements
    are returned in a deterministic canonical order.

    The first distinct non-identity generator g is decided by the orbit
    rounds of `endomorphism_order` on Z^n, under the same budget, with no
    element multiplied out (g^N = I also proves det g = +/-1).  When every
    other generator lies in <g>, that is the group; otherwise all of them
    take the breadth-first closure.  A walk past the closure's caps is
    final, and det g is checked once a point passes one machine word.

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
    g = steps[0] if steps else ident
    entry_limit = CLOSURE_ENTRY_CAP // (dimension ** 2 or 1)  # elements of one word each
    limit = min(DEFAULT_CLOSURE_CAP, entry_limit)  # the closure's caps
    unchecked = [g]

    def exceeded(count: int):  # the determinants decide first (g's, unless wide checked it)
        _check_units(unchecked + steps[1:])
        raise ClosureCapExceeded(f"closure of rank {dimension} exceeded {count} elements")

    def wide(proved: int, point_words: int) -> None:
        _check_units(unchecked)  # once: g^n may never be I if det g is not a unit
        unchecked.clear()
        if proved * point_words > entry_limit:  # proved elements of that size
            exceeded(proved)

    levels = _order_levels(g, limit, exceeded, wide=wide)
    if levels is None:
        exceeded(limit)
    group = MatrixGroup._cyclic(dimension, gens, g, levels)
    # Dimino's first rule: a generator already in <g> adds nothing.
    if all(h in group for h in steps[1:]):
        return group
    _check_units(steps)
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
    as tame inertia acting through one generator, is validated by the
    orbit rounds that `endomorphism_order` also runs, without its elements
    (see `close_group`).  `lattice_rank` and the indices are read with
    operator.index, so a float raises TypeError.
    """

    def __init__(self, lattice_rank: int, generators: Sequence[IntegerMatrix],
                 inertia: Sequence[int] = (), wild_inertia: Sequence[int] = (),
                 frobenius: Optional[IntegerMatrix] = None):
        self._assign(lattice_rank, generators, inertia, wild_inertia, frobenius)

        for g in self.generators:
            if g.rows != self.lattice_rank or g.cols != self.lattice_rank:
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
            if frobenius.rows != self.lattice_rank or frobenius.cols != self.lattice_rank:
                raise ValueError("frobenius shape does not match lattice_rank")
            try:
                f_inv = unimodular_inverse(frobenius)
            except NotUnimodular as exc:
                raise NotUnimodular("frobenius must be unimodular") from exc
            for g in self.inertia_group.generators:
                if (frobenius @ g @ f_inv) not in self.inertia_group:
                    raise ValueError("frobenius does not normalize the inertia action")

    def _assign(self, lattice_rank, generators, inertia, wild_inertia, frobenius):
        self.lattice_rank = operator.index(lattice_rank)
        self.generators = tuple(generators)
        self.inertia_indices = tuple(map(operator.index, inertia))
        self.wild_indices = tuple(map(operator.index, wild_inertia))
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
    """Multiplicative order of `matrix` as an endomorphism of the group,
    read off orbits of reduced vectors in rounds (see `_order_levels`;
    `close_group` runs them on Z^n), each step and product charged
    against one ORDER_WORK_CAP budget.

    Raises InfiniteOrder when no power within `cap` acts as the identity
    (in particular when the matrix is not invertible on the group), or
    once deciding the order would cost more than ORDER_WORK_CAP.
    """
    check_presented_endomorphism(group, matrix)
    cap, k, t = operator.index(cap), group.num_generators, len(group.invariant_factors)

    def stop(proved: int) -> None:  # no F^n is I for 0 < n <= proved
        raise InfiniteOrder(f"no power up to {proved} of the rank-{k} matrix acts as the "
                            f"identity within {ORDER_WORK_CAP} work units")

    def not_invertible(why: str = "a walk met a point twice") -> None:
        raise InfiniteOrder(f"the rank-{k} matrix is not invertible on the group: {why}")

    free_det = cache(lambda: det_rows([r[t:] for r in matrix.to_rows()[t:]]))

    def wide(proved: int, point_words: int) -> None:  # torsion maps to torsion, so F^n = I
        if free_det() not in (1, -1):  # needs a free block of determinant +/-1
            not_invertible(f"its free block has determinant {describe_int(free_det())}")

    levels = _order_levels(_reduce_endo(group, matrix), cap, stop, group, wide, not_invertible)
    if levels is None:
        raise InfiniteOrder(f"no power up to {cap} acts as the identity")
    return math.prod(len(orbit) for _, orbit in levels)


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
