"""Shared test utilities: independent oracles and random generators.

The invariant-factor oracle here deliberately avoids the library's
reduction code: it computes gcds of k x k minors with a cofactor-expansion
determinant, so it can certify the Smith form independently.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random

from tametorus.errors import ClosureCapExceeded, InfiniteOrder, NoStabilization, NotUnimodular
from tametorus.galois import (
    CLOSURE_ENTRY_CAP,
    DEFAULT_CLOSURE_CAP,
    GaloisLatticeModule,
    MatrixGroup,
)
from tametorus.lattice import (
    FgAbelianGroup,
    IntegerMatrix,
    hstack,
    image_basis,
    kernel_basis,
    lattices_equal,
    subquotient,
    unimodular_inverse,
)


def det_cofactor(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion (test oracle; no shared code path)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total += sign * head * det_cofactor(minor)
    return total


def apply_dense(m: IntegerMatrix, vec) -> tuple[int, ...]:
    """Matrix-vector product over every entry, zeros included (reference)."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(m.entries[i * m.cols + j] * vec[j] for j in range(m.cols))
                 for i in range(m.rows))


def matmul_dense(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    """Matrix product over every entry, zeros included (reference)."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    flat = []
    for i in range(a.rows):
        for j in range(b.cols):
            flat.append(sum(a.entries[i * a.cols + t] * b.entries[t * b.cols + j]
                            for t in range(a.cols)))
    return IntegerMatrix(a.rows, b.cols, tuple(flat))


def from_cols_by_entries(cols, rows=None) -> IntegerMatrix:
    """IntegerMatrix.from_cols placing each entry at its row-major index
    (reference)."""
    ncols = len(cols)
    if ncols == 0:
        return IntegerMatrix(0 if rows is None else rows, 0, ())
    nrows = len(cols[0]) if rows is None else rows
    flat = [0] * (nrows * ncols)
    for j, c in enumerate(cols):
        if len(c) != nrows:
            raise ValueError("ragged columns")
        for i, x in enumerate(c):
            flat[i * ncols + j] = operator.index(x)
    return IntegerMatrix(nrows, ncols, tuple(flat))


def vstack_by_rows(blocks, cols=None) -> IntegerMatrix:
    """vstack concatenating the blocks' row lists (reference)."""
    if not blocks:
        if cols is None:
            raise ValueError("vstack of no blocks needs an explicit column count")
        return IntegerMatrix(0, cols, ())
    ncols = blocks[0].cols
    if any(b.cols != ncols for b in blocks):
        raise ValueError("column count mismatch")
    out_rows = []
    for b in blocks:
        out_rows.extend(b.to_rows())
    return IntegerMatrix.from_rows(out_rows, cols=ncols)


def invariant_factors_by_minors(m: IntegerMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... via gcds of k x k minors."""
    rows = m.to_rows()
    out = []
    prev_gcd = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for ridx in itertools.combinations(range(m.rows), k):
            for cidx in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                g = math.gcd(g, det_cofactor(sub))
        if g == 0:
            break
        out.append(g // prev_gcd)
        prev_gcd = g
    return tuple(out)


def random_matrix(rng: random.Random, max_dim: int = 6, lo: int = -20, hi: int = 20) -> IntegerMatrix:
    rows = rng.randrange(0, max_dim + 1)
    cols = rng.randrange(0, max_dim + 1)
    return IntegerMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def random_unimodular(rng: random.Random, n: int, steps: int = 8) -> IntegerMatrix:
    """Product of random elementary row operations applied to the identity."""
    if n == 0:
        return IntegerMatrix.identity(0)
    rows = IntegerMatrix.identity(n).to_rows()
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntegerMatrix.from_rows(rows, cols=n)


def random_signed_permutation(rng: random.Random, n: int) -> IntegerMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][perm[i]] = rng.choice((1, -1))
    return IntegerMatrix.from_rows(rows, cols=n)


def random_finite_action_module(rng: random.Random, rank: int) -> GaloisLatticeModule:
    """A lattice with a finite action: signed permutations conjugated by a
    common unimodular change of basis, with random inertia/wild marks."""
    q = random_unimodular(rng, rank, steps=5)
    q_inv = unimodular_inverse(q)
    n_gens = rng.randrange(1, 3)
    gens = tuple(q @ random_signed_permutation(rng, rank) @ q_inv for _ in range(n_gens))
    indices = list(range(n_gens))
    inertia = tuple(sorted(rng.sample(indices, rng.randrange(0, n_gens + 1))))
    wild = tuple(sorted(rng.sample(inertia, rng.randrange(0, len(inertia) + 1)))) if inertia else ()
    return GaloisLatticeModule(rank, gens, inertia=inertia, wild_inertia=wild)


def conjugated_cycles(rng: random.Random, cycles, scale: int = 1) -> IntegerMatrix:
    """W P W^-1 for P the permutation matrix with the given cycle lengths,
    so of the same order as P.  W = I + x y^T with y^T x = 0, whose inverse
    is I - x y^T; x and y have entries of size 1 to 3, x times `scale`, so
    the result is dense."""
    n = sum(cycles)
    image = []  # P sends basis vector j to basis vector image[j]
    for c in cycles:
        image += [len(image) + (i + 1) % c for i in range(c)]
    preimage = [0] * n
    for j, i in enumerate(image):
        preimage[i] = j
    while True:
        unit = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n - 1)] + [1]
        y = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n - 1)]
        y.append(-sum(a * b for a, b in zip(y, unit)))
        if y[-1]:
            break
    x = [scale * a for a in unit]
    c = sum(y[i] * x[preimage[i]] for i in range(n))  # y^T P x
    return IntegerMatrix.from_rows(
        [[(i == image[j]) + x[i] * y[image[j]] - x[preimage[i]] * y[j] - c * x[i] * y[j]
          for j in range(n)] for i in range(n)], cols=n)


def closure_by_products(generators, *, dimension=None) -> MatrixGroup:
    """Breadth-first closure multiplying out every element (reference):
    every generator's determinant, then each element times each distinct
    non-identity generator, under `close_group`'s caps and messages."""
    gens = tuple(generators)
    if dimension is None:
        if not gens:
            raise ValueError("dimension is required for an empty generating set")
        dimension = gens[0].rows
    for g in gens:
        if g.rows != dimension or g.cols != dimension:
            raise ValueError("generators must be square matrices of the stated dimension")
        det = g.det()
        if det not in (1, -1):
            raise NotUnimodular(f"generator determinant {det} is not a unit")

    ident = IntegerMatrix.identity(dimension)
    steps = [g for g in dict.fromkeys(gens) if g != ident]
    queue = [ident]
    seen = {ident.entries}
    words = dimension ** 2
    for x in queue:
        for g in steps:
            y = x @ g
            if y.entries in seen:
                continue
            words += dimension ** 2 * (1 + max(map(abs, y.entries), default=0).bit_length() // 64)
            if len(queue) >= DEFAULT_CLOSURE_CAP or words > CLOSURE_ENTRY_CAP:
                raise ClosureCapExceeded(
                    f"closure of rank {dimension} exceeded {len(queue)} elements")
            seen.add(y.entries)
            queue.append(y)
    elements = tuple(sorted(queue, key=lambda m: m.entries))
    return MatrixGroup(dimension, gens, elements)


def order_by_powers(group: FgAbelianGroup, matrix: IntegerMatrix, cap: int):
    """Least m <= cap with matrix^m acting as the identity on the group,
    or None (reference): successive powers, torsion rows reduced."""
    k, d = group.num_generators, group.invariant_factors

    def reduce(m: IntegerMatrix) -> IntegerMatrix:
        return IntegerMatrix.from_rows(
            [[x % d[i] for x in row] if i < len(d) else row for i, row in enumerate(m.to_rows())],
            cols=k)

    ident, power = IntegerMatrix.identity(k), reduce(matrix)
    for m in range(1, cap + 1):
        if power == ident:
            return m
        power = reduce(power @ matrix)
    return None


def random_order_bounded_action(rng: random.Random):
    """A presented group of at most 4 generators with an automorphism of
    multiplicative order at most 6, or None when the draw misses."""
    chains = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3), (3, 6), (2, 2, 2)]
    factors = rng.choice(chains)
    free = rng.randrange(0, 5 - len(factors))
    group = FgAbelianGroup(free, factors)
    k = group.num_generators
    if k == 0:
        return None
    t = len(factors)
    rows = [[0] * k for _ in range(k)]
    for i in range(t):  # torsion block: signs, plus swaps of equal factors
        rows[i][i] = rng.choice((1, -1))
    for i in range(t - 1):
        if factors[i] == factors[i + 1] and rng.random() < 0.3:
            rows[i][i], rows[i][i + 1] = 0, rows[i][i]
            rows[i + 1][i + 1], rows[i + 1][i] = 0, rng.choice((1, -1))
    pool_1 = [[[1]], [[-1]]]
    pool_2 = [
        [[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, 1], [1, 0]],
        [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1, -1], [1, 0]],
    ]
    if free == 1:
        block = rng.choice(pool_1)
    elif free == 2:
        block = rng.choice(pool_2)
    else:
        block = [[0] * free for _ in range(free)]
        perm = list(range(free))
        rng.shuffle(perm)
        for i in range(free):
            block[i][perm[i]] = rng.choice((1, -1))
    for i in range(free):
        for j in range(free):
            rows[t + i][t + j] = block[i][j]
    for i in range(t):  # mixing block: free generators may shear into torsion
        for j in range(free):
            rows[i][t + j] = rng.randint(-2, 2)
    return group, IntegerMatrix.from_rows(rows, cols=k)


def random_presented_endomorphism(rng: random.Random):
    """A group of at most 4 generators in normal form with a random
    endomorphism of its presentation (torsion block entries are multiples
    of d_j / gcd(d_i, d_j), the torsion-to-free block is zero)."""
    chains = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (3, 6), (2, 2, 2)]
    factors = rng.choice(chains)
    group = FgAbelianGroup(rng.randrange(0, 5 - len(factors)), factors)
    k, t = group.num_generators, len(factors)
    rows = [[0] * k for _ in range(k)]
    for j in range(k):
        for i in range(k):
            if j < t and i < t:
                rows[j][i] = rng.randint(-2, 2) * (factors[j] // math.gcd(factors[i], factors[j]))
            elif j < t or i >= t:  # a free generator maps anywhere; torsion never to free
                rows[j][i] = rng.randint(-1, 1) if rng.random() < 0.6 else 0
    return group, IntegerMatrix.from_rows(rows, cols=k)


def random_endomorphism_candidate(rng: random.Random):
    """A group with at most 2 torsion and 2 free generators and a square
    matrix on its coordinates that may or may not be an endomorphism
    (torsion entries are often, not always, multiples of d_j / gcd(d_i, d_j);
    a torsion generator usually, not always, stays out of the free part)."""
    factors = rng.choice([(), (2,), (2, 4), (3, 6), (6, 12)])
    group = FgAbelianGroup(rng.randrange(3), factors)
    k, t = group.num_generators, len(factors)
    rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
    for i in range(t):
        for j in range(t):
            if rng.random() < 0.6:
                rows[j][i] = rng.randint(-2, 2) * (factors[j] // math.gcd(factors[i], factors[j]))
            else:
                rows[j][i] = rng.randint(-12, 12)
        for j in range(t, k):
            rows[j][i] = 0 if rng.random() < 0.8 else rng.randint(-2, 2)
    return group, IntegerMatrix.from_rows(rows, cols=k)


def is_endomorphism_by_conditions(group: FgAbelianGroup, matrix: IntegerMatrix) -> bool:
    """Endomorphism test by two conditions on each torsion column i (reference).

    No torsion generator maps into the free part, and d_i * M[j, i] is a
    multiple of d_j for every torsion row j.  Shares no code with
    `check_presented_endomorphism`, which reduces d_i times column i.
    """
    d = group.invariant_factors
    t, k = len(d), group.num_generators
    return all(matrix[f, i] == 0 for i in range(t) for f in range(t, k)) and all(
        (d[i] * matrix[j, i]) % d[j] == 0 for i in range(t) for j in range(t))


def is_automorphism_by_blocks(group: FgAbelianGroup, matrix: IntegerMatrix) -> bool:
    """Automorphism test on the two diagonal blocks (reference).

    The free block must have determinant +/-1, and the torsion block
    together with the relations d_i e_i must span Z^t, which holds
    exactly when the gcd of the t x t minors of [torsion block | diag(d)]
    is 1.  Shares no code with `ComponentGroup`, which asks instead that
    the image and the relations span all of Z^k.
    """
    d = group.invariant_factors
    t = len(d)
    rows = matrix.to_rows()
    if det_cofactor([r[t:] for r in rows[t:]]) not in (1, -1):
        return False
    torsion = [r[:t] + [d[i] if i == j else 0 for j in range(t)] for i, r in enumerate(rows[:t])]
    return invariant_factors_by_minors(IntegerMatrix.from_rows(torsion, cols=2 * t)) == (1,) * t


def h1_by_trace_kernel(group: FgAbelianGroup, frobenius: IntegerMatrix,
                       order_cap: int = 10_000) -> FgAbelianGroup:
    """H^1 of a finite-order Frobenius F as ker(s N)/im(F - 1) (reference).

    N is the trace I + F + ... + F^(m-1) over one period m and s the
    exponent of the torsion subgroup, so s N is the trace at level
    n0 = m s.  The cocycle kernel is recomputed at level 2 n0 and must
    agree, certifying that the tower of cyclic levels has stabilized;
    NoStabilization is raised otherwise.  Shares no code with `cyclic_h1`,
    which reads the same group off the torsion of A/(F - 1)A.
    """
    k = group.num_generators
    d = group.invariant_factors
    t = len(d)

    def reduce(m: IntegerMatrix) -> IntegerMatrix:
        rows = m.to_rows()
        for j in range(t):
            rows[j] = [x % d[j] for x in rows[j]]
        return IntegerMatrix.from_rows(rows, cols=k)

    ident = reduce(IntegerMatrix.identity(k))
    trace, power = ident, reduce(frobenius)
    for _ in range(order_cap):
        if power == ident:
            break
        trace = reduce(trace + power)
        power = reduce(power @ frobenius)
    else:
        raise InfiniteOrder(f"no power up to {order_cap} acts as the identity")

    relations = IntegerMatrix.from_cols(
        [[d[i] if r == i else 0 for r in range(k)] for i in range(t)], rows=k)

    def cocycle_kernel(level: int) -> IntegerMatrix:
        """Basis of {x : level * N x lies in the relation lattice}."""
        kern = kernel_basis(hstack([reduce(trace.scale(level)), relations], rows=k))
        return image_basis(IntegerMatrix.from_rows(kern.to_rows()[:k], cols=kern.cols))

    s = d[-1] if d else 1
    kernel = cocycle_kernel(s)
    if not lattices_equal(kernel, cocycle_kernel(2 * s)):
        raise NoStabilization("cocycle kernels differ between level n0 and 2*n0")
    coboundaries = hstack([relations, frobenius - IntegerMatrix.identity(k)], rows=k)
    return subquotient(kernel, coboundaries)


def dense_poly_value(terms, point) -> int:
    """Exact integer value of sum(c * prod(x_i ** k_i)) at integer coordinates,
    term by term with `pow(x, k)` (test reference; no reduction, no sparse form)."""
    total = 0
    for coeff, exps in terms:
        value = coeff
        for x, k in zip(point, exps):
            value *= pow(x, k)
        total += value
    return total


@functools.lru_cache(maxsize=None)
def _generator_powers(p: int) -> list[int]:
    # g^0, ..., g^(p-2) for the smallest g whose powers fill F_p*.
    for g in range(2, p):
        powers = [1]
        while len(powers) < p - 1:
            powers.append(powers[-1] * g % p)
        if len(set(powers)) == p - 1:
            return powers
    raise ValueError(f"{p} has no primitive root")


def dlog_by_scan(value: int, p: int) -> int:
    """Discrete log of a nonzero residue mod p to the smallest primitive root,
    found by scanning g^k (test reference; no shared code path)."""
    return _generator_powers(p).index(value % p)


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with bases 2, 7, 61: exact for n < 4759123141 (test
    reference; no trial division, no shared code path)."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n, by pairing d with n // d for d <= sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def norm_class_by_scan(value: int, p: int, precision: int, e: int):
    """Norm class in Z/e of an integer known mod p^precision, from the
    definition: strip v factors of p, twist the unit by (-1)^(v(e-1)) and
    take its discrete log mod e.  None when value is 0 mod p^precision."""
    residue = value % p ** precision
    if residue == 0:
        return None
    v = 0
    while residue % p ** (v + 1) == 0:
        v += 1
    unit = residue // p ** v * (-1) ** (v * (e - 1))
    return dlog_by_scan(unit, p) % e


def random_torsor_terms(rng: random.Random, n_vars: int) -> list:
    """1-5 terms of degree <= 4 with coefficients in [-12, 12], zero included
    and repeated exponent vectors allowed."""
    terms = []
    for _ in range(rng.randrange(1, 6)):
        exps = [0] * n_vars
        for _ in range(rng.randrange(0, 5)):
            exps[rng.randrange(n_vars)] += 1
        terms.append((rng.randint(-12, 12), tuple(exps)))
    return terms
