"""Exact integer matrix algebra: Smith normal form, kernels, cokernels,
and finitely generated abelian groups in invariant-factor normal form.

Everything here is exact: entries are Python integers (arbitrary
precision) and no floating point is used anywhere.  All values are
immutable, so every function is safe to call concurrently.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import NotUnimodular, SubgroupViolation, describe_int

__all__ = [
    "IntegerMatrix",
    "SnfResult",
    "FgAbelianGroup",
    "LatticeQuotient",
    "smith_normal_form",
    "cokernel",
    "kernel_basis",
    "subquotient",
    "image_basis",
    "saturate",
    "solve",
    "unimodular_inverse",
    "hstack",
    "vstack",
]


# The largest lattice the package builds itself is rank 255 (the norm
# torus at e = 256); a document may name no larger dimension, since the
# identities built from one cost its square in time and memory.
DIMENSION_CAP = 256


def json_int(x) -> int:
    """An integer read from decoded JSON; float, bool and str raise TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def json_dimension(x, what: str) -> int:
    """A dimension read from decoded JSON: an integer at most DIMENSION_CAP."""
    n = json_int(x)
    if n > DIMENSION_CAP:
        raise ValueError(f"{what} = {n} exceeds the dimension cap {DIMENSION_CAP}")
    return n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def det_rows(m: list[list[int]]) -> int:
    """Determinant of a square list of rows by fraction-free (Bareiss)
    elimination.  The rows are overwritten."""
    n = len(m)
    if n == 0:
        return 1
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix, row-major, immutable.

    >>> IntegerMatrix.from_rows([[1, 2], [3, 4]])[1, 0]
    3
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if operator.index(self.rows) < 0 or operator.index(self.cols) < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntegerMatrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(0, 0 if cols is None else cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(map(operator.index, r))
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntegerMatrix":
        if rows is None:
            rows = len(cols[0]) if cols else 0
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged columns")
        # zip yields no rows for no columns, so that case lists its empty rows.
        return cls.from_rows(list(zip(*cols)) if cols else [()] * rows, cols=len(cols))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        flat = [0] * (n * n)
        for i in range(n):
            flat[i * n + i] = 1
        return cls(n, n, tuple(flat))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntegerMatrix":
        flat = itertools.chain.from_iterable(map(self.col, range(self.cols)))
        return IntegerMatrix(self.cols, self.rows, tuple(flat))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        """Product over nonzero entries: each nonzero self[i, t] times other's
        cached row t.  self's rows are scanned, not cached: every element of a
        closure is a left factor once, and its pairs would live as long as it."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n, pairs, flat = other.cols, other._row_pairs, []
        for i in range(self.rows):
            acc = [0] * n
            for t, x in enumerate(self.row(i)):
                if x:
                    for j, y in pairs[t]:
                        acc[j] += x * y
            flat += acc
        return IntegerMatrix(self.rows, n, tuple(flat))

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntegerMatrix(
            self.rows, self.cols, tuple(map(operator.add, self.entries, other.entries))
        )

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntegerMatrix(
            self.rows, self.cols, tuple(map(operator.sub, self.entries, other.entries))
        )

    def __neg__(self) -> "IntegerMatrix":
        return IntegerMatrix(self.rows, self.cols, tuple(map(operator.neg, self.entries)))

    def scale(self, c: int) -> "IntegerMatrix":
        c = operator.index(c)
        return IntegerMatrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    @cached_property
    def _row_pairs(self) -> tuple[list[tuple[int, int]], ...]:
        # Each row as the (column, entry) pairs of its nonzero entries.
        return tuple([(j, x) for j, x in enumerate(self.row(i)) if x]
                     for i in range(self.rows))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product over each row's cached (column, nonzero entry) pairs."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self._row_pairs:
            acc = 0
            for j, x in row:
                acc += x * vec[j]
            out.append(acc)
        return tuple(out)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.entries == IntegerMatrix.identity(self.rows).entries

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return det_rows(self.to_rows())

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.to_rows()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IntegerMatrix":
        rows = [[json_int(x) for x in r] for r in d["entries"]]
        m = cls.from_rows(rows, cols=json_dimension(d["cols"], "cols"))
        if m.rows != json_dimension(d["rows"], "rows"):
            raise ValueError("row count does not match entries")
        return m

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def hstack(blocks: Sequence[IntegerMatrix], rows: Optional[int] = None) -> IntegerMatrix:
    """Concatenate matrices left-to-right.  `rows` disambiguates the empty case."""
    if not blocks:
        if rows is None:
            raise ValueError("hstack of no blocks needs an explicit row count")
        return IntegerMatrix(rows, 0, ())
    nrows = blocks[0].rows
    if any(b.rows != nrows for b in blocks):
        raise ValueError("row count mismatch")
    out_rows = []
    for i in range(nrows):
        r: list[int] = []
        for b in blocks:
            r.extend(b.row(i))
        out_rows.append(r)
    return IntegerMatrix.from_rows(out_rows, cols=sum(b.cols for b in blocks))


def vstack(blocks: Sequence[IntegerMatrix], cols: Optional[int] = None) -> IntegerMatrix:
    """Concatenate matrices top-to-bottom.  `cols` disambiguates the empty case."""
    if not blocks and cols is None:
        raise ValueError("vstack of no blocks needs an explicit column count")
    if any(b.cols != blocks[0].cols for b in blocks):
        raise ValueError("column count mismatch")
    return hstack([b.transpose() for b in blocks], rows=cols).transpose()


@dataclass(frozen=True)
class SnfResult:
    """Unimodular decomposition U @ A @ V = S with S diagonal, d_i | d_{i+1}."""

    U: IntegerMatrix
    S: IntegerMatrix
    V: IntegerMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.S[i, i] for i in range(min(self.S.rows, self.S.cols)))


def _row_gcd_op(S, log, t, i):
    # Unimodular 2x2 row step making S[t][t] = gcd and S[i][t] = 0, logged
    # for U or M^-1.  Every caller has S[t][t] != 0 and S[i][t] != 0, and
    # rows t and i of S zero left of column t, so S is updated from column t on.
    St, Si = S[t], S[i]
    a, b = St[t], Si[t]
    if b % a == 0:
        q = b // a
        for j in range(t, len(Si)):
            Si[j] -= q * St[j]
        log.append((i, [(t, q)]))
        return
    g, x, y = _xgcd(a, b)
    ag, bg = a // g, b // g
    for j in range(t, len(St)):
        u, v = St[j], Si[j]
        St[j] = x * u + y * v
        Si[j] = -bg * u + ag * v
    log.append((t, i, x, y, -bg, ag))


def _col_gcd_op(S, log, t, j):
    # Column analogue of _row_gcd_op for an S[t][j] that S[t][t] does not
    # divide, logged transposed for V.  Rows of S above t are zero in
    # columns t and j, and a row zero in both stays zero.
    a, b = S[t][t], S[t][j]
    g, x, y = _xgcd(a, b)
    ag, bg = a // g, b // g
    for row in S[t:]:
        u, v = row[t], row[j]
        if u or v:
            row[t] = x * u + y * v
            row[j] = -bg * u + ag * v
    log.append((t, j, x, -bg, y, ag))


def _col_div_ops(S, log, t, js):
    # Column j -= (S[t][j] // S[t][t]) * column t for each j in js, every
    # S[t][j] a nonzero multiple of S[t][t].  Each step reads column t and
    # writes only its own column, so one pass over the rows with a nonzero
    # in column t applies them all; rows of S above t are zero there.  The
    # batch is logged transposed, as row t -= q * row j.
    a = S[t][t]
    qs = [(j, S[t][j] // a) for j in js]
    for row in S[t:]:
        u = row[t]
        if u:
            for j, q in qs:
                row[j] -= q * u
    log.append((t, qs))


def _replay(steps, n):
    # I_n multiplied out by logged row steps, in order.  Each elimination
    # step acts on S alone and logs itself as one of these row steps on
    # the transform:
    #   (t,)                negates row t;
    #   (t, [(j, q), ...])  row t -= sum of q * row j;
    #   (t, j, None)        swaps rows t and j;
    #   (t, j, a, b, c, d)  sets (row t, row j) to (a row t + b row j, c row t + d row j).
    # Each row is held as {column: nonzero entry}, and an entry that
    # cancels to 0 is dropped, so a batch step costs the nonzeros of its
    # source rows and a 2x2 step those of its two rows.  The rows are
    # written into one flat tuple at the end.
    M = [{i: 1} for i in range(n)]
    for step in steps:
        if len(step) == 1:
            t = step[0]
            M[t] = {c: -v for c, v in M[t].items()}
        elif len(step) == 2:
            t, qs = step
            Mt = M[t]
            for j, q in qs:
                for c, v in M[j].items():
                    x = Mt.get(c, 0) - q * v
                    if x:
                        Mt[c] = x
                    else:
                        del Mt[c]
        elif step[2] is None:
            t, j, _ = step
            M[t], M[j] = M[j], M[t]
        else:
            t, j, a, b, c, d = step
            Mt, Mj = M[t], M[j]
            new_t, new_j = {}, {}
            for k in Mt.keys() | Mj.keys():
                u, v = Mt.get(k, 0), Mj.get(k, 0)
                x, y = a * u + b * v, c * u + d * v
                if x:
                    new_t[k] = x
                if y:
                    new_j[k] = y
            M[t], M[j] = new_t, new_j
    flat = [0] * (n * n)
    for i, row in enumerate(M):
        for c, v in row.items():
            flat[i * n + c] = v
    return IntegerMatrix(n, n, tuple(flat))


def _eliminate(A: IntegerMatrix):
    # The Smith form's elimination: S as a list of rows, with the row steps
    # (for U) and the column steps (for V, logged transposed) that take A
    # to it.  Pivots are chosen with minimal absolute value to limit
    # coefficient growth, and each pivot's sign is settled as soon as the
    # pivot is final.  Steps skip entries known to be zero: row steps start
    # at the pivot column, column steps skip the rows of S above the pivot
    # and rows zero in both columns, and the column steps the pivot divides
    # run as one pass over the rows with a nonzero in the pivot column.
    m, n = A.rows, A.cols
    S = A.to_rows()
    rows: list[tuple] = []
    cols: list[tuple] = []

    t = 0
    while t < min(m, n):
        # Minimal-absolute-value nonzero pivot in the trailing block.
        pivot = None
        best = None
        for i in range(t, m):
            Si = S[i]
            for j in range(t, n):
                v = Si[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            S[t], S[i0] = S[i0], S[t]
            rows.append((t, i0, None))
        if j0 != t:
            for row in S[t:]:
                row[t], row[j0] = row[j0], row[t]
            cols.append((t, j0, None))
        gcd_step = True
        while gcd_step:
            for i in range(t + 1, m):
                if S[i][t]:
                    _row_gcd_op(S, rows, t, i)
            # The entries of row t the pivot divides are cleared in batches,
            # each ending where a gcd step must change column t.  Only a gcd
            # step writes column t, so without one column t stays clear
            # below the pivot, and row t is clear: each column step zeroes
            # its S[t][j] for good.
            St, batch, gcd_step = S[t], [], False
            for j in range(t + 1, n):
                if St[j]:
                    if St[j] % St[t] == 0:
                        batch.append(j)
                        continue
                    if batch:
                        _col_div_ops(S, cols, t, batch)
                        batch = []
                    _col_gcd_op(S, cols, t, j)
                    gcd_step = True
            if batch:
                _col_div_ops(S, cols, t, batch)
        # Pivot t is final: no later step touches row t of S.
        if S[t][t] < 0:
            S[t][t] = -S[t][t]
            rows.append((t,))
        t += 1

    r = t  # number of nonzero diagonal entries
    # Enforce the divisibility chain on the nonzero diagonal.
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if b % a != 0:
                changed = True
                # Column i += column i + 1, logged as column i -= -1 * column i + 1.
                for row in S[i:]:
                    row[i] += row[i + 1]
                cols.append((i + 1, [(i, -1)]))
                _row_gcd_op(S, rows, i, i + 1)
                # S[i][i] = g = gcd(a,b), S[i+1][i+1] = ab/g > 0; clear y*b != 0 at (i, i+1).
                _col_div_ops(S, cols, i, [i + 1])
    return S, rows, cols


def smith_normal_form(A: IntegerMatrix) -> SnfResult:
    """Smith normal form with transforms: U @ A @ V = S.

    U and V are unimodular; S is diagonal with nonnegative entries
    satisfying d_i | d_{i+1}, zeros last.  Pivots are chosen with minimal
    absolute value, and steps skip entries known to be zero.

    The elimination acts on S alone and logs its steps.  U is the row log
    multiplied out on I in order; V is the column log multiplied out right
    to left, as row steps on I, so a late column step meets rows of a
    short suffix product, not V's widest columns.  The replay holds each
    row as its nonzero entries only, so a step costs the nonzeros it
    reads, not the row's width.

    >>> smith_normal_form(IntegerMatrix.from_rows([[2, 4], [6, 8]])).diagonal()
    (2, 4)
    """
    S, rows, cols = _eliminate(A)
    return SnfResult(
        U=_replay(rows, A.rows),
        S=IntegerMatrix.from_rows(S, cols=A.cols),
        V=_replay(reversed(cols), A.cols),
    )


def unimodular_inverse(M: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a matrix with determinant +/-1; raises NotUnimodular otherwise.

    The Smith form's elimination gives U @ M @ V = S.  M is unimodular
    exactly when S = I, and then M^-1 = V @ U: one replay of the row log
    followed by the column log reversed.  Otherwise the error names the
    invariant factors on the diagonal of S.
    """
    n = M.rows
    if n != M.cols:
        raise NotUnimodular("matrix is not square")
    S, rows, cols = _eliminate(M)
    diagonal = tuple(S[i][i] for i in range(n))
    if any(d != 1 for d in diagonal):
        raise NotUnimodular(
            f"determinant is not a unit: invariant factors {describe_int(diagonal)}")
    return _replay(itertools.chain(rows, reversed(cols)), n)


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group Z^free_rank (+) Z/d_1 (+) ... (+) Z/d_t
    in invariant-factor normal form: d_i >= 2 and d_i | d_{i+1}.

    The normal form is unique, so equality of groups is field-wise equality.
    Coordinates list the torsion generators first (orders d_1, ..., d_t),
    then the free ones; `orders`, `reduce` and `quotient` work in them.
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_rank", operator.index(self.free_rank))
        if self.free_rank < 0:
            raise ValueError("free_rank must be nonnegative")
        fs = tuple(map(operator.index, self.invariant_factors))
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2 (units are dropped in normal form)")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain violated: {a} does not divide {b}")

    @classmethod
    def trivial(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbelianGroup":
        """Z/|n|, with n = 0 meaning Z."""
        n = abs(operator.index(n))
        if n == 0:
            return cls(1, ())
        return cls(0, (n,)) if n > 1 else cls(0, ())

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> "FgAbelianGroup":
        """Normalize a direct sum of cyclic groups (order 0 meaning Z)."""
        orders = [abs(operator.index(d)) for d in orders]
        diag = IntegerMatrix.from_rows(
            [[orders[i] if i == j else 0 for j in range(len(orders))] for i in range(len(orders))],
            cols=len(orders),
        )
        return cokernel(diag)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def order(self) -> Optional[int]:
        """Group order, or None when the group is infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors)

    def exponent(self) -> int:
        """Exponent of the torsion subgroup (1 when torsion-free)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def orders(self) -> tuple[int, ...]:
        """Generator orders: d_1, ..., d_t, then 0 for each free generator."""
        return self.invariant_factors + (0,) * self.free_rank

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of a coordinate vector (torsion taken mod d_i)."""
        if len(coords) != self.num_generators:
            raise ValueError("coordinate length mismatch")
        pairs = itertools.zip_longest(coords, self.invariant_factors, fillvalue=0)
        return tuple(c % d if d else c for c, d in pairs)

    def quotient(self, matrix: IntegerMatrix) -> "FgAbelianGroup":
        """This group modulo the subgroup spanned by the columns of `matrix`."""
        k = self.num_generators
        relations = IntegerMatrix.from_cols(
            [[d if r == i else 0 for r in range(k)] for i, d in enumerate(self.invariant_factors)],
            rows=k)
        return cokernel(hstack([relations, matrix], rows=k))

    def to_json_dict(self) -> dict:
        return {"free_rank": self.free_rank, "invariant_factors": list(self.invariant_factors)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FgAbelianGroup":
        group = cls(json_int(d["free_rank"]), tuple(json_int(x) for x in d["invariant_factors"]))
        json_dimension(group.num_generators, "free_rank plus the factor count")
        return group

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.invariant_factors]
        return " x ".join(parts) if parts else "0"


def cokernel(A: IntegerMatrix) -> FgAbelianGroup:
    """The quotient Z^rows / (column span of A), in normal form.

    >>> cokernel(IntegerMatrix.from_rows([[-2]]))
    FgAbelianGroup(free_rank=0, invariant_factors=(2,))
    """
    return LatticeQuotient(A).group


def kernel_basis(A: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturated kernel lattice {x : A x = 0}, as columns.

    The basis columns extend to a basis of Z^cols, so the span is a direct
    summand and the cokernel of the basis inside its own span is torsion-free.
    """
    snf = smith_normal_form(A)
    d = snf.diagonal()
    keep = [j for j in range(A.cols) if j >= len(d) or d[j] == 0]
    return IntegerMatrix.from_cols([snf.V.col(j) for j in keep], rows=A.cols)


def image_basis(A: IntegerMatrix) -> IntegerMatrix:
    """Basis (as columns) of the lattice spanned by the columns of A."""
    snf = smith_normal_form(A)
    av = A @ snf.V
    d = snf.diagonal()
    keep = [j for j in range(len(d)) if d[j] != 0]
    return IntegerMatrix.from_cols([av.col(j) for j in keep], rows=A.rows)


def saturate(A: IntegerMatrix) -> IntegerMatrix:
    """Basis of the saturation of the column span: (span (x) Q) intersect Z^rows."""
    complement = kernel_basis(A.transpose())
    return kernel_basis(complement.transpose())


def solve(A: IntegerMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One integer solution x of A x = b, or None if none exists."""
    if len(b) != A.rows:
        raise ValueError("length of b must equal row count")
    x = solve_matrix(A, IntegerMatrix.from_cols([b], rows=A.rows))
    return None if x is None else x.col(0)


def solve_matrix(A: IntegerMatrix, B: IntegerMatrix) -> Optional[IntegerMatrix]:
    """One integer solution X of A X = B, or None.

    One Smith form of A serves every column: with U A V = S, X = V Y
    where S Y = U B is solved row by row.
    """
    if B.rows != A.rows:
        raise ValueError("row count of B must equal row count of A")
    snf = smith_normal_form(A)
    d = [x for x in snf.diagonal() if x]
    r = len(d)
    c = (snf.U @ B).to_rows()
    if any(any(row) for row in c[r:]) or any(x % d[i] for i in range(r) for x in c[i]):
        return None
    y = [[x // d[i] for x in c[i]] for i in range(r)] + [[0] * B.cols] * (A.cols - r)
    return snf.V @ IntegerMatrix.from_rows(y, cols=B.cols)


def lattices_equal(A: IntegerMatrix, B: IntegerMatrix) -> bool:
    """Whether the column spans of A and B coincide as sublattices."""
    if A.rows != B.rows:
        raise ValueError("ambient rank mismatch")
    return solve_matrix(A, B) is not None and solve_matrix(B, A) is not None


class LatticeQuotient:
    """The quotient Z^n / (column span of relations), with explicit coordinates.

    Coordinates are the normal-form coordinates of `group` (torsion
    generators first, then free ones).  `projection` maps ambient
    vectors to these coordinates; `descend` pushes an endomorphism of
    Z^n that preserves the relation lattice down to the quotient.

    Construction takes one Smith form.  The section (columns of the
    inverse of U, by `unimodular_inverse`) is computed on the first
    `lift` or the first `descend` of a non-identity map, and cached; it
    is deterministic, so a concurrent first read is harmless.
    """

    def __init__(self, relations: IntegerMatrix):
        n = relations.rows
        snf = smith_normal_form(relations)
        # Padded diagonal: 1s, then the torsion factors, then zeros.
        d = list(snf.diagonal()) + [0] * (n - min(n, relations.cols))
        kept = [i for i in range(n) if d[i] != 1]

        self.ambient_rank = n
        self.relations = relations
        self.group = FgAbelianGroup(d.count(0), tuple(x for x in d if x > 1))
        self.projection = IntegerMatrix.from_rows([list(snf.U.row(i)) for i in kept], cols=n)
        self._u = snf.U
        self._kept = kept

    @cached_property
    def _section(self) -> IntegerMatrix:
        u_inv = unimodular_inverse(self._u)
        return IntegerMatrix.from_cols([u_inv.col(i) for i in self._kept], rows=self.ambient_rank)

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of a coordinate vector (torsion taken mod d_i)."""
        return self.group.reduce(coords)

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Class of an ambient vector, in normal-form coordinates."""
        return self.reduce(self.projection.apply(vec))

    def is_zero_class(self, coords: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(coords))

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        """An ambient representative of a coordinate vector."""
        return self._section.apply(coords)

    def descend(self, endo: IntegerMatrix) -> IntegerMatrix:
        """Matrix of the induced endomorphism on normal-form coordinates.

        Raises ValueError when `endo` does not map the relation lattice
        into itself (the induced map would not be well defined).
        """
        if endo.rows != self.ambient_rank or endo.cols != self.ambient_rank:
            raise ValueError("endomorphism shape mismatch")
        if endo.is_identity():
            return IntegerMatrix.identity(self.group.num_generators)
        for j in range(self.relations.cols):
            image = self.project(endo.apply(self.relations.col(j)))
            if any(image):
                raise ValueError("endomorphism does not preserve the relation lattice")
        return self.projection @ endo @ self._section


def subquotient(ker: IntegerMatrix, im: IntegerMatrix) -> FgAbelianGroup:
    """The group (column span of ker) / (column span of im) in normal form.

    Raises SubgroupViolation when some column of im is not in the span of ker.
    """
    if ker.rows != im.rows:
        raise ValueError("ambient rank mismatch")
    basis = image_basis(ker)
    expressed = solve_matrix(basis, im)
    if expressed is None:
        raise SubgroupViolation("a column of im lies outside the span of ker")
    return cokernel(expressed)
