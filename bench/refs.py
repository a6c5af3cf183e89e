"""Independent reference computations for the benchmark's answer checks.

Nothing here calls into tametorus: each check recomputes the expected
answer with code of its own (textbook elimination, modular arithmetic,
brute-force primitive roots), so a defect in the library's code path
cannot also hide in the reference.
"""

from __future__ import annotations

# Mersenne primes used to check big-integer matrix identities modulo p.
CHECK_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)


def det_exact(rows: list[list[int]]) -> int:
    """Determinant by fraction-free Gaussian elimination (small entries)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def det_mod(rows: list[list[int]], q: int) -> int:
    """Determinant modulo a prime q by Gaussian elimination over GF(q)."""
    m = [[x % q for x in r] for r in rows]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % q
        inv = pow(m[k][k], -1, q)
        for i in range(k + 1, n):
            f = m[i][k] * inv % q
            if f:
                mi, mk = m[i], m[k]
                for j in range(k, n):
                    mi[j] = (mi[j] - f * mk[j]) % q
    return det % q


def matmul_mod(a: list[list[int]], b: list[list[int]], q: int) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in bt] for row in a]


def check_snf(a: list[list[int]], u: list[list[int]], s: list[list[int]],
              v: list[list[int]]) -> str | None:
    """Check an SNF by its contract; return None when it holds, else why not.

    U A V == S is checked modulo three large primes, so the cost does not
    grow with the (possibly huge) transform entries.  U and V are
    unimodular: for nonsingular A, |det S| == |det A| with U A V == S
    forces |det U| * |det V| == 1 exactly; their determinants are also
    checked to be +-1 modulo the primes.
    """
    m, n = len(a), len(a[0]) if a else 0
    if len(s) != m or any(len(r) != n for r in s):
        return "S has the wrong shape"
    diag = []
    for i in range(m):
        for j in range(n):
            if i != j and s[i][j]:
                return "S is not diagonal"
        if i < n:
            diag.append(s[i][i])
    if any(d < 0 for d in diag):
        return "negative diagonal entry"
    nonzero = [d for d in diag if d]
    if diag[: len(nonzero)] != nonzero:
        return "zeros are not last on the diagonal"
    if any(b % a_ for a_, b in zip(nonzero, nonzero[1:])):
        return "divisibility chain violated"
    for q in CHECK_PRIMES:
        if matmul_mod(matmul_mod(u, a, q), v, q) != [[x % q for x in r] for r in s]:
            return f"U A V != S mod {q}"
        for name, t in (("U", u), ("V", v)):
            if det_mod(t, q) not in (1, q - 1):
                return f"det {name} is not +-1 mod {q}"
    if m == n:
        d = det_exact(a)
        prod = 1
        for x in diag:
            prod *= x
        if abs(d) != prod:
            return "product of invariant factors differs from |det A|"
    return None


def diagonal_form(rows: list[list[int]], ncols: int) -> list[int]:
    """Invariant factors (zeros included up to min(m, n)) by textbook
    Euclidean row and column reduction, with no transforms kept."""
    m = [list(r) for r in rows]
    nrows = len(m)
    out = []
    t = 0
    while t < min(nrows, ncols):
        entries = [(abs(m[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if m[i][j]]
        if not entries:
            break
        _, i0, j0 = min(entries)
        m[t], m[i0] = m[i0], m[t]
        for r in m:
            r[t], r[j0] = r[j0], r[t]
        while True:
            done = True
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        done = False
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for r in m:
                        r[j] -= q * r[t]
                    if m[t][j]:
                        for r in m:
                            r[t], r[j] = r[j], r[t]
                        done = False
            if done:
                bad = next(((i, j) for i in range(t + 1, nrows) for j in range(t + 1, ncols)
                            if m[i][j] % m[t][t]), None)
                if bad is None:
                    break
                m[t] = [x + y for x, y in zip(m[t], m[bad[0]])]
        out.append(abs(m[t][t]))
        t += 1
    return out + [0] * (min(nrows, ncols) - len(out))


def quotient_structure(relations: list[list[int]], rank: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, invariant factors >= 2) of Z^rank / column span."""
    ncols = len(relations[0]) if relations else 0
    diag = [d for d in diagonal_form(relations, ncols) if d]
    return rank - len(diag), tuple(d for d in diag if d > 1)


def prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def smallest_generator(p: int) -> int:
    """Smallest primitive root mod the prime p."""
    qs = prime_factors(p - 1)
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def is_eth_power_class(x: int, r: int, e: int, p: int, g: int) -> bool:
    """Whether x * g^(-r) is an e-th power in (Z/p)^*."""
    return pow(x * pow(g, -r, p) % p, (p - 1) // e, p) == 1


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def poly_eval_mod(terms: list[tuple[int, tuple[int, ...]]], point, q: int) -> int:
    total = 0
    for c, exps in terms:
        t = c
        for x, k in zip(point, exps):
            t *= pow(x, k, q)
        total += t
    return total % q

