import hashlib
import math
import operator
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametorus import lattice
from tametorus.errors import NotUnimodular, SubgroupViolation, describe_int
from tametorus.lattice import (
    FgAbelianGroup,
    IntegerMatrix,
    LatticeQuotient,
    cokernel,
    hstack,
    image_basis,
    kernel_basis,
    lattices_equal,
    saturate,
    smith_normal_form,
    solve,
    solve_matrix,
    subquotient,
    unimodular_inverse,
    vstack,
)

from tametorus.torus import norm_torus_spec

from helpers import (
    apply_dense,
    from_cols_by_entries,
    invariant_factors_by_minors,
    matmul_dense,
    random_matrix,
    random_signed_permutation,
    random_unimodular,
    vstack_by_rows,
)


def mat(rows):
    return IntegerMatrix.from_rows(rows)


def assert_snf_contract(a):
    r = smith_normal_form(a)
    assert r.U @ a @ r.V == r.S
    assert r.U.det() in (1, -1)
    assert r.V.det() in (1, -1)
    d = r.diagonal()
    for i in range(a.rows):
        for j in range(a.cols):
            if i != j:
                assert r.S[i, j] == 0
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return r


class TestSmithNormalForm:
    def test_identity(self):
        r = smith_normal_form(IntegerMatrix.identity(2))
        assert r.S == IntegerMatrix.identity(2)

    def test_zero(self):
        r = smith_normal_form(IntegerMatrix.zero(2, 2))
        assert r.S == IntegerMatrix.zero(2, 2)

    def test_2468(self):
        # d1*d2 must equal |det| = 8; minors oracle gives (2, 4).
        a = mat([[2, 4], [6, 8]])
        r = assert_snf_contract(a)
        assert r.diagonal() == (2, 4)
        assert r.diagonal()[0] * r.diagonal()[1] == abs(a.det()) == 8
        assert invariant_factors_by_minors(a) == (2, 4)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = IntegerMatrix.zero(*shape)
            r = assert_snf_contract(a)
            assert r.S.rows == shape[0] and r.S.cols == shape[1]

    @given(
        st.lists(
            st.lists(st.integers(-20, 20), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=150, deadline=None)
    def test_contract_and_minors_oracle(self, rows):
        a = IntegerMatrix.from_rows(rows)
        r = assert_snf_contract(a)
        nonzero = tuple(x for x in r.diagonal() if x)
        assert nonzero == invariant_factors_by_minors(a)

    def test_seeded_random_contract(self):
        rng = random.Random(20260809)
        for _ in range(200):
            assert_snf_contract(random_matrix(rng))


def _scrambled_diagonal(rng, n):
    # A diagonal breaking the divisibility chain, hidden by unimodular maps.
    d = [rng.choice([2, 3, 4, 6, 9, 10, 15, -6]) for _ in range(n)]
    diag = IntegerMatrix.from_rows([[d[i] if i == j else 0 for j in range(n)]
                                    for i in range(n)])
    return random_unimodular(rng, n) @ diag @ random_unimodular(rng, n)


def test_gcd_steps_meet_the_preconditions_the_smith_form_relies_on(monkeypatch):
    # Each gcd step finds a nonzero pivot and a nonzero entry to clear, and
    # each batch of divisible column steps finds a nonzero pivot and entries
    # that are nonzero multiples of it.  The divisibility pass (the calls
    # made once the main loop has bound `r`, the number of nonzero pivots)
    # finds every one of those pivots positive and leaves them positive, so
    # no sign fix-up is needed.
    calls = {"main": 0, "pass": 0, "batch": 0, "batch-pass": 0}

    def checked(op, cleared, divisible=False):
        def wrapped(S, W, t, k):
            assert S[t][t] != 0
            entries = cleared(S, t, k)
            assert entries and all(x != 0 for x in entries)
            if divisible:
                assert all(x % S[t][t] == 0 for x in entries)
            r = sys._getframe(1).f_locals.get("r")
            calls["main" if r is None else "pass"] += 1
            if divisible:
                calls["batch" if r is None else "batch-pass"] += 1
            if r is not None:
                assert all(S[x][x] > 0 for x in range(r))
            op(S, W, t, k)
            if r is not None:
                assert all(S[x][x] > 0 for x in range(r))
        return wrapped

    monkeypatch.setattr(lattice, "_row_gcd_op",
                        checked(lattice._row_gcd_op, lambda S, t, i: [S[i][t]]))
    monkeypatch.setattr(lattice, "_col_gcd_op",
                        checked(lattice._col_gcd_op, lambda S, t, j: [S[t][j]]))
    monkeypatch.setattr(lattice, "_col_div_ops",
                        checked(lattice._col_div_ops, lambda S, t, js: [S[t][j] for j in js],
                                divisible=True))
    rng = random.Random(20261019)
    small = [random_matrix(rng, max_dim=5, lo=rng.choice([-3, -20]), hi=rng.choice([3, 20]))
             for _ in range(150)]
    small += [_scrambled_diagonal(rng, rng.randint(2, 4)) for _ in range(50)]
    for a in small:
        r = assert_snf_contract(a)
        assert tuple(x for x in r.diagonal() if x) == invariant_factors_by_minors(a)
    assert calls["batch-pass"] > 0
    batches = calls["batch"]
    for n in (20, 22, 24, 26):
        # The fixed large matrices of the lattice_tower benchmark.
        rows_rng = random.Random(f"snf-fixed-{n}")
        a = mat([[rows_rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
        r = smith_normal_form(a)
        assert r.U @ a @ r.V == r.S
    assert calls["batch"] > batches
    assert calls["main"] > 0 and calls["pass"] > 0


def _pinned_snf_inputs():
    rng = random.Random("snf-pinned")
    out = []
    for _ in range(300):
        m, n = rng.randint(0, 13), rng.randint(0, 13)
        bound = rng.choice([1, 3, 20, 10**6])
        density = rng.choice([0.15, 0.4, 1.0])
        rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(m)]
        shape = rng.randrange(4)
        if shape == 1 and min(m, n) > 1:
            # Rank at most k < min(m, n): a product through a narrow middle.
            k = rng.randrange(1, min(m, n))
            left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            right = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            rows = [[sum(left[i][x] * right[x][j] for x in range(k)) for j in range(n)]
                    for i in range(m)]
        elif shape == 2 and m:
            rows[rng.randrange(m)] = [0] * n
        elif shape == 3 and n:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        out.append(IntegerMatrix.from_rows(rows, cols=n))
    for n in (20, 26):
        dense_rng = random.Random(f"snf-fixed-{n}")
        out.append(mat([[dense_rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]))
    for e in list(range(2, 41)) + [64]:
        sigma = norm_torus_spec(e).characters.generators[0]
        ident = IntegerMatrix.identity(e - 1)
        out += [sigma, sigma - ident, unimodular_inverse(sigma).transpose() - ident]
    return out


def _digest(matrices):
    # SHA-256 over the shapes and hex entries of the matrices, in order.
    digest = hashlib.sha256()
    for m in matrices:
        digest.update(f"{m.rows}x{m.cols}:{','.join(map(hex, m.entries))};".encode())
    return digest.hexdigest()


def test_transforms_are_pinned():
    # SHA-256 of U, S and V over a fixed set of matrices: seeded random ones
    # up to 13x13 (sparse and dense, small and large entries, rank-deficient,
    # non-square, with zero rows or columns), the dense 20x20 and 26x26 of
    # the lattice_tower benchmark, and the norm-torus matrices sigma,
    # sigma - I and sigma^-T - I for e = 2..40 and 64.  A change to the
    # Smith form that alters any transform entry changes the digest.
    results = map(smith_normal_form, _pinned_snf_inputs())
    assert _digest(m for r in results for m in (r.U, r.S, r.V)) == (
        "b1f73981bfd7d9703fe75ab3d7a19df6c759ad293585f8c7a1881fad4ea33e14")


@pytest.mark.parametrize("n, expected", [
    (22, "6d2ab4bf44f52d4d781f907f883ea2e3b8a41fbf7aa82a38482dfd805fabf6aa"),
    (24, "8477f05bd500c0939784cfd008123dccd296fcb36e137f55cf8c1b4cadbf1281"),
])
def test_fixed_benchmark_transforms_are_pinned(n, expected):
    # SHA-256 of U, S and V for two more of the benchmark's fixed matrices,
    # hashed as in test_transforms_are_pinned.  Their transform entries run
    # to tens of thousands of bits, so V's column steps are exercised far
    # beyond the small seeded inputs.
    rng = random.Random(f"snf-fixed-{n}")
    a = mat([[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)])
    r = smith_normal_form(a)
    assert r.U @ a @ r.V == r.S
    assert _digest((r.U, r.S, r.V)) == expected


@pytest.mark.parametrize("e, expected", [
    (37, "a2713924bd2063e4f108ad0a645788bad4e896c53ce70182f32bf8674b5027a7"),
    (128, "f9f35af88328d8b7a72c3af8818e6e2288c2ff5aaa41640ccb64c78eaab36647"),
    (256, "2b8fe8a12fe155035bbacf5ddf2fd3dbd55a3cddf4397b661abc7075a5f75350"),
])
def test_norm_torus_relation_transforms_are_pinned(e, expected):
    # SHA-256 of U, S and V for component_group's relation matrix
    # sigma* - I of the norm torus, sigma* = sigma^-T, hashed as in
    # test_transforms_are_pinned.  Its transforms are almost all zeros, so
    # the replay's sparse rows meet long runs of absent entries and
    # entries that cancel to 0.
    sigma = norm_torus_spec(e).characters.generators[0]
    relations = unimodular_inverse(sigma).transpose() - IntegerMatrix.identity(e - 1)
    r = smith_normal_form(relations)
    assert r.U @ relations @ r.V == r.S
    assert _digest((r.U, r.S, r.V)) == expected


def test_norm_torus_inverse_is_pinned():
    sigma = norm_torus_spec(256).characters.generators[0]
    inverse = unimodular_inverse(sigma)
    assert inverse @ sigma == IntegerMatrix.identity(255)
    assert _digest((inverse,)) == (
        "9a907117ead84aa5627221708008aace2f0a15d2077fd3f40d8e3f69b4c9586a")


def test_replay_matches_the_dense_product_of_its_steps():
    # A hand-built log on I_4, checked against the product of its
    # elementary matrices over every entry.  Step 2's second term cancels
    # entry (2, 0) to exactly 0 after its first term made it nonzero; the
    # 2x2 step on rows 1 and 2 zeroes entry (1, 1), nonzero in both rows;
    # later steps read the rows those zeros were dropped from.
    steps = [
        (1, [(0, -3)]),               # row 1 = (3, 1, 0, 0)
        (2, [(1, 1), (0, -3)]),       # row 2 = (-3, -1, 1, 0), then (0, -1, 1, 0)
        (1, 2, 1, 1, 1, 2),           # rows 1, 2 = (3, 0, 1, 0), (3, -1, 2, 0)
        (3, 1, None),                 # swap rows 3 and 1
        (3,),                         # row 3 = (-3, 0, -1, 0)
        (2, [(3, 1)]),                # row 2 = (6, -1, 3, 0)
        (0, 3, 1, 0, 5, 1),           # row 3 += 5 row 0, row 0 unchanged
        (0, 2, 2, 1, 1, 1),           # rows 0, 2 = 2 row 0 + row 2, row 0 + row 2
        (1, [(2, 1)]),                # row 1 = (-7, 1, -3, 1)
    ]
    n = 4
    expected = IntegerMatrix.identity(n)
    for step in steps:
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        if len(step) == 1:
            e[step[0]][step[0]] = -1
        elif len(step) == 2:
            for j, q in step[1]:
                e[step[0]][j] -= q
        elif step[2] is None:
            t, j, _ = step
            e[t][t] = e[j][j] = 0
            e[t][j] = e[j][t] = 1
        else:
            t, j, a, b, c, d = step
            e[t][t], e[t][j], e[j][t], e[j][j] = a, b, c, d
        expected = matmul_dense(mat(e), expected)
    assert expected == mat([[8, -1, 3, 0], [-7, 1, -3, 1], [7, -1, 3, 0], [2, 0, -1, 0]])
    assert lattice._replay(steps, n) == expected


class TestCokernel:
    def test_minus_two(self):
        assert cokernel(mat([[-2]])) == FgAbelianGroup(0, (2,))

    def test_zero_2x1(self):
        assert cokernel(mat([[0], [0]])) == FgAbelianGroup(2)

    def test_rank_one_image(self):
        # image of [[-1,1],[1,-1]] is <(1,-1)>, so the quotient is Z
        assert cokernel(mat([[-1, 1], [1, -1]])) == FgAbelianGroup(1)

    def test_finite_iff_full_rank(self):
        rng = random.Random(7)
        for _ in range(100):
            a = random_matrix(rng, max_dim=4, lo=-9, hi=9)
            g = cokernel(a)
            d = smith_normal_form(a).diagonal()
            rank = sum(1 for x in d if x)
            assert g.is_finite == (rank == a.rows)
            if a.rows == a.cols and g.is_finite:
                assert g.order() == abs(a.det())

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unimodular_invariance(self, n, data):
        rows = data.draw(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=2, max_size=4)
        )
        a = IntegerMatrix.from_rows(rows, cols=n)
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        u = random_unimodular(rng, a.rows)
        v = random_unimodular(rng, a.cols)
        assert cokernel(u @ a @ v) == cokernel(a)

    def test_permutation_invariance(self):
        a = mat([[2, 0, 1], [4, 6, 0]])
        perm_rows = mat([[4, 6, 0], [2, 0, 1]])
        perm_cols = mat([[0, 1, 2], [6, 0, 4]])
        assert cokernel(a) == cokernel(perm_rows) == cokernel(perm_cols)


class TestKernel:
    def test_identity_has_empty_kernel(self):
        kb = kernel_basis(IntegerMatrix.identity(3))
        assert kb.cols == 0

    def test_zero_map(self):
        kb = kernel_basis(IntegerMatrix.zero(1, 2))
        assert kb.cols == 2
        assert cokernel(kb).invariant_factors == ()

    def test_one_one(self):
        a = mat([[1, 1]])
        kb = kernel_basis(a)
        assert kb.cols == 1
        assert (a @ kb).is_zero()
        assert sorted(kb.col(0)) == [-1, 1]

    def test_saturation(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            kb = kernel_basis(a)
            assert (a @ kb).is_zero()
            assert kb.cols == a.cols - sum(1 for x in smith_normal_form(a).diagonal() if x)
            # basis of a saturated lattice: no torsion in the ambient quotient
            assert cokernel(kb).invariant_factors == ()


class TestSubquotient:
    def test_trivial(self):
        assert subquotient(IntegerMatrix.identity(2), IntegerMatrix.identity(2)).is_trivial

    def test_index_two(self):
        assert subquotient(mat([[1]]), mat([[2]])) == FgAbelianGroup(0, (2,))

    def test_z2_mod_one_vector(self):
        got = subquotient(IntegerMatrix.identity(2), IntegerMatrix.from_cols([[2, 0]]))
        assert got == FgAbelianGroup(1, (2,))

    def test_violation(self):
        with pytest.raises(SubgroupViolation):
            subquotient(mat([[2]]), mat([[3]]))

    def test_redundant_kernel_columns(self):
        ker = mat([[2, 4], [0, 0]])  # dependent columns spanning 2Z x 0
        assert subquotient(ker, IntegerMatrix.from_cols([[4, 0]])) == FgAbelianGroup(0, (2,))


class TestSolveAndInverse:
    def test_solve_roundtrip(self):
        rng = random.Random(3)
        for _ in range(80):
            a = random_matrix(rng, max_dim=4, lo=-5, hi=5)
            x = [rng.randint(-4, 4) for _ in range(a.cols)]
            b = a.apply(x)
            got = solve(a, b)
            assert got is not None
            assert a.apply(got) == b

    def test_solve_unsolvable(self):
        assert solve(mat([[2]]), [3]) is None
        assert solve(mat([[1], [0]]), [0, 1]) is None

    def test_solve_matrix_takes_one_snf(self, monkeypatch):
        calls = []

        def counting_snf(a):
            calls.append(a)
            return smith_normal_form(a)

        monkeypatch.setattr(lattice, "smith_normal_form", counting_snf)
        a = mat([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        x = mat([[1, -2, 0], [3, 0, 1], [-1, 2, 5]])
        got = solve_matrix(a, a @ x)
        assert len(calls) == 1
        assert got is not None and a @ got == a @ x
        assert solve_matrix(mat([[2, 0], [0, 0]]), mat([[2, 1], [0, 0]])) is None
        assert solve_matrix(mat([[2, 0], [0, 0]]), mat([[2, 4], [0, 1]])) is None

    def test_unimodular_inverse(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 3, 4):
            u = random_unimodular(rng, n)
            assert (u @ unimodular_inverse(u)).is_identity()

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodular):
            unimodular_inverse(mat([[2]]))

    def test_saturate(self):
        sat = saturate(IntegerMatrix.from_cols([[2, 0]]))
        assert lattices_equal(sat, IntegerMatrix.from_cols([[1, 0]]))


class TestLatticeQuotient:
    def test_projection_kills_relations(self):
        rng = random.Random(13)
        for _ in range(40):
            rel = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            q = LatticeQuotient(rel)
            for j in range(rel.cols):
                assert q.is_zero_class(q.projection.apply(rel.col(j)))
            # projection composed with lift is the identity on coordinates
            k = q.group.num_generators
            for i in range(k):
                e = [0] * k
                e[i] = 1
                assert q.project(q.lift(e)) == q.reduce(e)

    def test_descend_rejects_incompatible(self):
        q = LatticeQuotient(IntegerMatrix.from_cols([[2, 0]]))
        bad = mat([[0, 1], [1, 0]])  # swap does not preserve <(2,0)>
        with pytest.raises(ValueError):
            q.descend(bad)

    def test_descend_identity_skips_the_section(self):
        rng = random.Random(29)
        for _ in range(40):
            rel = random_matrix(rng, max_dim=4, lo=-6, hi=6)
            q = LatticeQuotient(rel)
            ident = IntegerMatrix.identity(rel.rows)
            assert q.descend(ident) == IntegerMatrix.identity(q.group.num_generators)
            assert "_section" not in vars(q)
            # the general route agrees
            assert q.projection @ ident @ q._section == q.descend(ident)


class TestFgAbelianGroup:
    def test_normal_form_validation(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FgAbelianGroup(-1)

    def test_from_cyclic_orders(self):
        assert FgAbelianGroup.from_cyclic_orders([2, 3]) == FgAbelianGroup(0, (6,))
        assert FgAbelianGroup.from_cyclic_orders([2, 4]) == FgAbelianGroup(0, (2, 4))
        assert FgAbelianGroup.from_cyclic_orders([0, 6, 4]) == FgAbelianGroup(1, (2, 12))
        assert FgAbelianGroup.from_cyclic_orders([]) == FgAbelianGroup.trivial()

    def test_cyclic_matches_from_cyclic_orders(self):
        for n in range(-12, 13):
            assert FgAbelianGroup.cyclic(n) == FgAbelianGroup.from_cyclic_orders([n]), n

    def test_order_and_exponent(self):
        g = FgAbelianGroup(0, (2, 4))
        assert g.order() == 8 and g.exponent() == 4
        assert FgAbelianGroup(1).order() is None
        assert FgAbelianGroup.trivial().order() == 1

    def test_orders(self):
        assert FgAbelianGroup(2, (3, 6)).orders == (3, 6, 0, 0)
        assert FgAbelianGroup(1).orders == (0,)
        assert FgAbelianGroup.trivial().orders == ()

    def test_reduce(self):
        g = FgAbelianGroup(1, (2, 4))
        assert g.reduce([3, -1, -5]) == (1, 3, -5)
        assert g.reduce([4, 8, 0]) == (0, 0, 0)
        assert FgAbelianGroup.trivial().reduce([]) == ()
        with pytest.raises(ValueError):
            g.reduce([1, 2])

    def test_quotient(self):
        g = FgAbelianGroup(1, (2,))
        assert g.quotient(mat([[0], [2]])) == FgAbelianGroup(0, (2, 2))
        assert g.quotient(mat([[1], [0]])) == FgAbelianGroup(1)
        assert g.quotient(mat([[1], [1]])) == FgAbelianGroup(0, (2,))
        assert g.quotient(IntegerMatrix.identity(2)).is_trivial
        assert g.quotient(IntegerMatrix(2, 0, ())) == g

    def test_quotient_matches_minors_oracle(self):
        rng = random.Random(71)
        for _ in range(100):
            factors = rng.choice([(), (2,), (3,), (2, 4), (3, 6)])
            group = FgAbelianGroup(rng.randrange(3), factors)
            k, t = group.num_generators, len(factors)
            c = rng.randrange(3)
            m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(k)]
            relations = [[factors[i] if r == i else 0 for i in range(t)] + m[r] for r in range(k)]
            nonzero = invariant_factors_by_minors(IntegerMatrix.from_rows(relations, cols=t + c))
            expected = FgAbelianGroup(k - len(nonzero), tuple(d for d in nonzero if d > 1))
            assert group.quotient(IntegerMatrix.from_rows(m, cols=c)) == expected

    def test_json_roundtrip(self):
        g = FgAbelianGroup(2, (3, 6))
        assert FgAbelianGroup.from_json_dict(g.to_json_dict()) == g
        m = mat([[1, -2], [0, 7]])
        assert IntegerMatrix.from_json_dict(m.to_json_dict()) == m

    def test_json_dimensions_are_capped(self):
        cap = lattice.DIMENSION_CAP
        assert IntegerMatrix.from_json_dict({"rows": 0, "cols": cap, "entries": []}).cols == cap
        assert FgAbelianGroup.from_json_dict({"free_rank": cap - 1, "invariant_factors": [2]})
        for doc in ({"rows": 0, "cols": cap + 1, "entries": []},
                    {"rows": cap + 1, "cols": 0, "entries": [[]] * (cap + 1)}):
            with pytest.raises(ValueError, match="dimension cap"):
                IntegerMatrix.from_json_dict(doc)
        with pytest.raises(ValueError, match="dimension cap"):
            FgAbelianGroup.from_json_dict({"free_rank": cap, "invariant_factors": [2]})


def test_stack_helpers():
    a = mat([[1, 2]])
    b = mat([[3, 4]])
    assert hstack([a, b]) == mat([[1, 2, 3, 4]])
    assert vstack([a, b]) == mat([[1, 2], [3, 4]])
    assert hstack([], rows=2) == IntegerMatrix(2, 0, ())
    assert vstack([], cols=2) == IntegerMatrix(0, 2, ())


def test_not_unimodular_messages_name_their_integers():
    assert ([describe_int(x) for x in (2, -2, (6,), (1, 6), ())]
            == ["2", "-2", "(6,)", "(1, 6)", "()"])
    big = 10 ** 4200
    assert describe_int(big * big) == "a 27905-bit integer"
    assert describe_int(-big * big) == "a negative 27905-bit integer"
    assert describe_int((1, big * big)) == "(1, a 27905-bit integer)"
    for m, factors in ((mat([[6]]), "(6,)"), (mat([[2, 0], [0, 3]]), "(1, 6)"),
                       (mat([[big, 1], [0, big]]), "(1, a 27905-bit integer)"),
                       # Singular; then no pivot in the first column; then only
                       # the last pivot of the row reduction fails.
                       (mat([[1, 2], [2, 4]]), "(1, 0)"), (mat([[0, 1], [0, 1]]), "(1, 0)"),
                       (mat([[0, 0], [0, 0]]), "(0, 0)"), (mat([[4, 6], [6, 8]]), "(2, 2)"),
                       (mat([[1, 5, 2], [0, 1, 7], [0, 0, 3]]), "(1, 1, 3)")):
        with pytest.raises(NotUnimodular) as info:
            unimodular_inverse(m)
        assert str(info.value) == f"determinant is not a unit: invariant factors {factors}"


def _wide_unimodular(rng, n):
    # A seeded unimodular matrix with entries past 2^80: an elementary step
    # with a wide multiplier between two small random unimodular factors.
    rows = IntegerMatrix.identity(n).to_rows()
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rng.choice((1, -1)) * rng.randrange(2**80, 2**81)
    return random_unimodular(rng, n) @ mat(rows) @ random_unimodular(rng, n)


def _inverse_inputs():
    rng = random.Random("unimodular-inverse")
    out = [IntegerMatrix.identity(0)]
    out += [random_unimodular(rng, rng.randint(1, 9), steps=rng.randint(1, 20))
            for _ in range(60)]
    out += [_wide_unimodular(rng, rng.randint(2, 8)) for _ in range(30)]
    out += [random_signed_permutation(rng, rng.randint(1, 9)) for _ in range(30)]
    out += [norm_torus_spec(e).characters.generators[0] for e in list(range(2, 65)) + [256]]
    # Dense, wide transforms: U of the benchmark's fixed 16x16 Smith form,
    # and U of the norm torus's relation matrix sigma* - I at e = 64, which
    # is what LatticeQuotient._section inverts.
    dense_rng = random.Random("snf-fixed-16")
    fixed = mat([[dense_rng.randint(-20, 20) for _ in range(16)] for _ in range(16)])
    sigma = norm_torus_spec(64).characters.generators[0]
    relations = unimodular_inverse(sigma).transpose() - IntegerMatrix.identity(63)
    out += [smith_normal_form(fixed).U, smith_normal_form(relations).U]
    return out


def test_unimodular_inverse_matches_the_smith_form_route():
    # An inverse is unique, so unimodular_inverse must give the V @ U of
    # the Smith form exactly.
    for m in _inverse_inputs():
        inverse = unimodular_inverse(m)
        assert (m @ inverse).is_identity()
        snf = smith_normal_form(m)
        assert inverse == snf.V @ snf.U


@pytest.mark.parametrize("m", [mat([[1, 2, 3]]), IntegerMatrix(0, 2, ()), IntegerMatrix(2, 0, ())])
def test_unimodular_inverse_rejects_a_non_square_matrix(m):
    with pytest.raises(NotUnimodular) as info:
        unimodular_inverse(m)
    assert str(info.value) == "matrix is not square"


def test_a_dense_non_unimodular_matrix_fails_fast(monkeypatch):
    # A dense 40x40 matrix with entries in [-20, 20] and determinant not
    # +/-1: the error comes from the one elimination, read off S, with no
    # Smith form built for the message.
    rng = random.Random("dense-40")
    m = mat([[rng.randint(-20, 20) for _ in range(40)] for _ in range(40)])
    calls = []
    monkeypatch.setattr(lattice, "smith_normal_form", lambda a: calls.append(a))
    start = time.perf_counter()
    with pytest.raises(NotUnimodular) as info:
        unimodular_inverse(m)
    assert time.perf_counter() - start < 2
    assert calls == []
    prefix = "determinant is not a unit: invariant factors ("
    message = str(info.value)
    assert message.startswith(prefix) and message.endswith(")")
    factors = [int(x) for x in message[len(prefix):-1].split(", ")]
    assert len(factors) == 40
    assert math.prod(factors) == abs(m.det()) > 1


@pytest.mark.parametrize("rows, U, S, V", [
    ([[2, 3], [4, 5]], [[1, 0], [1, -1]], [[1, 0], [0, 2]], [[-1, -3], [1, 2]]),
    ([[2, 3, 0], [4, 5, 6], [0, 7, 8]],
     [[1, 0, 0], [1, -1, 0], [-14, 7, 1]],
     [[1, 0, 0], [0, 2, 0], [0, 0, 50]],
     [[-1, -3, -9], [1, 2, 6], [0, 0, 1]]),
])
def test_a_gcd_column_step_forces_another_pass(monkeypatch, rows, U, S, V):
    # The pivot 2 does not divide the 3 beside it, so a gcd column step
    # rewrites column 0 below the pivot, and the elimination must take
    # another pass of row steps at the same pivot.  U, S and V are pinned.
    steps = []
    for name in ("_row_gcd_op", "_col_gcd_op"):
        def logged(S_, log, t, k, op=getattr(lattice, name), name=name):
            steps.append((name, t))
            op(S_, log, t, k)
        monkeypatch.setattr(lattice, name, logged)
    r = smith_normal_form(mat(rows))
    assert (r.U, r.S, r.V) == (mat(U), mat(S), mat(V))
    first_column_step = steps.index(("_col_gcd_op", 0))
    assert ("_row_gcd_op", 0) in steps[first_column_step:]


def _sized(rng, rows, cols, lo=-5, hi=5):
    return IntegerMatrix(rows, cols, tuple(rng.randint(lo, hi) for _ in range(rows * cols)))


class TestMatrixPrimitivesAgainstReferences:
    def test_apply_matches_the_dense_product(self):
        rng = random.Random(29)
        cases = []
        for e in (2, 3, 7, 16, 33):
            g = norm_torus_spec(e).characters.generators[0]
            power = g
            for _ in range(e + 1):  # g^e = I, so every power shows up
                cases.append(power)
                power = power @ g
        for _ in range(60):
            cases.append(_sized(rng, rng.randint(1, 7), rng.randint(1, 7)))
        for _ in range(20):
            m = _sized(rng, rng.randint(2, 6), rng.randint(1, 6))
            zero_rows = rng.sample(range(m.rows), rng.randint(1, m.rows))
            cases.append(IntegerMatrix.from_rows(
                [[0] * m.cols if i in zero_rows else m.row(i) for i in range(m.rows)],
                cols=m.cols))
        cases += [IntegerMatrix.zero(0, k) for k in range(4)]
        cases += [IntegerMatrix.zero(k, 0) for k in range(4)]
        for m in cases:
            for vec in ([rng.randint(-9, 9) for _ in range(m.cols)], range(1, m.cols + 1),
                        tuple(rng.randint(-2 ** 80, 2 ** 80) for _ in range(m.cols))):
                assert m.apply(vec) == apply_dense(m, vec)
                assert m.apply(vec) == apply_dense(m, vec)  # from the cached rows

    def test_matmul_matches_the_dense_product(self):
        rng = random.Random(41)
        pairs = []
        for e in (2, 3, 7, 16, 33):
            g = norm_torus_spec(e).characters.generators[0]
            powers = [g]
            for _ in range(e - 1):  # g^e = I, so these are all the powers
                powers.append(matmul_dense(powers[-1], g))
            pairs += [(power, g) for power in powers] + [(g, power) for power in powers]
            pairs += [(rng.choice(powers), rng.choice(powers)) for _ in range(6)]
        for _ in range(60):
            m, k, n = (rng.randint(1, 7) for _ in range(3))
            a, b = _sized(rng, m, k), _sized(rng, k, n)
            if rng.random() < 0.5:  # zero rows of a and zero columns of b
                a = IntegerMatrix.from_rows(
                    [[0] * k if rng.random() < 0.4 else a.row(i) for i in range(m)], cols=k)
                b = IntegerMatrix.from_cols(
                    [[0] * k if rng.random() < 0.4 else b.col(j) for j in range(n)], rows=k)
            pairs.append((a, b))
        big = 2 ** 80
        for _ in range(20):
            m, k, n = (rng.randint(1, 5) for _ in range(3))
            pairs.append((_sized(rng, m, k, -big, big), _sized(rng, k, n, -big, big)))
        pairs.append((mat([[big, -big], [0, 1]]), mat([[-big, 1, 0], [big, 0, -big]])))
        for k in range(4):
            for other in range(4):
                pairs.append((IntegerMatrix.zero(0, k), _sized(rng, k, other)))
                pairs.append((_sized(rng, other, 0), IntegerMatrix.zero(0, k)))
        for a, b in pairs:
            expected = matmul_dense(a, b)
            assert a @ b == expected
            assert a @ b == expected  # from the cached rows of b
            for m in (a, b):
                copy = IntegerMatrix(m.rows, m.cols, m.entries)
                assert m == copy and hash(m) == hash(copy) and {copy: 1}[m] == 1

    def test_matmul_keeps_its_shape_mismatch_error(self):
        for a, b, message in ((mat([[1, 2]]), mat([[1, 2]]), "shape mismatch: 1x2 @ 1x2"),
                              (IntegerMatrix.zero(2, 0), mat([[1]]), "shape mismatch: 2x0 @ 1x1"),
                              (IntegerMatrix.zero(3, 2), IntegerMatrix.zero(3, 2),
                               "shape mismatch: 3x2 @ 3x2")):
            for product in (operator.matmul, matmul_dense):
                with pytest.raises(ValueError) as info:
                    product(a, b)
                assert str(info.value) == message

    def test_add_sub_neg_match_elementwise_sums(self):
        rng = random.Random(43)
        shapes = [(0, n) for n in range(4)] + [(n, 0) for n in range(1, 4)]
        shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60)]
        for rows, cols in shapes:
            bound = 2 ** 80 if rng.random() < 0.25 else 20
            a, b = (_sized(rng, rows, cols, -bound, bound) for _ in range(2))
            pairs = [list(zip(r, s)) for r, s in zip(a.to_rows(), b.to_rows())]
            assert a + b == IntegerMatrix.from_rows([[x + y for x, y in r] for r in pairs], cols)
            assert a - b == IntegerMatrix.from_rows([[x - y for x, y in r] for r in pairs], cols)
            assert -a == IntegerMatrix.from_rows([[-x for x, _ in r] for r in pairs], cols)
        for a, b in ((mat([[1, 2]]), mat([[1], [2]])), (IntegerMatrix.zero(0, 2),
                                                       IntegerMatrix.zero(0, 3))):
            for op in (operator.add, operator.sub):
                with pytest.raises(ValueError) as info:
                    op(a, b)
                assert str(info.value) == "shape mismatch"

    def test_apply_rejects_a_vector_of_the_wrong_length(self):
        m = mat([[1, 0, 2], [0, 0, 0]])
        for vec in ([1, 2], range(4), ()):
            with pytest.raises(ValueError, match="vector length mismatch"):
                m.apply(vec)
        with pytest.raises(ValueError, match="vector length mismatch"):
            IntegerMatrix.zero(3, 0).apply([0])

    def test_apply_leaves_eq_and_hash_alone(self):
        a, b = mat([[0, 2], [3, 0]]), mat([[0, 2], [3, 0]])
        a.apply([1, 1])
        assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1

    def test_from_cols_matches_the_reference(self):
        rng = random.Random(31)
        for _ in range(80):
            rows, ncols = rng.randint(0, 6), rng.randint(1, 6)
            cols = [[rng.randint(-9, 9) for _ in range(rows)] for _ in range(ncols)]
            explicit = rows if rng.random() < 0.5 else None
            assert IntegerMatrix.from_cols(cols, rows=explicit) == from_cols_by_entries(
                cols, rows=explicit)
        for rows in (None, 0, 3):
            assert IntegerMatrix.from_cols([], rows=rows) == from_cols_by_entries([], rows=rows)
        assert IntegerMatrix.from_cols([range(3), (4, 5, 6)]) == mat([[0, 4], [1, 5], [2, 6]])

    def test_from_cols_rejects_ragged_columns(self):
        for cols, rows in (([[1, 2], [3]], None), ([[1], [2, 3]], None), ([[1, 2]], 3),
                           ([[]], 1)):
            with pytest.raises(ValueError):
                from_cols_by_entries(cols, rows=rows)
            with pytest.raises(ValueError):
                IntegerMatrix.from_cols(cols, rows=rows)

    def test_vstack_matches_the_reference(self):
        rng = random.Random(37)
        for _ in range(80):
            ncols = rng.randint(0, 5)
            blocks = [_sized(rng, rng.randint(0, 4), ncols) for _ in range(rng.randint(1, 4))]
            explicit = ncols if rng.random() < 0.5 else None
            assert vstack(blocks, cols=explicit) == vstack_by_rows(blocks, cols=explicit)
        for ncols in range(4):
            assert vstack([], cols=ncols) == vstack_by_rows([], cols=ncols)

    def test_vstack_keeps_its_errors(self):
        for stack in (vstack, vstack_by_rows):
            with pytest.raises(ValueError, match="needs an explicit column count"):
                stack([])
            with pytest.raises(ValueError, match="column count mismatch"):
                stack([mat([[1, 2]]), mat([[3]])])
            with pytest.raises(ValueError, match="column count mismatch"):
                stack([IntegerMatrix.zero(2, 3), IntegerMatrix.zero(0, 2)], cols=3)


def test_image_basis_spans_columns():
    rng = random.Random(17)
    for _ in range(40):
        a = random_matrix(rng, max_dim=4, lo=-6, hi=6)
        basis = image_basis(a)
        assert lattices_equal(basis, a)
        # basis columns are independent: no zero invariant factors
        d = smith_normal_form(basis).diagonal()
        assert all(x != 0 for x in d)
