import random
import re
import time

import pytest

from tametorus import galois, lattice
from tametorus.errors import ClosureCapExceeded, InfiniteOrder, NotUnimodular
from tametorus.galois import (
    GaloisLatticeModule,
    check_presented_endomorphism,
    close_group,
    coinvariants,
    cyclic_h1,
    endomorphism_order,
    invariants,
    largest_trivial_free_quotient,
)
from tametorus.lattice import (
    FgAbelianGroup,
    IntegerMatrix,
    kernel_basis,
    smith_normal_form,
    solve_matrix,
    unimodular_inverse,
    vstack,
)
from tametorus.torus import norm_torus_spec

from helpers import (
    closure_by_products,
    conjugated_cycles,
    h1_by_trace_kernel,
    is_endomorphism_by_conditions,
    order_by_powers,
    random_endomorphism_candidate,
    random_finite_action_module,
    random_order_bounded_action,
    random_presented_endomorphism,
    random_signed_permutation,
    random_unimodular,
)


def mat(rows):
    return IntegerMatrix.from_rows(rows)


SWAP = mat([[0, 1], [1, 0]])
ORDER3 = mat([[-1, -1], [1, 0]])  # cube is the identity
NEG1 = mat([[-1]])


def _permutation(cycles) -> IntegerMatrix:
    image = []
    for c in cycles:
        image += [len(image) + (i + 1) % c for i in range(c)]
    n = len(image)
    return mat([[int(image[j] == i) for j in range(n)] for i in range(n)])


# One permutation of rank 30 with cycles 3, 4, 5, 7, 11 (order 4620).
_ORDER_4620 = _permutation((3, 4, 5, 7, 11))


def _unipotent(n: int) -> IntegerMatrix:
    # I with row 3 set to (2, -1, 1, 0, ...): it fixes (1, ..., n), and its
    # powers I + j (g - I) never come back to I.
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[2][:3] = [2, -1, 1]
    return mat(rows)


def _conjugate_fixing_the_start_at_its_square(rng) -> IntegerMatrix:
    # g = q P q^-1 with P = (0 1)(2 3 4) on Z^5 and q^-1 (1, ..., 5) = u
    # constant on the 3-cycle, so g moves (1, ..., 5) and g^2 fixes it: its
    # order 6 takes a second level.  q = E W, both of determinant 1: E =
    # I + (v - u) e_0^T sends u to v = (1, ..., 5) (u_0 = v_0 = 1), and
    # W = I + x y^T fixes u (y.u = y.x = 0).
    c = rng.randint(-9, 9)
    u = [1, rng.choice((-7, -2, 0, 3, 5)), c, c, c]
    y = [rng.randint(-3, 3) for _ in range(4)] + [1]
    y[0] -= sum(a * b for a, b in zip(y, u))
    x = [rng.randint(-3, 3) for _ in range(4)] + [0]
    x[4] = -sum(a * b for a, b in zip(x, y))
    e = mat([[int(i == j) + (j == 0) * (i + 1 - u[i]) for j in range(5)] for i in range(5)])
    w = mat([[int(i == j) + x[i] * y[j] for j in range(5)] for i in range(5)])
    q = e @ w
    return q @ _permutation((2, 3)) @ unimodular_inverse(q)


def _orbit_length(g: IntegerMatrix) -> int:
    start = point = tuple(range(1, g.rows + 1))
    length = 0
    while True:
        point, length = g.apply(point), length + 1
        if point == start:
            return length


def _two_level_matrix() -> IntegerMatrix:
    # [[-1, 1], [0, 1]] fixes (1, 2) and has order 2.  The 2x2 block below
    # it is [[-1, -1], [1, 0]], of order 3, conjugated by [[1, B], [0, 1]]:
    # entries of two words.  The orbit of (1, 2, 3, 4) has 3 points, and the
    # cube, of one-word entries and fewer nonzeros, moves e_0, so the order
    # 6 is read off two levels.
    b = 2 ** 40
    return mat([[-1, 1, 0, 0], [0, 1, 0, 0], [0, 0, b - 1, -b * b + b - 1], [0, 0, 1, -b]])


def _count_products(monkeypatch) -> list:
    products = []
    matmul = IntegerMatrix.__matmul__
    monkeypatch.setattr(IntegerMatrix, "__matmul__",
                        lambda a, b: products.append(1) or matmul(a, b))
    return products


class TestCloseGroup:
    def test_identity_only(self):
        assert close_group([IntegerMatrix.identity(3)]).order == 1

    def test_swap_involution(self):
        assert close_group([SWAP]).order == 2

    def test_order_three(self):
        g = ORDER3
        assert (g @ g @ g).is_identity()
        assert close_group([g]).order == 3

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            close_group([mat([[2]])])
        with pytest.raises(NotUnimodular):  # its orbit of (1, 2) meets (0, 0) twice
            close_group([mat([[0, 1], [0, 0]])])

    def test_cap(self):
        # the shear [[1,1],[0,1]] generates an infinite group
        with pytest.raises(ClosureCapExceeded):
            close_group([mat([[1, 1], [0, 1]])])

    def test_contains_inverses(self):
        grp = close_group([ORDER3])
        inv = unimodular_inverse(ORDER3)
        assert inv in grp

    def test_repeated_generators_cost_one_orbit_walk(self, monkeypatch):
        g = _ORDER_4620
        products = _count_products(monkeypatch)
        groups, counts = [], []
        for gens in ([g], [g] * 4, [g, IntegerMatrix.identity(30)]):
            products.clear()
            groups.append(close_group(gens))
            counts.append(len(products))
            assert groups[-1].generators == tuple(gens)
            assert groups[-1].order == 4620
        assert counts[0] == counts[1] == counts[2] <= 2 * (4620).bit_length()
        assert groups[0].elements == groups[1].elements == groups[2].elements

    def test_generators_inside_the_first_ones_group_are_dropped(self, monkeypatch):
        # Dimino's first rule: g, g^2, ..., g^8 close like g alone.
        g = _ORDER_4620
        gens = [g]
        for _ in range(7):
            gens.append(gens[-1] @ g)
        products = _count_products(monkeypatch)
        group = close_group(gens)
        bound = 2 * (4620).bit_length() + sum(2 * j.bit_length() for j in range(2, 9))
        assert len(products) <= bound
        assert group.generators == tuple(gens)
        assert group.order == 4620
        assert group.elements == closure_by_products([g]).elements

    def test_a_generator_outside_takes_the_breadth_first_walk(self, monkeypatch):
        cycle = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        flip = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        products = _count_products(monkeypatch)
        reference = closure_by_products([cycle, flip])
        by_products = len(products)
        products.clear()
        group = close_group([cycle, flip])
        # Only the orbit walk's power check of the 3-cycle comes on top.
        assert by_products <= len(products) <= by_products + 2 * (3).bit_length()
        assert group.order == 6
        assert group.elements == reference.elements

    def test_determinants_only_of_distinct_non_identity_generators(self, monkeypatch):
        dets = []
        det = IntegerMatrix.det
        monkeypatch.setattr(IntegerMatrix, "det", lambda m: dets.append(m) or det(m))
        for n in (1, 3, 40):
            assert close_group([IntegerMatrix.identity(n)]).order == 1
        assert dets == []
        cycle = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        flip = mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        group = close_group([cycle, cycle, IntegerMatrix.identity(3), flip])
        assert dets == [cycle, flip]
        assert group.elements == close_group([cycle, flip]).elements

    def test_the_first_non_unit_generator_names_the_error(self):
        for gens in ([SWAP, mat([[2, 0], [0, 1]]), mat([[3, 0], [0, 1]])],
                     [IntegerMatrix.identity(2), SWAP, mat([[-2, 0], [0, 1]])]):
            with pytest.raises(NotUnimodular) as info:
                close_group(gens)
            with pytest.raises(NotUnimodular) as by_products:
                closure_by_products(gens)
            assert str(info.value) == str(by_products.value)

    def test_cap_counts_words_of_large_entries(self):
        # A shear whose entries start past one machine word: the word budget
        # stops it long before the element cap.
        shear = IntegerMatrix.identity(4) + mat([[0, 0, 0, 2 ** 20000]] + [[0] * 4] * 3)
        start = time.perf_counter()
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([shear])
        assert time.perf_counter() - start < 1.0
        assert int(re.search(r"(\d+) elements", str(info.value)).group(1)) < 10_000


class TestCyclicClosureAgainstProducts:
    """One generator, read off an orbit, against the closure that
    multiplies out every element."""

    @staticmethod
    def assert_same_group(g, rng):
        ref = closure_by_products([g])
        with pytest.MonkeyPatch.context() as patch:  # one generator walks no closure
            patch.setattr(galois, "_closure_walk", lambda *args: pytest.fail("closure walked"))
            got = close_group([g])
            assert got.order == ref.order
            members = list(ref.elements)
            assert all(m in got for m in members)
            others = [random_signed_permutation(rng, g.rows) for _ in range(10)]
            others += [m.scale(2) for m in members[:3]] + [IntegerMatrix.identity(g.rows + 1)]
            for m in others:
                assert (m in got) == (m in ref)
        assert got.elements == ref.elements  # reading them walks the closure
        return got

    def test_signed_permutations(self):
        rng = random.Random(20_2611)
        for _ in range(40):
            n = rng.randrange(1, 9)
            q = random_unimodular(rng, n, steps=4)
            self.assert_same_group(q @ random_signed_permutation(rng, n) @ unimodular_inverse(q),
                                   rng)

    def test_order_bounded_actions_on_free_groups(self):
        rng = random.Random(11_2611)
        drawn = 0
        while drawn < 40:
            action = random_order_bounded_action(rng)
            if action is None or action[0].invariant_factors:
                continue
            drawn += 1
            self.assert_same_group(action[1], rng)

    def test_dense_conjugates(self, monkeypatch):
        rng = random.Random(5_2611)
        dets = []
        det = IntegerMatrix.det
        monkeypatch.setattr(IntegerMatrix, "det", lambda m: dets.append(1) or det(m))
        for cycles in ([2, 3], [4, 4, 1], [5, 2], [6]):
            g = conjugated_cycles(rng, cycles)
            dets.clear()
            self.assert_same_group(g, rng)
            assert len(dets) == 1  # the reference's; the orbit walk needs none

    def test_orbit_entries_past_63_bits_fall_back(self, monkeypatch):
        g = conjugated_cycles(random.Random(1), [2, 3, 4], scale=2 ** 26)
        orbit, point = [], tuple(range(1, 10))
        for _ in range(12):
            point = g.apply(point)
            orbit.extend(point)
        assert max(map(abs, g.entries)).bit_length() <= 63
        assert max(map(abs, orbit)).bit_length() > 63
        dets = []
        det = IntegerMatrix.det
        monkeypatch.setattr(IntegerMatrix, "det", lambda m: dets.append(1) or det(m))
        assert self.assert_same_group(g, random.Random(2)).order == 12
        assert len(dets) == 2  # the reference's and the walk's, once a point passed 63 bits

    def test_starts_fixed_by_g_take_further_levels(self):
        # g != I fixes (1, ..., n), or g^2 does: the chain walks the basis
        # next, and membership sifts through both levels.
        rng = random.Random(16_2611)
        gens = [mat([[-1, 1, 0], [0, 1, 0], [0, 0, 1]])]
        gens += [_conjugate_fixing_the_start_at_its_square(rng) for _ in range(8)]
        for g in gens:
            got = self.assert_same_group(g, rng)
            assert _orbit_length(g) < got.order == (2 if g.rows == 3 else 6)

    def test_a_unipotent_generator_fixing_the_start_walks_no_closure(self, monkeypatch):
        monkeypatch.setattr(galois, "_closure_walk", lambda *args: pytest.fail("closure walked"))
        start = time.perf_counter()
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([_unipotent(64)])
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == "closure of rank 64 exceeded 4064 elements"
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([_unipotent(256)])
        assert str(info.value) == "closure of rank 256 exceeded 254 elements"

    def test_non_unit_determinant_stops_within_64_steps(self, monkeypatch):
        steps = []
        apply = IntegerMatrix.apply
        monkeypatch.setattr(IntegerMatrix, "apply", lambda m, v: steps.append(1) or apply(m, v))
        with pytest.raises(NotUnimodular) as info:
            close_group([mat([[2]])])
        assert len(steps) <= 64
        assert str(info.value) == "generator determinant 2 is not a unit"

    def test_an_orbit_past_the_limit_needs_no_closure(self, monkeypatch):
        # Order 2 * 3 * ... * 23 at rank 100: the orbit passes the 1664
        # points the word cap admits, and the error reads as the closure's
        # would, with no element multiplied out.
        monkeypatch.setattr(galois, "_closure_walk", lambda *args: pytest.fail("closure walked"))
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([_permutation((2, 3, 5, 7, 11, 13, 17, 19, 23))])
        assert str(info.value) == "closure of rank 100 exceeded 1664 elements"

    def test_a_non_unit_past_the_orbit_limit_is_reported_first(self):
        # The companion matrix of x^100 - 2: its orbit doubles every 100
        # steps, so it passes the 1664-point limit with entries far below
        # 63 bits, and its determinant still decides the error.
        n = 100
        companion = mat([[2 if (i, j) == (0, n - 1) else int(i == j + 1) for j in range(n)]
                         for i in range(n)])
        with pytest.raises(NotUnimodular) as info:
            close_group([companion])
        assert str(info.value) == "generator determinant -2 is not a unit"

    def test_shear_detail_unchanged(self):
        shear = mat([[1, 1], [0, 1]])
        details = []
        for closure in (closure_by_products, close_group):
            with pytest.raises(ClosureCapExceeded) as info:
                closure([shear])
            details.append(str(info.value))
        assert details[0] == details[1] == "closure of rank 2 exceeded 10000 elements"

    def test_a_finite_group_past_the_cap(self):
        # <8-cycle, transposition> is S_8, of order 40320: the breadth-first
        # walk stops at the cap.
        gens = [_permutation([8]), _permutation([2, 1, 1, 1, 1, 1, 1])]
        details = []
        for closure in (closure_by_products, close_group):
            with pytest.raises(ClosureCapExceeded) as info:
                closure(gens)
            details.append(str(info.value))
        assert details[0] == details[1] == "closure of rank 8 exceeded 10000 elements"

    def test_the_budget_can_run_out_inside_a_power_check(self, monkeypatch):
        # The orbit walk of the 5-cycle fits in 60 work units, but the check
        # that its fifth power is I does not.
        monkeypatch.setattr(galois, "ORDER_WORK_CAP", 60)
        cycle = _permutation([5])
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([cycle])
        assert str(info.value) == "closure of rank 5 exceeded 4 elements"
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.free(5), cycle)
        assert str(info.value) == ("no power up to 4 of the rank-5 matrix acts as the "
                                   "identity within 60 work units")

    @pytest.mark.parametrize("make, total, order, proved", [
        (lambda: norm_torus_spec(35).characters.generators[0], 27573, 35, 34),
        (_two_level_matrix, 252, 6, 5),
    ], ids=["sigma-35", "two-levels"])
    def test_the_budget_charges_exact_work_units(self, monkeypatch, make, total, order, proved):
        # `total` is every unit one order decision charges: the orbit walks,
        # each step at the words and nonzeros of the level's generator, and
        # the power checks' products, each at the words and zero count of
        # its factors.  With exactly that budget the call succeeds; with one
        # unit less the last product is refused.  sigma at e = 35 takes one
        # level, the second matrix two.
        m = make()
        rank = m.rows
        monkeypatch.setattr(galois, "ORDER_WORK_CAP", total)
        assert close_group([m]).order == order
        assert endomorphism_order(FgAbelianGroup.free(rank), m) == order
        monkeypatch.setattr(galois, "ORDER_WORK_CAP", total - 1)
        with pytest.raises(ClosureCapExceeded) as info:
            close_group([m])
        assert str(info.value) == f"closure of rank {rank} exceeded {proved} elements"
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.free(rank), m)
        assert str(info.value) == (f"no power up to {proved} of the rank-{rank} matrix acts as "
                                   f"the identity within {total - 1} work units")


class TestOneOrder:
    """close_group and endomorphism_order read g's order off the same rounds."""

    def test_finite_orders_agree(self):
        from tametorus.torus import norm_torus_spec

        rng = random.Random(16_2612)
        gens = [norm_torus_spec(e).characters.generators[0] for e in range(2, 41)]
        for _ in range(30):
            n = rng.randrange(1, 9)
            q = random_unimodular(rng, n, steps=4)
            gens.append(q @ random_signed_permutation(rng, n) @ unimodular_inverse(q))
        gens += [conjugated_cycles(rng, c) for c in ([2, 3], [4, 4, 1], [5, 2], [6], [2, 3, 4])]
        gens += [_conjugate_fixing_the_start_at_its_square(rng) for _ in range(4)]
        for g in gens:
            assert close_group([g]).order == endomorphism_order(FgAbelianGroup.free(g.rows), g)

    def test_infinite_orders_agree(self):
        for g in (mat([[1, 1], [0, 1]]), _unipotent(5)):
            with pytest.raises(ClosureCapExceeded):
                close_group([g])
            with pytest.raises(InfiniteOrder):
                endomorphism_order(FgAbelianGroup.free(g.rows), g)


class TestModuleValidation:
    def test_wild_must_lie_in_inertia(self):
        with pytest.raises(ValueError):
            GaloisLatticeModule(2, (SWAP,), inertia=(), wild_inertia=(0,))

    def test_frobenius_must_normalize_inertia(self):
        # F of infinite order conjugates the swap outside its own closure
        f = mat([[1, 1], [0, 1]])
        with pytest.raises(ValueError):
            GaloisLatticeModule(2, (SWAP,), inertia=(0,), frobenius=f)

    def test_frobenius_must_be_unimodular(self):
        with pytest.raises(NotUnimodular):
            GaloisLatticeModule(1, (NEG1,), inertia=(0,), frobenius=mat([[3]]))

    def test_json_roundtrip(self):
        m = GaloisLatticeModule(2, (SWAP, ORDER3), inertia=(0, 1), wild_inertia=(0,),
                                frobenius=IntegerMatrix.identity(2))
        # wild = <swap> is inside inertia = <swap, order3> (full GL2 subgroup)
        back = GaloisLatticeModule.from_json_dict(m.to_json_dict())
        assert back.generators == m.generators
        assert back.inertia_indices == m.inertia_indices
        assert back.wild_indices == m.wild_indices
        assert back.frobenius == m.frobenius


    def test_infinite_action_rejected_by_constructor(self):
        with pytest.raises(ClosureCapExceeded):
            GaloisLatticeModule(2, (mat([[1, 1], [0, 1]]),))

    def test_each_generator_tuple_closed_once(self, monkeypatch):
        calls = []

        def counting_close_group(gens, **kwargs):
            calls.append(tuple(gens))
            return close_group(gens, **kwargs)

        monkeypatch.setattr(galois, "close_group", counting_close_group)
        m = GaloisLatticeModule(2, (SWAP,), inertia=(0,), frobenius=IntegerMatrix.identity(2))
        assert calls == [(SWAP,)]
        assert m.inertia_group is m.full_group
        assert m.wild_group.order == 1
        assert m.wild_group is m.wild_group
        assert calls == [(SWAP,), ()]


class TestCoinvariants:
    def test_trivial_subgroup_gives_full_lattice(self):
        m = GaloisLatticeModule(3, (random_signed_permutation(random.Random(0), 3),))
        q = coinvariants(m, "wild_inertia")
        assert q.group == FgAbelianGroup(3)

    def test_sign_action(self):
        m = GaloisLatticeModule(1, (NEG1,), inertia=(0,))
        assert coinvariants(m, "inertia").group == FgAbelianGroup(0, (2,))

    def test_augmentation_ideal_order_three(self):
        m = GaloisLatticeModule(2, (ORDER3,), inertia=(0,))
        q = coinvariants(m, "inertia")
        assert q.group == FgAbelianGroup(0, (3,))
        # determinant of (sigma - 1) is 3
        assert abs((ORDER3 - IntegerMatrix.identity(2)).det()) == 3

    def test_generating_set_independence(self):
        rng = random.Random(29)
        for _ in range(25):
            rank = rng.randrange(1, 4)
            module = random_finite_action_module(rng, rank)
            base = coinvariants(module, "full").group
            gens = list(module.generators)
            g = gens[0]
            h = rng.choice(module.full_group.elements)
            replaced = GaloisLatticeModule(rank, [g, g @ h] + gens[1:])
            # {g, g*h, rest} generates the same group whenever h does;
            # draw h from the closure of the original generators.
            assert coinvariants(replaced, "full").group == base

    def test_duality_rank_equals_free_rank(self):
        rng = random.Random(31)
        for _ in range(30):
            rank = rng.randrange(1, 5)
            module = random_finite_action_module(rng, rank)
            for sub in ("full", "inertia", "wild_inertia"):
                fixed = invariants(module, sub)
                q = coinvariants(module, sub)
                assert fixed.cols == q.group.free_rank


class TestInvariants:
    def test_trivial_action(self):
        m = GaloisLatticeModule(2, ())
        assert invariants(m, "full").cols == 2

    def test_swap_fixed_line(self):
        m = GaloisLatticeModule(2, (SWAP,), inertia=(0,))
        basis = invariants(m, "inertia")
        assert basis.cols == 1
        assert tuple(basis.col(0)) in ((1, 1), (-1, -1))

    def test_sign_has_no_fixed_vectors(self):
        m = GaloisLatticeModule(1, (NEG1,))
        assert invariants(m, "full").cols == 0


class TestLargestTrivialFreeQuotient:
    def test_trivial_wild_gives_whole_lattice(self):
        m = GaloisLatticeModule(3, (random_signed_permutation(random.Random(1), 3),))
        q = largest_trivial_free_quotient(m)
        assert q.group == FgAbelianGroup(3)

    def test_sign_action_kills_everything(self):
        m = GaloisLatticeModule(1, (NEG1,), inertia=(0,), wild_inertia=(0,))
        assert largest_trivial_free_quotient(m).group.is_trivial

    def test_swap_leaves_a_line(self):
        m = GaloisLatticeModule(2, (SWAP,), inertia=(0,), wild_inertia=(0,))
        q = largest_trivial_free_quotient(m)
        assert q.group == FgAbelianGroup(1)

    def test_structure_properties(self):
        rng = random.Random(37)
        for _ in range(25):
            rank = rng.randrange(1, 5)
            module = random_finite_action_module(rng, rank)
            q = largest_trivial_free_quotient(module)
            proj = q.projection
            assert q.group.invariant_factors == ()
            # surjective: the projection has a right inverse over Z
            assert all(d == 1 for d in smith_normal_form(proj).diagonal())
            ident = IntegerMatrix.identity(rank)
            for g in module.subgroup_generators("wild_inertia"):
                assert (proj @ (g - ident)).is_zero()

    def test_wild_generators_descend_to_identity(self):
        rng = random.Random(47)
        for _ in range(15):
            rank = rng.randrange(1, 4)
            module = random_finite_action_module(rng, rank)
            q = largest_trivial_free_quotient(module)
            for g in module.subgroup_generators("wild_inertia"):
                descended = q.descend(g)
                assert descended.is_identity()

    def test_full_group_descends_when_wild_is_everything(self):
        # with every generator marked wild, the relation lattice is stable
        # under the whole group, so each generator pushes to the quotient
        rng = random.Random(59)
        for _ in range(15):
            rank = rng.randrange(1, 4)
            gens = (random_signed_permutation(rng, rank),
                    random_signed_permutation(rng, rank))
            module = GaloisLatticeModule(rank, gens, inertia=(0, 1), wild_inertia=(0, 1))
            q = largest_trivial_free_quotient(module)
            k = q.group.free_rank
            for g in gens:
                descended = q.descend(g)
                assert descended.rows == descended.cols == k
                assert descended.is_identity()

    def test_universal_property(self):
        # any hom to a free module killed by the wild action factors through
        # the projection, exactly over Z
        rng = random.Random(41)
        for _ in range(25):
            rank = rng.randrange(1, 5)
            module = random_finite_action_module(rng, rank)
            q = largest_trivial_free_quotient(module)
            ident = IntegerMatrix.identity(rank)
            wild = module.subgroup_generators("wild_inertia")
            stacked = vstack([(g - ident).transpose() for g in wild], cols=rank)
            row_space = kernel_basis(stacked)  # columns are the valid hom rows
            for _ in range(3):
                r = rng.randrange(0, 3)
                hom_rows = []
                for _ in range(r):
                    combo = [rng.randint(-3, 3) for _ in range(row_space.cols)]
                    hom_rows.append(list(row_space.apply(combo)))
                hom = IntegerMatrix.from_rows(hom_rows, cols=rank)
                for g in wild:
                    assert (hom @ (g - ident)).is_zero()
                factor = solve_matrix(q.projection.transpose(), hom.transpose())
                assert factor is not None
                assert factor.transpose() @ q.projection == hom


class TestPresentedEndomorphism:
    def test_matches_two_condition_reference(self):
        rng = random.Random(5_2026)
        verdicts = []
        for _ in range(3000):
            group, matrix = random_endomorphism_candidate(rng)
            try:
                check_presented_endomorphism(group, matrix)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == is_endomorphism_by_conditions(group, matrix), (group, matrix)
            verdicts.append(accepted)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_presented_endomorphism(FgAbelianGroup(1, (2,)), IntegerMatrix.identity(1))


class TestCyclicH1:
    def test_finite_trivial_action(self):
        assert cyclic_h1(FgAbelianGroup.cyclic(2), IntegerMatrix.identity(1)) \
            == FgAbelianGroup(0, (2,))

    def test_free_trivial_action_vanishes(self):
        assert cyclic_h1(FgAbelianGroup.free(1), IntegerMatrix.identity(1)).is_trivial

    def test_free_sign_action(self):
        assert cyclic_h1(FgAbelianGroup.free(1), NEG1) == FgAbelianGroup(0, (2,))

    def test_trivial_group(self):
        assert cyclic_h1(FgAbelianGroup.trivial(), IntegerMatrix.identity(0)).is_trivial

    def test_infinite_order_detected(self):
        with pytest.raises(InfiniteOrder):
            cyclic_h1(FgAbelianGroup.free(2), mat([[1, 1], [0, 1]]))

    def test_endomorphism_validation(self):
        # a torsion generator may not map into the free part
        with pytest.raises(ValueError):
            cyclic_h1(FgAbelianGroup(1, (2,)), mat([[1, 0], [1, 1]]))

    def test_conjugation_invariance_on_free_groups(self):
        rng = random.Random(43)
        for _ in range(25):
            k = rng.randrange(1, 4)
            f = random_signed_permutation(rng, k)
            base = cyclic_h1(FgAbelianGroup.free(k), f)
            w = random_unimodular(rng, k)
            conj = w @ f @ unimodular_inverse(w)
            assert cyclic_h1(FgAbelianGroup.free(k), conj) == base

    def test_mixed_group_with_shear(self):
        # Z/2 (+) Z with F fixing the torsion generator and shearing the free
        # generator into it.  By hand: (F-1)A = <(1,0)>, so A/(F-1)A = Z is
        # torsion-free and H^1 = 0.
        group = FgAbelianGroup(1, (2,))
        f = mat([[1, 1], [0, 1]])
        assert endomorphism_order(group, f) == 2
        assert cyclic_h1(group, f).is_trivial

    def test_one_snf_per_call(self, monkeypatch):
        calls = []
        snf = lattice.smith_normal_form
        monkeypatch.setattr(lattice, "smith_normal_form", lambda a: calls.append(a) or snf(a))
        assert cyclic_h1(FgAbelianGroup(1, (2,)), mat([[1, 1], [0, 1]])).is_trivial
        assert len(calls) == 1

    def test_agrees_with_trace_kernel_reference(self):
        rng = random.Random(3_2026)
        actions = with_free = 0
        while actions < 400:
            drawn = random_order_bounded_action(rng)
            if drawn is None:
                continue
            group, f = drawn
            try:
                endomorphism_order(group, f, cap=6)
            except InfiniteOrder:
                continue
            actions += 1
            with_free += group.free_rank > 0
            assert cyclic_h1(group, f) == h1_by_trace_kernel(group, f), (group, f)
        assert with_free > actions // 2

    def test_finite_group_sign_action(self):
        # Z/5 with F = -1: (F-1) = -2 is invertible mod 5, so H^1 = 0
        assert cyclic_h1(FgAbelianGroup.cyclic(5), mat([[-1]])).is_trivial

    def test_regular_representation_is_cohomologically_trivial(self):
        # the cyclic shift on Z^m is the regular representation of Z/m;
        # coinduced modules have vanishing H^1; at rank 255 each power is
        # sparse, and the order loop's work bound must let all 255 through
        for m in (2, 3, 4, 5, 6, 255):
            shift = IntegerMatrix.from_rows(
                [[1 if j == (i - 1) % m else 0 for j in range(m)] for i in range(m)]
            )
            assert cyclic_h1(FgAbelianGroup.free(m), shift).is_trivial

    def test_quotient_of_group_ring_by_trace(self):
        # Z[G]/(N) for G cyclic of order m: the long exact sequence of
        # 0 -> Z[G]/(N) ~ I_G -> Z[G] -> Z -> 0 gives H^1 = Z/m
        from tametorus.torus import norm_torus_spec

        for m in (2, 3, 4, 5, 6, 7, 128):
            sigma = norm_torus_spec(m).characters.generators[0]
            got = cyclic_h1(FgAbelianGroup.free(m - 1), sigma)
            assert got == FgAbelianGroup(0, (m,))


class TestEndomorphismOrder:
    def test_agrees_with_successive_powers(self):
        rng = random.Random(7_2611)
        orders = set()
        for i in range(600):
            draw = random_order_bounded_action if i % 2 else random_presented_endomorphism
            drawn = draw(rng)
            if drawn is None:
                continue
            group, f = drawn
            expected = order_by_powers(group, f, 12)
            try:
                got = endomorphism_order(group, f, cap=12)
            except InfiniteOrder:
                got = None
            assert got == expected, (group, f)
            orders.add(got)
        assert None in orders and {1, 2, 3, 4, 6} <= orders

    def test_dense_rank_128_conjugate_of_a_128_cycle(self):
        # Every entry nonzero, so taking successive powers stops after 48 of
        # them at ORDER_WORK_CAP; the orbit walk answers with 7 squarings.
        f = conjugated_cycles(random.Random(0), [128])
        assert 0 not in f.entries
        assert endomorphism_order(FgAbelianGroup.free(128), f) == 128

    def test_a_walk_that_cannot_decide_falls_back_unchanged(self):
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.free(2), mat([[1, 1], [0, 1]]))
        assert str(info.value) == "no power up to 10000 acts as the identity"
        with pytest.raises(InfiniteOrder):
            endomorphism_order(FgAbelianGroup.cyclic(4), mat([[2]]))

    @pytest.mark.parametrize("group, f, det", [
        (FgAbelianGroup.free(64), IntegerMatrix.identity(64).scale(2), 2 ** 64),
        (FgAbelianGroup.free(16), mat([[1 + (i == j) for j in range(16)] for i in range(16)]), 17),
        (FgAbelianGroup.free(48), mat([[1 + (i == j) for j in range(48)] for i in range(48)]), 49),
        (FgAbelianGroup(1, (2,)), mat([[1, 1], [0, 3]]), 3),
    ], ids=["2I-rank-64", "ones-plus-I-rank-16", "ones-plus-I-rank-48", "mixed-free-3"])
    def test_a_free_block_of_non_unit_determinant_stops_the_walk(self, group, f, det):
        # Torsion maps to torsion, so a finite order needs the free block's
        # determinant to be +/-1; it is taken once a point passes one word.
        start = time.perf_counter()
        with pytest.raises(InfiniteOrder) as info:
            cyclic_h1(group, f)
        assert time.perf_counter() - start < 0.2
        assert str(info.value) == (f"the rank-{f.rows} matrix is not invertible on the group: "
                                   f"its free block has determinant {det}")

    def test_a_walk_that_meets_a_point_twice_names_non_injectivity(self):
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.cyclic(4), mat([[2]]))
        assert str(info.value) == ("the rank-1 matrix is not invertible on the group: "
                                   "a walk met a point twice")

    @pytest.mark.parametrize("n", [2, 1000])
    def test_an_orbit_that_closes_short_of_the_order_takes_another_round(self, monkeypatch, n):
        # On Z/n (+) Z, F = [[1, 1], [0, 1]] has order n, but the walk of
        # (1, 2) comes back after n / 2 steps (F fixes it when n = 2).  The
        # next round walks (0, 1) under F^(n/2), back after 2 steps.
        products = _count_products(monkeypatch)
        assert endomorphism_order(FgAbelianGroup(1, (n,)), mat([[1, 1], [0, 1]])) == n
        # Only the rounds' power checks multiply: F^(n/2), then its square.
        assert len(products) <= 2 * (n // 2).bit_length() + 1

    def test_cap_is_read_as_an_integer(self):
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.free(2), mat([[1, 1], [0, 1]]), cap=True)
        assert str(info.value) == "no power up to 1 acts as the identity"

    def test_one_call_charges_one_budget(self, monkeypatch):
        # Under the shear on Z^2 a walk step costs 2 + 3 units (the rank and
        # the nonzero entries) and a product with a power of it 2 * (2 + 3).
        monkeypatch.setattr(galois, "ORDER_WORK_CAP", 1000)
        steps = []
        apply = IntegerMatrix.apply
        monkeypatch.setattr(IntegerMatrix, "apply", lambda m, v: steps.append(1) or apply(m, v))
        products = _count_products(monkeypatch)
        with pytest.raises(InfiniteOrder) as info:
            endomorphism_order(FgAbelianGroup.free(2), mat([[1, 1], [0, 1]]))
        assert 5 * len(steps) + 10 * len(products) <= 1000
        assert str(info.value) == ("no power up to 200 of the rank-2 matrix acts as the "
                                   "identity within 1000 work units")
