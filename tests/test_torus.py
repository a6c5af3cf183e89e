import json
import random

import pytest

from tametorus import galois, lattice, torus
from tametorus.errors import TamenessViolation
from tametorus.galois import GaloisLatticeModule, close_group
from tametorus.lattice import FgAbelianGroup, IntegerMatrix, unimodular_inverse
from tametorus.padic import PadicContext, norm_class
from tametorus.torus import (
    ComponentGroup,
    TameTorusSpec,
    cocharacter_action,
    component_group,
    h1_frobenius,
    norm_torus_spec,
)

from helpers import (
    is_automorphism_by_blocks,
    random_finite_action_module,
    random_presented_endomorphism,
    random_unimodular,
)


def mat(rows):
    return IntegerMatrix.from_rows(rows)


class TestNormTorusSpec:
    def test_degree_one_is_trivial(self):
        spec = norm_torus_spec(1)
        assert spec.rank == 0

    def test_degree_two(self):
        spec = norm_torus_spec(2)
        assert spec.rank == 1
        assert spec.characters.generators == (mat([[-1]]),)

    def test_degree_three_order(self):
        spec = norm_torus_spec(3)
        assert spec.rank == 2
        sigma = spec.characters.generators[0]
        assert not sigma.is_identity()
        assert (sigma @ sigma @ sigma).is_identity()

    def test_action_has_order_e(self):
        for e in range(2, 9):
            sigma = norm_torus_spec(e).characters.generators[0]
            assert close_group([sigma]).order == e

    def test_validated_without_multiplying_out_the_group(self, monkeypatch):
        # The orbit walk's power check is the only product, and sigma^e = I
        # stands in for the determinant.
        counts = {"products": 0, "det": 0}
        matmul, det = IntegerMatrix.__matmul__, IntegerMatrix.det

        def counting(key, fn):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(IntegerMatrix, "__matmul__", counting("products", matmul))
        monkeypatch.setattr(IntegerMatrix, "det", counting("det", det))
        for e in (36, 128, 256):
            counts.update(products=0, det=0)
            spec = norm_torus_spec(e)
            assert counts["products"] <= 2 * e.bit_length()
            assert counts["det"] == 0
            assert spec.characters.full_group.order == e

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            norm_torus_spec(0)

    def test_tameness_enforced(self):
        wild_module = GaloisLatticeModule(
            1, (mat([[-1]]),), inertia=(0,), wild_inertia=(0,)
        )
        with pytest.raises(TamenessViolation):
            TameTorusSpec(wild_module)

    def test_json_norm_shortcut(self):
        spec = TameTorusSpec.from_json_dict({"torus": "norm", "e": 3})
        assert spec.rank == 2


class TestCocharacterAction:
    def test_trivial_action_stays_trivial(self):
        spec = TameTorusSpec(GaloisLatticeModule(2, ()))
        dual = cocharacter_action(spec)
        assert dual.generators == ()

    def test_rank_one_self_dual(self):
        dual = cocharacter_action(norm_torus_spec(2))
        assert dual.generators == (mat([[-1]]),)

    def test_degree_three_dual(self):
        spec = norm_torus_spec(3)
        dual = cocharacter_action(spec)
        sigma_dual = dual.generators[0]
        assert sigma_dual == unimodular_inverse(spec.characters.generators[0]).transpose()
        assert sigma_dual.det() in (1, -1)
        assert (sigma_dual @ sigma_dual @ sigma_dual).is_identity()

    def test_each_distinct_matrix_is_inverted_once(self, monkeypatch):
        # A Frobenius that is also a generator is inverted once, not twice.
        sigma = norm_torus_spec(5).characters.generators[0]
        spec = TameTorusSpec(GaloisLatticeModule(4, (sigma, sigma @ sigma), frobenius=sigma))
        inverted = []

        def counting(m):
            inverted.append(m)
            return unimodular_inverse(m)

        monkeypatch.setattr(torus, "unimodular_inverse", counting)
        dual = cocharacter_action(spec)
        assert inverted == [sigma, sigma @ sigma]
        assert dual.frobenius == unimodular_inverse(sigma).transpose()

    def test_dual_group_is_transposed_character_group(self):
        # g -> g^(-T) maps a finite group onto the transposes of its
        # elements, since the group is closed under inverses.
        rng = random.Random(71)
        for _ in range(25):
            module = random_finite_action_module(rng, rng.randrange(1, 5))
            spec = TameTorusSpec(GaloisLatticeModule(
                module.lattice_rank, module.generators, inertia=module.inertia_indices))
            expected = sorted((g.transpose() for g in spec.characters.full_group.elements),
                              key=lambda m: m.entries)
            assert cocharacter_action(spec).full_group.elements == tuple(expected)


class TestComponentGroup:
    def test_split_rank_one(self):
        spec = TameTorusSpec(GaloisLatticeModule(1, ()))
        cg = component_group(spec)
        assert cg.group == FgAbelianGroup(1)
        assert h1_frobenius(cg).is_trivial

    def test_norm_torus_order_two(self):
        assert component_group(norm_torus_spec(2)).group == FgAbelianGroup(0, (2,))

    def test_norm_torus_order_three(self):
        assert component_group(norm_torus_spec(3)).group == FgAbelianGroup(0, (3,))

    def test_order_matches_degree(self):
        for e in range(1, 13):
            assert component_group(norm_torus_spec(e)).group.order() == e

    def test_split_rank_r(self):
        for r in (0, 2, 3):
            spec = TameTorusSpec(GaloisLatticeModule(r, ()))
            cg = component_group(spec)
            assert cg.group == FgAbelianGroup(r)
            assert h1_frobenius(cg).is_trivial

    def test_base_change_invariance(self):
        rng = random.Random(53)
        for e in (2, 3, 4, 6):
            spec = norm_torus_spec(e)
            base = component_group(spec).group
            n = spec.rank
            w = random_unimodular(rng, n)
            w_inv = unimodular_inverse(w)
            conjugated = GaloisLatticeModule(
                n,
                tuple(w @ g @ w_inv for g in spec.characters.generators),
                inertia=spec.characters.inertia_indices,
                wild_inertia=spec.characters.wild_indices,
                frobenius=w @ spec.characters.effective_frobenius() @ w_inv,
            )
            assert component_group(TameTorusSpec(conjugated)).group == base

    def test_one_closure_and_at_most_four_snfs(self, monkeypatch):
        counts = {"snf": 0, "closure": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(lattice, "smith_normal_form",
                            counting("snf", lattice.smith_normal_form))
        monkeypatch.setattr(galois, "close_group", counting("closure", galois.close_group))
        for e in (2, 6, 36):
            counts.update(snf=0, closure=0)
            assert h1_frobenius(component_group(norm_torus_spec(e))) == FgAbelianGroup(0, (e,))
            assert counts["closure"] == 1
            assert counts["snf"] <= 4

    def test_frobenius_action_is_validated(self):
        with pytest.raises(ValueError):
            ComponentGroup(FgAbelianGroup(1), mat([[2]]))
        with pytest.raises(ValueError):
            # multiplication by 2 is not surjective on Z/4
            ComponentGroup(FgAbelianGroup(0, (4,)), mat([[2]]))

    def test_automorphism_check_matches_block_reference(self):
        rng = random.Random(19493)
        verdicts = set()
        for _ in range(3000):
            group, matrix = random_presented_endomorphism(rng)
            try:
                ComponentGroup(group, matrix)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "frobenius_action is not an automorphism"
                accepted = False
            assert accepted == is_automorphism_by_blocks(group, matrix), (group, matrix)
            verdicts.add(accepted)
        assert verdicts == {True, False}


class TestH1Frobenius:
    def test_component_of_order_two(self):
        cg = ComponentGroup(FgAbelianGroup(0, (2,)), IntegerMatrix.identity(1))
        assert h1_frobenius(cg) == FgAbelianGroup(0, (2,))

    def test_free_component_vanishes(self):
        cg = ComponentGroup(FgAbelianGroup(1), IntegerMatrix.identity(1))
        assert h1_frobenius(cg).is_trivial

    def test_cyclic_e_with_trivial_frobenius(self):
        for e in (2, 3, 4, 6, 12):
            cg = ComponentGroup(FgAbelianGroup(0, (e,)), IntegerMatrix.identity(1))
            assert h1_frobenius(cg) == FgAbelianGroup(0, (e,))


def test_nontrivial_frobenius_on_component_group():
    # inertia = <-1> on Z^2 gives Phi = (Z/2)^2; Frobenius = swap descends
    # to the swap on (Z/2)^2, whose coinvariants have order 2
    module = GaloisLatticeModule(
        2,
        (IntegerMatrix.from_rows([[-1, 0], [0, -1]]), mat([[0, 1], [1, 0]])),
        inertia=(0,),
        frobenius=mat([[0, 1], [1, 0]]),
    )
    cg = component_group(TameTorusSpec(module))
    assert cg.group == FgAbelianGroup(0, (2, 2))
    assert not cg.frobenius_action.is_identity()
    assert h1_frobenius(cg) == FgAbelianGroup(0, (2,))


def test_spec_json_roundtrip_keeps_the_component_group():
    swap = mat([[0, 1], [1, 0]])
    module = GaloisLatticeModule(2, (mat([[-1, 0], [0, -1]]), swap), inertia=(0,),
                                 frobenius=swap)
    for spec in (norm_torus_spec(6), TameTorusSpec(module)):
        doc = json.loads(json.dumps(spec.to_json_dict()))
        back = TameTorusSpec.from_json_dict(doc)
        assert back.to_json_dict() == doc
        cg, cg_back = component_group(spec), component_group(back)
        assert cg_back == cg
        assert h1_frobenius(cg_back) == h1_frobenius(cg)


def test_cardinality_bridge_small():
    # lattice-side |H^1(k, Phi)| equals the number of distinct norm classes
    for p, e in [(5, 2), (7, 3)]:
        cg = component_group(norm_torus_spec(e))
        h1 = h1_frobenius(cg)
        ctx = PadicContext(p, 5)
        seen = set()
        for alpha in (0, 1):
            for u in range(1, p):
                seen.add(norm_class(ctx.integer(p**alpha * u), e).value)
        assert len(seen) == e == h1.order()
