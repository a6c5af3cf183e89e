"""Tame tori from character-lattice data: the component group of the
Néron model for the supported family, and H^1 of a finite field acting
on that component group through Frobenius.

For the built-in family, `norm_torus_spec(e)` is the norm-one torus of a
totally ramified cyclic extension of degree e: its character lattice is
Z[G]/(N) for G cyclic of order e, with G acting as inertia.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FrobeniusDoesNotDescend, TamenessViolation
from .galois import GaloisLatticeModule, check_presented_endomorphism, coinvariants, cyclic_h1
from .lattice import DIMENSION_CAP, FgAbelianGroup, IntegerMatrix, json_int, unimodular_inverse

__all__ = [
    "TameTorusSpec",
    "ComponentGroup",
    "norm_torus_spec",
    "cocharacter_action",
    "component_group",
    "h1_frobenius",
]

# The rank e-1 inertia action is validated by an orbit walk of e vectors
# and about 2 log2(e) products of (e-1) x (e-1) matrices, so memory grows
# as e^2; the cap is the largest lattice a JSON document may name.
NORM_TORUS_DEGREE_CAP = DIMENSION_CAP


class TameTorusSpec:
    """A torus described by its character lattice with Galois action.

    Tameness is the standing hypothesis: every wild-inertia generator
    must act as the identity on the lattice, otherwise the component
    group computed here has no meaning and TamenessViolation is raised.
    """

    def __init__(self, characters: GaloisLatticeModule):
        ident = IntegerMatrix.identity(characters.lattice_rank)
        for g in characters.subgroup_generators("wild_inertia"):
            if g != ident:
                raise TamenessViolation("wild inertia acts nontrivially on the character lattice")
        self.characters = characters

    @property
    def rank(self) -> int:
        return self.characters.lattice_rank

    def to_json_dict(self) -> dict:
        return self.characters.to_json_dict()

    @classmethod
    def from_json_dict(cls, d: dict) -> "TameTorusSpec":
        if d.get("torus") == "norm":
            return norm_torus_spec(json_int(d["e"]))
        return cls(GaloisLatticeModule.from_json_dict(d))


def norm_torus_spec(e: int) -> TameTorusSpec:
    """The norm-one torus of a totally ramified cyclic degree-e extension.

    Character lattice Z[G]/(N) for G = <s> cyclic of order e, presented on
    the images of 1, s, ..., s^(e-2) (rank e-1); s generates the inertia
    action, wild inertia is trivial, and Frobenius acts trivially (the
    module carries no Frobenius matrix, which means the identity).
    Raises ValueError unless 1 <= e <= NORM_TORUS_DEGREE_CAP.
    """
    if not 1 <= e <= NORM_TORUS_DEGREE_CAP:
        raise ValueError(f"degree e must be between 1 and {NORM_TORUS_DEGREE_CAP}")
    rank = e - 1
    if rank == 0:
        return TameTorusSpec(GaloisLatticeModule(0, ()))
    # Column i < rank-1 sends basis vector i to vector i+1 (the entries
    # below the diagonal); the last basis vector maps to minus the sum of
    # all of them (the relation N = 0).
    flat = [0] * (rank * rank)
    flat[rank::rank + 1] = [1] * (rank - 1)
    flat[rank - 1::rank] = [-1] * rank
    sigma = IntegerMatrix(rank, rank, tuple(flat))
    return TameTorusSpec(GaloisLatticeModule(rank, (sigma,), inertia=(0,)))


def cocharacter_action(spec: TameTorusSpec) -> GaloisLatticeModule:
    """The same group acting on the dual (cocharacter) lattice.

    Matrices dualize by inverse-transpose, which keeps g -> g* a
    homomorphism; subgroup markings and Frobenius carry over.  The map
    is an isomorphism of groups that preserves finiteness, wild-in-inertia
    containment and Frobenius normalization, so the module checks are not
    run again.
    """
    mod = spec.characters
    duals: dict[IntegerMatrix, IntegerMatrix] = {}

    def dual(m: IntegerMatrix) -> IntegerMatrix:
        # Each distinct matrix is inverted once: a Frobenius may also be a generator.
        if m not in duals:
            duals[m] = unimodular_inverse(m).transpose()
        return duals[m]

    return GaloisLatticeModule._unchecked(
        mod.lattice_rank,
        tuple(dual(g) for g in mod.generators),
        mod.inertia_indices,
        mod.wild_indices,
        None if mod.frobenius is None else dual(mod.frobenius),
    )


@dataclass(frozen=True)
class ComponentGroup:
    """Component group of the Néron model, with its Frobenius action.

    `frobenius_action` is a matrix on normal-form coordinates of `group`
    (torsion generators first, then free) and must be an automorphism.
    A surjective endomorphism of a finitely generated abelian group is
    one, so it suffices that the group modulo the image is trivial.
    """

    group: FgAbelianGroup
    frobenius_action: IntegerMatrix

    def __post_init__(self) -> None:
        check_presented_endomorphism(self.group, self.frobenius_action)
        if not self.group.quotient(self.frobenius_action).is_trivial:
            raise ValueError("frobenius_action is not an automorphism")

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.to_json_dict(),
            "frobenius_action": self.frobenius_action.to_json_dict(),
        }


def component_group(spec: TameTorusSpec) -> ComponentGroup:
    """Component group of the Néron model: inertia coinvariants of the
    cocharacter lattice, with the Frobenius action pushed to the quotient.

    >>> component_group(norm_torus_spec(2)).group
    FgAbelianGroup(free_rank=0, invariant_factors=(2,))
    """
    dual = cocharacter_action(spec)
    quotient = coinvariants(dual, "inertia")
    try:
        action = quotient.descend(dual.effective_frobenius())
    except ValueError as exc:
        raise FrobeniusDoesNotDescend(str(exc)) from exc
    return ComponentGroup(quotient.group, action)


def h1_frobenius(cg: ComponentGroup) -> FgAbelianGroup:
    """H^1 of a finite field acting on the component group via Frobenius."""
    return cyclic_h1(cg.group, cg.frobenius_action)
