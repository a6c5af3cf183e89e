"""tametorus: exact arithmetic for component groups of tame norm tori,
p-adic norm classes, and torsor evaluation over the special fibre."""

from .errors import (
    ClosureCapExceeded,
    ContextMismatch,
    DegreeIncompatible,
    DomainError,
    EnumerationTooLarge,
    FrobeniusDoesNotDescend,
    InfiniteOrder,
    NoRepresentedNorm,
    NoStabilization,
    NotAUnit,
    NotUnimodular,
    PrecisionExhausted,
    SamplingTooLarge,
    SearchSpaceTooLarge,
    SpecialFibreVanishing,
    SubgroupViolation,
    TamenessViolation,
)
from .galois import (
    GaloisLatticeModule,
    MatrixGroup,
    close_group,
    coinvariants,
    cyclic_h1,
    invariants,
    largest_trivial_free_quotient,
)
from .lattice import (
    FgAbelianGroup,
    IntegerMatrix,
    LatticeQuotient,
    SnfResult,
    cokernel,
    kernel_basis,
    smith_normal_form,
    subquotient,
)
from .padic import (
    NormClass,
    PadicContext,
    PadicInt,
    eth_power_class,
    norm_class,
    norm_class_oracle,
    unit_part,
)
from .torsor import (
    ConstancyReport,
    FactorizationReport,
    MultivariatePolynomial,
    NormTorsorFamily,
    constancy_check,
    evaluate,
    reduce_point,
    special_eval,
    verify_factorization,
)
from .torus import (
    ComponentGroup,
    TameTorusSpec,
    cocharacter_action,
    component_group,
    h1_frobenius,
    norm_torus_spec,
)

__version__ = "0.1.0"
