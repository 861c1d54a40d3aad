"""Partial Hadamard matrices, submagic projector grids, and the semigroups of
partial permutations they generate, together with completion procedures and
their decision criteria."""

from .completion import (
    CriteriaReport,
    KernelData,
    ModulusProfile,
    WeightedResult,
    complete_row,
    criteria,
    gram_criterion,
    kernel_vector,
    modulus_profile,
    weighted_criterion,
)
from .errors import (
    DegenerateSplit,
    DuplicateInColumn,
    DuplicateInRow,
    FormatError,
    HadpermError,
    IllConditioned,
    InvalidSquare,
    LimitExceeded,
    NotCommuting,
    NotCompletable,
    NotHadamard,
    NotSubmagic,
    OutOfAlphabet,
    RankError,
    SizeMismatch,
    TooManyUndefined,
    Unsupported,
)
from .pperm import (
    PartialPermutation,
    Semigroup,
    compose,
    count_all,
    embed_total,
    enumerate_all,
    generate_semigroup,
    invert,
    verify_subantipode,
)
from .prelatin import PreLatinSquare, semigroup_of, sigma_of
from .submagic import (
    GridReport,
    ProjGrid,
    SumBoundResult,
    check_grid,
    classical_points,
    complete_2x2_to_4x4,
    complete_commuting,
    complete_last,
    grid_from_hadamard,
    pre_latin_from_rank_one,
    random_grid,
    sum_bound_check,
)
from .torus import (
    HadamardReport,
    TorusMatrix,
    fourier,
    is_partial_hadamard,
    minor_det,
    row_quotient,
    tensor,
)

__version__ = "0.1.0"
