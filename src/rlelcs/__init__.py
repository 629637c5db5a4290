"""Longest common substring between run-length encoded strings, with
prefix-sum oracles, query-cost accounting, and parity reduction gadgets."""

from .anchors import (
    AnchorScheme,
    AnchorSet,
    anchor_at,
    build_exhaustive,
    build_minimizer,
    validate_anchor_set,
)
from .qmodel import (
    CostModel,
    OracleHandle,
    QueryLedger,
    WalkHooks,
    WalkMode,
    grover_search,
    make_handles,
    walk_search,
)
from .reductions import (
    ElParityResult,
    ReductionError,
    gadget_dl,
    gadget_el,
    pad_interleave,
    parity_via_dl,
    parity_via_el,
)
from .reference import (
    BruteLcs,
    BruteLrs,
    ParameterError,
    PlantedInstance,
    ResourceLimitError,
    brute_lcs,
    brute_lrs,
    plant_instance,
    random_rle,
)
from .rle import (
    ParseError,
    PrefixTable,
    RleString,
    Run,
    concat_sep,
    decode,
    encode,
    format_rle,
    is_generalized_substring,
    parse_rle,
    prefix_table,
    reverse,
)
from .structures import DynArray, RangeSum2D
from .walk import (
    Candidate,
    CollisionIndex,
    Color,
    InternalInconsistencyError,
    LcsAnswer,
    SolverConfig,
    WalkVertex,
    finalize_answer,
    inner_search,
    make_context,
    prefix_window,
    solve_lcs_rle_p,
    solve_lrs,
    suffix_window,
    verify_candidate,
    walk_charge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
