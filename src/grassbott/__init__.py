"""Exact cohomology of homogeneous vector bundles on Grassmannians."""

from . import bott, dims, koszul, schur, theorems

from .weights import (
    BlockWeight,
    GrassContext,
    dual_weight,
    is_globally_generated,
    twist,
)
from .dims import block_rank, sl_dim
from .expr import (
    THETA,
    DirectSum,
    Dual,
    Expr,
    Irr,
    Line,
    Q,
    S,
    Sym,
    Tensor,
    Twist,
    Wedge,
    parse_expr,
    to_text,
)
from .schur import (
    Decomposition,
    evaluate,
    lr_tensor,
    sym_power,
    wedge_power,
)
from .bott import bott_irreducible, cohomology
from .koszul import (
    KoszulTable,
    TargetKind,
    Verdict,
    analyze,
    build_table,
    euler_restriction,
    hilbert_series,
)
from .screens import (
    ConditionWitness,
    ScreenReport,
    enumerate_lemma54,
    find_witnesses_41,
    find_witnesses_5,
    screen,
)
from .theorems import (
    CrossReport,
    TheoremReport,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    cross_validate,
)


def clear_caches() -> None:
    """Empty every in-process memo of the package: the characters,
    Littlewood-Richardson products, decompositions, cohomology profiles,
    Koszul tables, normality scans and Weyl kernels.  A batch loop over
    many instances calls it between them to keep its memory flat; the
    disk store is left alone."""
    for memo in (
        schur._gt_character,
        schur._lr_pair,
        schur._evaluate,
        bott._cohomology_cached,
        koszul.build_table,
        theorems._scan_normality,
        dims.straighten,
        dims.sl_dim,
    ):
        memo.cache_clear()


__all__ = [
    "BlockWeight",
    "ConditionWitness",
    "CrossReport",
    "Decomposition",
    "DirectSum",
    "Dual",
    "Expr",
    "GrassContext",
    "Irr",
    "KoszulTable",
    "Line",
    "Q",
    "S",
    "ScreenReport",
    "Sym",
    "THETA",
    "TargetKind",
    "Tensor",
    "TheoremReport",
    "Twist",
    "Verdict",
    "Wedge",
    "analyze",
    "block_rank",
    "bott_irreducible",
    "build_table",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "clear_caches",
    "cohomology",
    "cross_validate",
    "dual_weight",
    "enumerate_lemma54",
    "euler_restriction",
    "evaluate",
    "find_witnesses_41",
    "find_witnesses_5",
    "hilbert_series",
    "is_globally_generated",
    "lr_tensor",
    "parse_expr",
    "screen",
    "sl_dim",
    "sym_power",
    "to_text",
    "twist",
    "wedge_power",
]
