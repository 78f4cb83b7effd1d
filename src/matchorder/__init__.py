"""Decision procedures for a move-generated order on matchings, its
permutation counterpart, and the permutation graphs that separate them."""

from .engine import (
    BUDGET,
    DEFAULT_BUDGET,
    Certificate,
    MoveSet,
    SearchResult,
    Step,
    VerificationResult,
    antichain_check,
    matching_leq,
    perm_leq,
    verify_certificate,
)
from .matchings import (
    MOVE_KINDS,
    Matching,
    decompose_intertwined,
    is_intertwined,
    matching_to_word,
    word_to_matching,
)
from .permgraphs import (
    LabeledGraph,
    canonical_form,
    fork_graph,
    fork_permutation,
    is_permutation_graph,
    koh_ree_check,
    permutation_from_labeled,
    permutation_graph,
)
from .permutations import (
    Permutation,
    RewriteRule,
    bruhat_closure_leq,
    contains_pattern,
)

__all__ = [
    "BUDGET",
    "DEFAULT_BUDGET",
    "Certificate",
    "LabeledGraph",
    "MOVE_KINDS",
    "Matching",
    "MoveSet",
    "Permutation",
    "RewriteRule",
    "SearchResult",
    "Step",
    "VerificationResult",
    "antichain_check",
    "bruhat_closure_leq",
    "canonical_form",
    "contains_pattern",
    "decompose_intertwined",
    "fork_graph",
    "fork_permutation",
    "is_intertwined",
    "is_permutation_graph",
    "koh_ree_check",
    "matching_leq",
    "matching_to_word",
    "perm_leq",
    "permutation_from_labeled",
    "permutation_graph",
    "verify_certificate",
    "word_to_matching",
]
