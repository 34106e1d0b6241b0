"""Trie substrate: Patricia tries, batch construction, Euler-tour tools."""

from .construction import (
    adjacent_lcp_array,
    argsort,
    build_query_trie,
    patricia_from_sorted,
    sort_bitstrings,
)
from .euler import (
    lca_closure,
    node_weight_words,
    partition_weighted,
    rootfix,
)
from .nodes import HiddenNodeRef, NodeRef, TrieEdge, TrieNode
from .patricia import MatchResult, PatriciaTrie

__all__ = [
    "adjacent_lcp_array",
    "argsort",
    "build_query_trie",
    "patricia_from_sorted",
    "sort_bitstrings",
    "lca_closure",
    "node_weight_words",
    "partition_weighted",
    "rootfix",
    "HiddenNodeRef",
    "NodeRef",
    "TrieEdge",
    "TrieNode",
    "MatchResult",
    "PatriciaTrie",
]
