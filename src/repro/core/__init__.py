"""PIM-trie core: blocks, hash value manager, trie matching, operations."""

from .blocks import DataBlock, cut_long_edges, extract_blocks
from .config import PIMTrieConfig
from .hashmatch import CollisionLog, MatchCut, RecordTable
from .meta import MetaPiece, MetaRecord, cut_node, decompose_component
from .pimtrie import MatchEntry, MatchOutcome, PIMTrie
from ..columnar.match import LocalMatchResult

__all__ = [
    "DataBlock",
    "cut_long_edges",
    "extract_blocks",
    "PIMTrieConfig",
    "CollisionLog",
    "MatchCut",
    "RecordTable",
    "LocalMatchResult",
    "MetaPiece",
    "MetaRecord",
    "cut_node",
    "decompose_component",
    "MatchEntry",
    "MatchOutcome",
    "PIMTrie",
]
