"""Node and edge structures for binary compressed tries (paper §4, "Basic
Structures and Terminology").

A *compressed node* survives path compression: it has two children, or
it terminates a stored key, or both.  Compressed edges carry the omitted
bit-string between compressed nodes.  *Hidden nodes* are the implicit
prefixes lying inside an edge; they have no physical storage and are
addressed by (host edge, offset-in-bits), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..bits import BitString

__all__ = ["TrieNode", "TrieEdge", "HiddenNodeRef", "NodeRef"]


class TrieNode:
    """A compressed node of a binary radix tree.

    ``depth`` is the node depth in *bits* (the length of the represented
    prefix).  ``children[b]`` is the outgoing edge whose label starts
    with bit ``b`` (or None).  ``value`` is the stored value when the
    node terminates a key (``is_key``).
    """

    __slots__ = (
        "depth",
        "children",
        "parent_edge",
        "is_key",
        "value",
        "uid",
        "mirror_child",
    )

    _next_uid = 0

    def __init__(self, depth: int, *, is_key: bool = False, value: Any = None):
        self.depth = depth
        self.children: list[Optional["TrieEdge"]] = [None, None]
        self.parent_edge: Optional["TrieEdge"] = None
        self.is_key = is_key
        self.value = value
        #: id of the child data-trie block whose root this node mirrors
        #: (None for ordinary nodes; see paper §4.2, "mirror nodes")
        self.mirror_child: Optional[int] = None
        TrieNode._next_uid += 1
        self.uid = TrieNode._next_uid

    # ------------------------------------------------------------------
    @property
    def num_children(self) -> int:
        return (self.children[0] is not None) + (self.children[1] is not None)

    @property
    def parent(self) -> Optional["TrieNode"]:
        return self.parent_edge.src if self.parent_edge is not None else None

    def attach(self, edge: "TrieEdge") -> None:
        """Attach an outgoing edge; its label's first bit selects the slot."""
        b = edge.label.bit(0)
        if self.children[b] is not None:
            raise ValueError(f"node already has a child on bit {b}")
        self.children[b] = edge
        edge.src = self

    def detach(self, bit: int) -> "TrieEdge":
        edge = self.children[bit]
        if edge is None:
            raise ValueError(f"no child on bit {bit}")
        self.children[bit] = None
        edge.src = None
        return edge

    def word_cost(self) -> int:
        """Words to ship this node: O(1) plus its value."""
        return 2 + (1 if self.is_key else 0)

    def __repr__(self) -> str:
        return (
            f"TrieNode(depth={self.depth}, key={self.is_key}, "
            f"children={self.num_children}, uid={self.uid})"
        )


class TrieEdge:
    """A compressed edge labelled by a non-empty bit-string."""

    __slots__ = ("src", "dst", "label")

    def __init__(self, label: BitString, dst: TrieNode):
        if len(label) == 0:
            raise ValueError("compressed edges carry non-empty labels")
        self.src: Optional[TrieNode] = None
        self.dst = dst
        self.label = label
        dst.parent_edge = self

    def word_cost(self) -> int:
        """Words to ship this edge: ceil(|label|/w) plus framing."""
        return 1 + self.label.word_count()

    def __repr__(self) -> str:
        lbl = self.label.to_str()
        if len(lbl) > 24:
            lbl = lbl[:21] + "..."
        return f"TrieEdge('{lbl}' -> depth {self.dst.depth})"


@dataclass(frozen=True)
class HiddenNodeRef:
    """A hidden node: (host edge, position on the edge in bits).

    ``offset`` counts bits from the edge source; ``0 < offset <
    len(edge.label)`` (offset 0 is the source compressed node itself and
    offset len(label) the destination).
    """

    edge: TrieEdge
    offset: int

    @property
    def depth(self) -> int:
        src = self.edge.src
        assert src is not None
        return src.depth + self.offset

    def word_cost(self) -> int:
        return 2


#: A match target: either a compressed node or a hidden node reference.
NodeRef = TrieNode | HiddenNodeRef
