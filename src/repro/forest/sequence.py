"""A balanced sequence (treap) with O(log n) split/merge — the
backbone of the ordered snapshot (``repro.ordered``).

The paper's dynamic-forest building block [57] maintains Euler tours in
augmented skip lists; we use randomized treaps, which give the same
O(log n) whp split/merge/locate bounds with simpler invariants.  Each
treap node stores its subtree size so positions and counts resolve in
O(log n).
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Optional

__all__ = ["SeqNode", "TreapSequence"]


class SeqNode:
    """One element of a treap-backed sequence."""

    __slots__ = ("value", "prio", "left", "right", "parent", "size")

    def __init__(self, value: Any, prio: float):
        self.value = value
        self.prio = prio
        self.left: Optional["SeqNode"] = None
        self.right: Optional["SeqNode"] = None
        self.parent: Optional["SeqNode"] = None
        self.size = 1

    def _pull(self) -> None:
        self.size = 1
        if self.left is not None:
            self.size += self.left.size
        if self.right is not None:
            self.size += self.right.size

    def root(self) -> "SeqNode":
        cur = self
        while cur.parent is not None:
            cur = cur.parent
        return cur

    def index(self) -> int:
        """Position of this node within its sequence; O(log n)."""
        idx = self.left.size if self.left is not None else 0
        cur = self
        while cur.parent is not None:
            if cur.parent.right is cur:
                idx += 1 + (
                    cur.parent.left.size if cur.parent.left is not None else 0
                )
            cur = cur.parent
        return idx


class TreapSequence:
    """Functional-style treap sequence operations (roots passed around)."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def make(self, value: Any) -> SeqNode:
        return SeqNode(value, self._rng.random())

    # ------------------------------------------------------------------
    @staticmethod
    def size(root: Optional[SeqNode]) -> int:
        return root.size if root is not None else 0

    def merge(
        self, a: Optional[SeqNode], b: Optional[SeqNode]
    ) -> Optional[SeqNode]:
        """Concatenate sequences a ++ b; O(log n) whp."""
        if a is None:
            if b is not None:
                b.parent = None
            return b
        if b is None:
            a.parent = None
            return a
        a.parent = None
        b.parent = None
        if a.prio < b.prio:
            r = self.merge(a.right, b)
            a.right = r
            if r is not None:
                r.parent = a
            a._pull()
            return a
        r = self.merge(a, b.left)
        b.left = r
        if r is not None:
            r.parent = b
        b._pull()
        return b

    def split(
        self, root: Optional[SeqNode], k: int
    ) -> tuple[Optional[SeqNode], Optional[SeqNode]]:
        """Split into (first k elements, rest); O(log n) whp."""
        if root is None:
            return None, None
        root.parent = None
        left_size = root.left.size if root.left is not None else 0
        if k <= left_size:
            l, r = self.split(root.left, k)
            root.left = r
            if r is not None:
                r.parent = root
            root._pull()
            if l is not None:
                l.parent = None
            return l, root
        l, r = self.split(root.right, k - left_size - 1)
        root.right = l
        if l is not None:
            l.parent = root
        root._pull()
        if r is not None:
            r.parent = None
        return root, r

    def split_at_node(
        self, node: SeqNode
    ) -> tuple[Optional[SeqNode], Optional[SeqNode]]:
        """Split the node's sequence into (prefix before node, node..end)."""
        root = node.root()
        return self.split(root, node.index())

    # ------------------------------------------------------------------
    @staticmethod
    def iterate(root: Optional[SeqNode]) -> Iterator[SeqNode]:
        stack: list[SeqNode] = []
        cur = root
        while stack or cur is not None:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            yield cur
            cur = cur.right

    @staticmethod
    def first(root: SeqNode) -> SeqNode:
        cur = root
        while cur.left is not None:
            cur = cur.left
        return cur

    @staticmethod
    def last(root: SeqNode) -> SeqNode:
        cur = root
        while cur.right is not None:
            cur = cur.right
        return cur
