"""Balanced-sequence substrate: treap sequences with O(log n) split/merge."""

from .sequence import SeqNode, TreapSequence

__all__ = ["SeqNode", "TreapSequence"]
