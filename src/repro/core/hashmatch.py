"""HashMatching's outputs: the cuts a fragment yields against a
:class:`repro.core.meta.RecordTable` (paper Algorithm 3, the §4.4.2
two-layer pivot index, and the §4.4.3 S_last verification), and the
verification counts.

The matching itself runs in :mod:`repro.columnar.match`, on the PIM
side (push) and on the CPU against fetched records (pull) alike.  Its
semantics: for every compressed edge of a fragment, find the *deepest*
position (compressed or hidden node) whose node hash appears in the
record table, and emit a :class:`MatchCut` for it.  Shallower hits on
the same edge delimit non-critical blocks and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .meta import MetaRecord

__all__ = ["MatchCut", "CollisionLog"]


@dataclass(frozen=True)
class MatchCut:
    """A match between a fragment position and a block-root record.

    ``node_uid``/``back`` use fragment coordinates (a position ``back``
    bits above the fragment node ``node_uid``); ``abs_depth`` is the
    global depth of the matched prefix.
    """

    node_uid: int
    back: int
    abs_depth: int
    record: MetaRecord

    def word_cost(self) -> int:
        return 3


@dataclass
class CollisionLog:
    """Counts §4.4.3 verification events for the E13 experiments."""

    checked: int = 0
    rejected: int = 0
