"""HashMatching's data side: the record table a fragment is matched
against (paper Algorithm 3, the §4.4.2 two-layer pivot index, and the
§4.4.3 S_last verification payloads).

The matching itself runs in :mod:`repro.columnar.match`, on the PIM
side (push) and on the CPU against fetched records (pull) alike.  Its
semantics: for every compressed edge of a fragment, find the *deepest*
position (compressed or hidden node) whose node hash appears in the
record table, and emit a :class:`MatchCut` for it.  Shallower hits on
the same edge delimit non-critical blocks and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..bits import BitString
from .meta import MetaRecord

__all__ = ["MatchCut", "RecordTable", "CollisionLog"]


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


class _Family:
    """One s_pre family of the two-layer index: the stored S_rem strings
    plus an O(log w) deepest-prefix structure over them (§4.4.2).

    The paper deploys z-fast shortcuts on the pull side and the padded
    y-fast/validity-vector index on the push side; both answer the same
    deepest-on-path query in O(log w), which callers charge.  Members
    are < w-bit strings, so the host computes that answer by a
    length-descending scan with machine-int prefix tests; the z-fast
    trie and the validity variant are implemented and validated on
    their own (:mod:`repro.fasttrie`, experiment E9).
    """

    __slots__ = ("members", "_scan", "_cols")

    def __init__(self):
        self.members: dict[BitString, MetaRecord] = {}
        #: lookup list: (length, value, record) sorted by descending
        #: length; None when stale
        self._scan: Optional[list[tuple[int, int, MetaRecord]]] = None
        #: columnar scan/chain arrays (repro.columnar.match); None when
        #: stale — invalidated alongside _scan
        self._cols = None

    def _scan_list(self) -> list[tuple[int, int, MetaRecord]]:
        scan = self._scan
        if scan is None:
            scan = sorted(
                ((len(s), s.value, r) for s, r in self.members.items()),
                key=lambda t: t[0],
                reverse=True,
            )
            self._scan = scan
        return scan


class RecordTable:
    """A lookup view over a set of MetaRecords for HashMatching.

    Provides both the naive ``fingerprint -> records`` map (Algorithm 3)
    and the two-layer pivot index of §4.4.2 (``s_pre_fp`` -> deepest
    S_rem prefix per family).
    """

    def __init__(self, records: Iterable[MetaRecord], w: int):
        self.w = w
        self.by_fp: dict[int, list[MetaRecord]] = {}
        self.layer2: dict[int, _Family] = {}
        self.by_id: dict[int, MetaRecord] = {}
        #: sorted layer2-key array for columnar membership probes
        #: (repro.columnar.match); None when stale
        self._l2cache = None
        for rec in records:
            self.add(rec)

    def add(self, rec: MetaRecord) -> None:
        self.by_id[rec.block_id] = rec
        self.by_fp.setdefault(rec.fingerprint, []).append(rec)
        fam = self.layer2.get(rec.s_pre_fp)
        if fam is None:
            fam = _Family()
            self.layer2[rec.s_pre_fp] = fam
            self._l2cache = None
        fam.members[rec.s_rem] = rec
        fam._scan = None
        fam._cols = None

    def remove(self, rec: MetaRecord) -> None:
        self.by_id.pop(rec.block_id, None)
        recs = self.by_fp.get(rec.fingerprint)
        if recs is not None:
            recs[:] = [r for r in recs if r.block_id != rec.block_id]
            if not recs:
                del self.by_fp[rec.fingerprint]
        fam = self.layer2.get(rec.s_pre_fp)
        if fam is not None:
            cur = fam.members.get(rec.s_rem)
            if cur is not None and cur.block_id == rec.block_id:
                del fam.members[rec.s_rem]
                fam._scan = None
                fam._cols = None
            if not fam.members:
                del self.layer2[rec.s_pre_fp]
                self._l2cache = None

    def __len__(self) -> int:
        return len(self.by_id)
