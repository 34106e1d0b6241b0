"""Unit-level specs of the host-side shortcuts in the accounting path.

Every cache and fused form must be invisible to the PIM Model
accounting: the dispatch-cached word cost equals the reflective walk,
a cached ``word_cost()`` equals a fresh recomputation, batch hashing
equals per-call hashing, the pivot-family scan/chain equals a z-fast
trie, and the perf harness's workload reproduces the counts committed
in ``BENCH_wallclock.json`` (recorded when the retired baseline and
object-fast tiers still ran alongside columnar and agreed with it).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.fasttrie import ZFastTrie
from repro.bits import BitString
from repro.bits.carryless import CarrylessHasher
from repro.bits.hashing import IncrementalHasher
from repro.core.meta import RecordTable, make_record
from repro.core.pimtrie import PIMTrie, PIMTrieConfig
from repro.perf import PROFILES, counts, run
from repro.pim import PIMSystem, default_word_cost
from repro.workloads import uniform_keys

from tests.reference import deepest_prefix, next_shallower, reflective_word_cost


def _bitstrings(max_len=64):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1 if n else 0).map(
            lambda v: BitString(v, n)
        )
    )


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=24),
    st.binary(max_size=48),
    _bitstrings(),
)

_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


class TestDefaultWordCost:
    @given(_payloads)
    @settings(max_examples=150)
    def test_dispatch_cache_matches_reflective(self, payload):
        """The type-dispatch cache and the reference walk agree on
        arbitrary nested payloads."""
        assert default_word_cost(payload) == reflective_word_cost(payload)

    def test_ndarray_and_containers(self):
        cases = [
            np.arange(10, dtype=np.int64),
            np.zeros((3, 3), dtype=np.float32),
            [np.arange(4), "abc", b"\x00" * 17, BitString(5, 3)],
            {"k": np.arange(2), BitString(1, 1): [1, 2.5, None]},
            set(range(5)),
            frozenset({1, 2}),
        ]
        for obj in cases:
            assert default_word_cost(obj) == reflective_word_cost(obj)


def _clear_cost_caches(msg):
    """Drop the cached cost on a message and on the block, piece or
    fragment it carries, so the next ``word_cost()`` recomputes."""
    carried = (getattr(msg, a, None) for a in ("block", "piece", "frag"))
    for obj in (msg, *carried):
        if hasattr(obj, "_wc"):
            obj._wc = None


class TestMessageCostParity:
    def test_live_messages_cached_equals_recompute(self):
        """Every message the PIMTrie driver actually ships (both
        directions) has a cached word cost equal to a fresh
        recomputation with every cache on the message cleared."""
        system = PIMSystem(4, seed=1)
        seen: set[str] = set()
        original = system.word_cost

        def spy(obj):
            cached = original(obj)
            _clear_cost_caches(obj)
            assert cached == reflective_word_cost(obj), type(obj).__name__
            seen.add(type(obj).__name__)
            return cached

        system.word_cost = spy
        keys = uniform_keys(96, 48, seed=3)
        trie = PIMTrie(
            system, PIMTrieConfig(num_modules=4), keys=keys, values=keys
        )
        trie.lcp_batch(uniform_keys(96, 48, seed=4))
        trie.insert_batch(uniform_keys(48, 48, seed=5))
        trie.delete_batch(keys[:32])
        trie.subtree_batch([k.prefix(6) for k in keys[:8]])
        # the hot message families must all have crossed the wire
        assert {
            "_StoreBlock",
            "_StorePiece",
            "_MasterDelta",
            "_FragMatch",
            "_BlockOp",
            "_PieceOp",
        } <= seen

    def test_smoke_workload_reproduces_recorded_counts(self):
        """Regression: the perf harness's phases (build, LCP, insert,
        delete, subtree, skew flood) reproduce, count for count, the
        committed ``BENCH_wallclock.json`` — the cumulative metrics and
        all six per-phase deltas the three retired-and-shipped tiers
        agreed on when it was recorded."""
        recorded = json.loads(
            (Path(__file__).parent.parent / "BENCH_wallclock.json").read_text()
        )["headline"]
        got = run(PROFILES["smoke"], seed=7)["headline"]
        assert counts(got) == counts(recorded)


@pytest.mark.parametrize("hasher_cls", [IncrementalHasher, CarrylessHasher])
class TestBatchHashing:
    def _strings(self, rng, count, max_len):
        out = []
        for _ in range(count):
            n = int(rng.integers(0, max_len + 1))
            v = int.from_bytes(rng.bytes((n + 7) // 8 or 1), "big")
            out.append(BitString(v & ((1 << n) - 1), n))
        return out

    def test_hash_batch(self, hasher_cls):
        rng = np.random.default_rng(9)
        h = hasher_cls(seed=123)
        strings = self._strings(rng, 40, 200)
        assert h.hash_batch(strings) == [h.hash(s) for s in strings]

    def test_fingerprint_batch(self, hasher_cls):
        rng = np.random.default_rng(10)
        h = hasher_cls(seed=77, width=32)
        hashes = [h.hash(s) for s in self._strings(rng, 40, 200)]
        assert h.fingerprint_batch(hashes) == [h.fingerprint(x) for x in hashes]

    def test_pivot_fingerprints_match_composed(self, hasher_cls):
        rng = np.random.default_rng(11)
        h = hasher_cls(seed=5)
        (base_s,) = self._strings(rng, 1, 100)
        base = h.hash(base_s)
        v = int.from_bytes(rng.bytes(38), "big")
        s = BitString(v & ((1 << 300) - 1), 300)
        positions = sorted(int(p) for p in rng.integers(0, 301, size=50))
        expect = [
            h.fingerprint(h.combine(base, ph))
            for ph in h.prefix_hashes(s, positions)
        ]
        assert h.pivot_fingerprints(base, s, positions) == expect

    def test_pivot_fingerprints_rejects_bad_positions(self, hasher_cls):
        h = hasher_cls()
        s = BitString(0b1011, 4)
        base = h.empty()
        with pytest.raises(ValueError):
            h.pivot_fingerprints(base, s, [5])
        with pytest.raises(ValueError):
            h.pivot_fingerprints(base, s, [3, 1])


class TestFamilyFastLookup:
    def test_scan_and_chain_match_zfast(self):
        """The reference's machine-int family scan agrees with a z-fast
        trie over the same members on deepest_prefix and
        next_shallower."""
        rng = np.random.default_rng(5)
        hasher = IncrementalHasher()
        strings: list[BitString] = []
        seen = set()
        while len(strings) < 24:
            n = int(rng.integers(1, 13))
            v = int(rng.integers(0, 1 << n))
            s = BitString(v, n)
            if s not in seen:
                seen.add(s)
                strings.append(s)
        # root strings shorter than w=64 keep s_rem == the whole string,
        # so every record lands in one pivot family
        recs = [
            make_record(i + 1, s, 0, hasher, None)
            for i, s in enumerate(strings)
        ]
        table = RecordTable(recs)
        assert len(table.layer2) == 1
        fam = next(iter(table.layer2.values()))

        probes = list(strings)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            probes.append(BitString(int(rng.integers(0, 1 << n)), n))
        zfast = ZFastTrie()
        zfast.bulk_build({s: None for s in fam.members})

        def zfast_deepest(q):
            got = zfast.lookup_deepest_prefix(q)
            return fam.members.get(got) if got is not None else None

        for q in probes:
            assert deepest_prefix(fam, q) is zfast_deepest(q), q
        for s in probes:
            want = zfast_deepest(s.prefix(len(s) - 1)) if len(s) else None
            assert next_shallower(fam, s) is want, s
