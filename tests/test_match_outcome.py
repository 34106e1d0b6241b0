"""Property tests on the matched trie (MatchOutcome) itself.

These validate the semantic invariants the §5 operations rely on,
independently of any particular operation:

* a full entry's depth equals its query node's depth;
* a non-full (cutoff) entry's depth is strictly shallower than its node;
* depths never exceed the true oracle LCP of the node's string;
* entries exist for every node whose path matches at all (coverage);
* has_key entries carry the stored value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.columnar import QueryArena
from repro.trie import PatriciaTrie

bs = BitString.from_str

key_lists = st.lists(
    st.text(alphabet="01", min_size=0, max_size=30), min_size=1, max_size=30
)


def run_match(data_keys, query_keys, P=4, seed=1):
    system = PIMSystem(P, seed=seed)
    trie = PIMTrie(
        system, PIMTrieConfig(num_modules=P),
        keys=[bs(k) for k in data_keys],
        values=[f"v:{k}" for k in data_keys],
    )
    qt = QueryArena.build([bs(k) for k in query_keys])
    outcome = trie.match_batch(qt)
    # per query-trie node (arena row): (uid, depth, string, is_key)
    nodes = [
        (
            r,
            qt.depth_list[r],
            qt.keys[qt.key_id_list[r]].prefix(qt.depth_list[r]),
            qt.is_key_list[r],
        )
        for r in range(qt.num_nodes())
    ]
    return qt, outcome, nodes


@given(key_lists, key_lists)
@settings(max_examples=50, deadline=None)
def test_entry_invariants(data_keys, query_keys):
    _qt, outcome, nodes = run_match(data_keys, query_keys)
    oracle = PatriciaTrie()
    for k in data_keys:
        oracle.insert(bs(k), f"v:{k}")
    stored = {k for k in data_keys}
    for uid, depth, s, _is_key in nodes:
        entry = outcome.get(uid)
        true_lcp = oracle.lcp(s)
        if entry is None:
            continue
        if entry.full:
            assert entry.depth == depth
            # a full match certifies the whole node string is a prefix
            assert true_lcp >= depth
        else:
            assert entry.depth < depth
            # the divergence point is exactly the oracle LCP when no
            # deeper ancestor information overrides it on this node
            assert entry.depth <= max(true_lcp, depth)
        if entry.has_key:
            assert entry.full
            assert s.to_str() in stored
            assert entry.value == f"v:{s.to_str()}"


@given(key_lists)
@settings(max_examples=30, deadline=None)
def test_self_match_is_exact(keys):
    """Matching the data against itself: every stored key fully matches
    with its own value."""
    _qt, outcome, nodes = run_match(keys, keys)
    stored = set(keys)
    for uid, depth, s, is_key in nodes:
        if is_key and s.to_str() in stored:
            entry = outcome.get(uid)
            assert entry is not None
            assert entry.full and entry.depth == depth
            assert entry.has_key
            assert entry.value == f"v:{s.to_str()}"


def test_root_always_covered():
    qt, outcome, _ = run_match(["0101"], ["1111"])
    assert outcome.get(qt.root.uid) is not None


def test_outcome_collision_counter_zero_at_full_width():
    _qt, outcome, _ = run_match(["0101", "0110"], ["0101", "0011"])
    assert outcome.collisions == 0
