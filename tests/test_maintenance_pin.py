"""A pinned replay of every PIMTrie maintenance path.

One seeded P=8 trie with small bounds is driven through the bulk build,
insert batches that repartition blocks and rebuild meta-block trees, a
split / replicate / spread read / merge / dereplicate sequence, a
delete batch that collects empty blocks (the merge and the delete each
rebuild the whole HVM), one module crash healed by ``rebuild_modules``
and one abort inside a structural path healed by
``rebuild_from_mirror``.  ``validate()`` runs
after every step, and a sha256 over every reply plus every step's
metrics snapshot must equal :data:`PIN`: a refactor of the host-side
registries has to keep every RNG draw, message order and PIM Model
count bit for bit.  ``tests/test_bench.py`` recomputes the digest under
two ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any

from repro import BitString, PIMSystem, PIMTrie, PIMTrieConfig
from repro.faults import FaultPlan, run_with_recovery
from repro.obs import Tracer
from repro.perf import reset_id_counters
from repro.workloads import uniform_keys

P = 8
LENGTH = 32

#: sha256 (first 16 hex digits) of :func:`drive`'s log
PIN = "673156523f77be54"

#: round (counted from the fault plan's install) of the structural
#: abort: the fetch round of the repartition the insert batch triggers
STRUCTURAL_ROUND = 4

#: every maintenance span the replay must emit at least once
PATHS = (
    "maint.rebuild_hvm",
    "maint.repartition_blocks",
    "maint.rebuild_tree",
    "maint.hvm_apply",
    "maint.split_block",
    "maint.replicate_block",
    "maint.merge_block",
    "maint.dereplicate_block",
    "maint.collect_empty_blocks",
    "recovery.rebuild_modules",
    "recovery.rebuild_from_mirror",
)


def _plain(x: Any) -> Any:
    if isinstance(x, BitString):
        return x.to_str()
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _hottest(touches: dict[int, int], skip: tuple = ()) -> int:
    return min((b for b in touches if b not in skip),
               key=lambda b: (-touches[b], b))


def drive() -> tuple[str, Counter]:
    """Run the replay; returns ``(digest, span-name counts)``."""
    reset_id_counters()
    system = PIMSystem(P, seed=3)
    tracer = Tracer(system)
    cfg = PIMTrieConfig(
        num_modules=P, block_bound=16, meta_block_bound=8, small_meta_bound=4
    )
    keys = uniform_keys(64, LENGTH, seed=5)
    log: list = []

    def step(name: str, reply: Any) -> None:
        trie.validate()
        log.append([name, _plain(reply),
                    system.snapshot().as_dict(include_per_module=True)])

    trie = PIMTrie(system, cfg, keys=keys, values=[str(k) for k in keys])
    step("build", trie.num_keys())
    inserted: list[BitString] = []
    for i in range(4):
        extra = uniform_keys(6, LENGTH, seed=20 + i)
        inserted += extra
        step(f"insert{i}",
             trie.insert_batch(extra, [f"i{i}.{j}" for j in range(6)]))

    probes = keys[::3]
    step("lcp", trie.lcp_batch(probes))
    touches = trie.take_block_touches()
    hot = _hottest(touches)
    step("touches", touches)
    step("split", trie.split_block(hot, bound=8))
    step("lcp", trie.lcp_batch(probes))
    touches = trie.take_block_touches()
    other = _hottest(touches, skip=(hot,))
    step("touches", touches)
    step("replicate", [trie.replicate_block(hot), trie.replicate_block(other)])
    prefixes = [k.prefix(4) for k in probes[:4]]
    step("lcp", trie.lcp_batch(probes))
    step("subtree", trie.subtree_batch(prefixes))
    step("lcp", trie.lcp_batch(probes))
    step("merge", trie.merge_block(hot))
    step("dereplicate", trie.dereplicate_block(other))

    one = BitString.from_str("1")
    doomed = [k for k in keys + inserted if k.starts_with(one)]
    step("delete", trie.delete_batch(doomed))
    step("touches", trie.take_block_touches())

    system.install_faults(FaultPlan(crashes={2: 0}))
    step("crash", run_with_recovery(trie, trie.lcp_batch, probes))
    system.clear_faults()

    system.install_faults(FaultPlan(
        transient_errors={(STRUCTURAL_ROUND, m) for m in range(P)}
    ))
    extra = uniform_keys(12, LENGTH, seed=40)
    step("abort", run_with_recovery(
        trie, trie.insert_batch, extra, [f"x{j}" for j in range(12)]
    ))
    system.clear_faults()
    step("lookup", trie.lookup_batch(keys + inserted + extra))
    step("subtree", trie.subtree_batch(prefixes))

    blob = json.dumps(log, sort_keys=True).encode()
    return (
        hashlib.sha256(blob).hexdigest()[:16],
        Counter(s.name for s in tracer.spans),
    )


def test_every_maintenance_path_replays_the_pinned_digest():
    digest, fired = drive()
    missing = [name for name in PATHS if not fired[name]]
    assert not missing, f"replay no longer reaches {missing}"
    assert digest == PIN
