"""Sketch-guided adaptive skew defense (the adapt layer's hands).

The :class:`AdaptiveController` closes the loop the ROADMAP asks for:
the serve layer drains per-epoch block access counters
(``PIMTrie.take_block_touches``) into a decayed Count-Min sketch keyed
by **block base prefix**, and the controller reacts online:

* **hot block** (estimated share of recent traffic above
  ``hot_fraction``) → **split** it across fresh modules with a finer
  block bound (``PIMTrie.split_block``), and if it cannot fracture
  further (or is already fine-grained) → **replicate** it so each read
  goes to the least-loaded copy of its round (``PIMTrie.replicate_block``).
* **cold block** (share below ``cold_fraction``) → retire its replicas
  (``dereplicate_block``) and, for blocks this controller previously
  split, fold the children back in (``merge_block``).

Every action runs inside an ``adapt.*`` span (cat ``"adapt"``), so the
obs layer attributes the maintenance rounds to the controller and the
span-sum invariant stays byte-exact.  Decisions use only host-side
state (sketch + the trie's block table) — deciding costs nothing; only
*acting* spends accounted rounds.

Correctness is structural: split / replicate / merge change placement,
never the key set, so any interleaving of controller actions with
client batches leaves every answer identical to the adapt-off replay
(``tests/test_adapt.py`` proves this differentially against the dict
oracle).

:class:`ClusterAdaptiveController` lifts the same loop to
``repro.cluster``: one controller (and sketch) per rack, with the
per-rack sketches merged into a router-level view for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..obs.tracer import maybe_span
from .sketch import CountMinSketch

__all__ = ["AdaptPolicy", "AdaptiveController", "ClusterAdaptiveController"]

#: sketch geometry (width ~ e/eps counters per row, depth rows)
SKETCH_WIDTH, SKETCH_DEPTH = 256, 4
#: per-epoch exponential decay of the sketch window
SKETCH_DECAY = 0.75


@dataclass
class AdaptPolicy:
    """Thresholds and hysteresis for the adaptive controller.

    The hot/cold thresholds are *fractions of the sketch's decayed
    total mass*, so they track traffic share rather than absolute
    counts and need no retuning across request rates.  Hysteresis comes
    from three places: ``hot_fraction`` is well above ``cold_fraction``
    (a block must fall a long way before its defenses are torn down),
    ``cooldown`` spaces repeat actions on the same block, and
    ``min_window`` keeps the controller idle until the sketch has seen
    enough mass to trust.
    """

    #: a block whose estimated share of the decayed window exceeds
    #: this is hot
    hot_fraction: float = 0.15
    #: a block whose estimated share falls below this is cold
    cold_fraction: float = 0.03
    #: minimum decayed window mass before any action is taken
    min_window: float = 32.0
    #: epochs to wait between actions on the same block
    cooldown: int = 2
    #: cap on extra read copies per block
    max_replicas: int = 2
    #: only split blocks holding at least this many keys
    split_min_keys: int = 4
    #: word bound for split_block (None = block_bound // 4)
    split_bound: Optional[int] = None
    #: cap on structural actions per step (bounds per-epoch overhead)
    max_actions_per_epoch: int = 4


class AdaptiveController:
    """Per-trie adaptive loop: observe → estimate → split/replicate/merge."""

    def __init__(self, trie: Any, policy: Optional[AdaptPolicy] = None):
        self.trie = trie
        self.policy = policy or AdaptPolicy()
        self.sketch = CountMinSketch(
            SKETCH_WIDTH, SKETCH_DEPTH, decay=SKETCH_DECAY
        )
        #: completed epochs observed
        self.epoch = 0
        #: block id -> epoch of the last structural action on it
        self._last_action: dict[int, int] = {}
        #: roots of splits *this controller* performed (merge candidates)
        self._split_roots: dict[int, int] = {}
        #: running action counters (reported via summary())
        self.counts = {
            "split": 0, "replicate": 0, "dereplicate": 0, "merge": 0,
        }
        #: per-step action log: (epoch, kind, block_id, detail)
        self.log: list[tuple[int, str, int, Any]] = []

    # ------------------------------------------------------------------
    # observe
    # ------------------------------------------------------------------
    def observe(self, touches: Optional[dict[int, int]] = None) -> float:
        """Age the sketch window one epoch, then feed it this epoch's
        block access counts (drained from the trie unless given).
        Counts are keyed by the block's base prefix, so estimates
        survive splits and merges that reuse the block id.  Returns the
        mass added."""
        self.sketch.decay()
        if touches is None:
            touches = self.trie.take_block_touches()
        added = 0.0
        for bid, n in touches.items():
            entry = self.trie.blocks.get(bid)
            if entry is None:  # block vanished since the batch ran
                continue
            self.sketch.add(entry.root, float(n))
            added += n
        return added

    def block_share(self, bid: int) -> float:
        """Estimated fraction of the decayed window hitting ``bid``."""
        if self.sketch.total <= 0.0:
            return 0.0
        entry = self.trie.blocks.get(bid)
        if entry is None:
            return 0.0
        return self.sketch.estimate(entry.root) / self.sketch.total

    # ------------------------------------------------------------------
    # act
    # ------------------------------------------------------------------
    def _cooled(self, bid: int) -> bool:
        last = self._last_action.get(bid)
        return last is None or self.epoch - last >= self.policy.cooldown

    def _act_hot(self, bid: int, budget: int) -> int:
        """Defend one hot block; returns actions spent (0 or 1)."""
        p, trie = self.policy, self.trie
        if budget <= 0 or not self._cooled(bid):
            return 0
        entry = trie.blocks.get(bid)
        if entry is None:
            return 0
        # prefer splitting (permanently spreads the load); fall back to
        # replication when the block cannot fracture further
        if len(entry.items) >= p.split_min_keys:
            with maybe_span(trie.system, "adapt.split", cat="adapt"):
                made = trie.split_block(bid, bound=p.split_bound)
            if made > 0:
                self._split_roots[bid] = self.epoch
                self._last_action[bid] = self.epoch
                self.counts["split"] += 1
                self.log.append((self.epoch, "split", bid, made))
                return 1
        if len(entry.replicas) < p.max_replicas:
            with maybe_span(trie.system, "adapt.replicate", cat="adapt"):
                m = trie.replicate_block(bid)
            if m is not None:
                self._last_action[bid] = self.epoch
                self.counts["replicate"] += 1
                self.log.append((self.epoch, "replicate", bid, m))
                return 1
        return 0

    def _act_cold(self, bid: int, budget: int) -> int:
        """Tear down one cold block's defenses; returns actions spent."""
        p, trie = self.policy, self.trie
        if budget <= 0 or not self._cooled(bid):
            return 0
        entry = trie.blocks.get(bid)
        if entry is None:
            return 0
        if entry.replicas:
            with maybe_span(trie.system, "adapt.dereplicate", cat="adapt"):
                trie.dereplicate_block(bid)
            self._last_action[bid] = self.epoch
            self.counts["dereplicate"] += 1
            self.log.append((self.epoch, "dereplicate", bid, None))
            return 1
        if bid in self._split_roots and entry.children:
            kids = entry.children
            # only reverse our own splits, only while every child is
            # also cold, and only if the merged block stays bounded
            if any(
                self.block_share(c) >= p.cold_fraction for c in kids
            ):
                return 0
            total_keys = len(entry.items) + sum(
                len(trie.blocks[c].items) for c in kids
            )
            if total_keys > trie.config.block_bound:
                return 0
            with maybe_span(trie.system, "adapt.merge", cat="adapt"):
                absorbed = trie.merge_block(bid)
            del self._split_roots[bid]
            self._last_action[bid] = self.epoch
            self.counts["merge"] += 1
            self.log.append((self.epoch, "merge", bid, absorbed))
            return 1
        return 0

    def step(self, touches: Optional[dict[int, int]] = None) -> dict:
        """One epoch of the loop: observe, then act within budget.

        Returns a summary dict (also what lands in
        ``ServiceReport.extra['adapt']``).
        """
        p = self.policy
        added = self.observe(touches)
        self.epoch += 1
        actions = 0
        if self.sketch.total >= p.min_window:
            shares = [
                (self.block_share(bid), bid) for bid in list(self.trie.blocks)
            ]
            shares.sort(key=lambda sb: (-sb[0], sb[1]))
            for share, bid in shares:
                if actions >= p.max_actions_per_epoch:
                    break
                if share >= p.hot_fraction:
                    actions += self._act_hot(
                        bid, p.max_actions_per_epoch - actions
                    )
            # cold pass: blocks carrying defenses whose traffic faded
            cold = [
                bid
                for bid in sorted(self._replicated() | set(self._split_roots))
                if self.block_share(bid) < p.cold_fraction
            ]
            for bid in cold:
                if actions >= p.max_actions_per_epoch:
                    break
                actions += self._act_cold(
                    bid, p.max_actions_per_epoch - actions
                )
        return {
            "epoch": self.epoch,
            "window_mass": round(self.sketch.total, 3),
            "observed": added,
            "actions": actions,
            **self.counts,
            "replicated_blocks": len(self._replicated()),
        }

    def _replicated(self) -> set[int]:
        return {bid for bid, e in self.trie.blocks.items() if e.replicas}

    def summary(self) -> dict:
        """Cumulative controller state for reports."""
        return {
            "epochs": self.epoch,
            "window_mass": round(self.sketch.total, 3),
            **self.counts,
            "replicated_blocks": len(self._replicated()),
            "split_roots": len(self._split_roots),
        }


class ClusterAdaptiveController:
    """Adaptive loop over a ``repro.cluster`` PIMCluster: one
    :class:`AdaptiveController` (and sketch) per rack, created lazily
    keyed by ``rack.uid`` so a replacement rack after failover gets a
    fresh controller.  :meth:`router_sketch` merges the live per-rack
    sketches into one router-level view of the cluster's hot set."""

    def __init__(self, cluster: Any, policy: Optional[AdaptPolicy] = None):
        self.cluster = cluster
        self.policy = policy or AdaptPolicy()
        self._by_rack: dict[tuple, AdaptiveController] = {}

    def controller_for(self, rack: Any) -> AdaptiveController:
        ctl = self._by_rack.get(rack.uid)
        if ctl is None:
            ctl = AdaptiveController(rack.trie, self.policy)
            self._by_rack[rack.uid] = ctl
        return ctl

    def step(self) -> dict:
        """Step every live rack's controller; returns a cluster summary.

        ``actions`` counts the maintenance ops taken in *this* step,
        summed over the racks; the per-kind entries are cumulative,
        like each rack controller's.
        """
        per_rack: dict[tuple, dict] = {}
        for rack in self.cluster.iter_racks():
            if not rack.alive:
                continue
            per_rack[rack.uid] = self.controller_for(rack).step()
        totals = {"split": 0, "replicate": 0, "dereplicate": 0, "merge": 0}
        for s in per_rack.values():
            for k in totals:
                totals[k] += s[k]
        return {
            "racks": len(per_rack),
            "actions": sum(s["actions"] for s in per_rack.values()),
            **totals,
            "router_mass": round(self.router_sketch_total(), 3),
        }

    def router_sketch(self) -> Optional[CountMinSketch]:
        """Merged per-rack sketches (same dims/seed ⇒ mergeable); the
        router's view of global prefix heat.  None before any step."""
        merged: Optional[CountMinSketch] = None
        for ctl in self._by_rack.values():
            if merged is None:
                merged = ctl.sketch.copy()
            elif merged.compatible(ctl.sketch):
                merged.merge(ctl.sketch)
        return merged

    def router_sketch_total(self) -> float:
        s = self.router_sketch()
        return s.total if s is not None else 0.0

    def summary(self) -> dict:
        totals = {"split": 0, "replicate": 0, "dereplicate": 0, "merge": 0}
        for ctl in self._by_rack.values():
            for k in totals:
                totals[k] += ctl.counts[k]
        return {
            "racks": len(self._by_rack),
            **totals,
            "router_mass": round(self.router_sketch_total(), 3),
        }
