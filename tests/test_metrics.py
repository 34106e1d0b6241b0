"""Unit tests for the PIM Model metric records and snapshots."""

import pytest

from repro.pim import MetricsCollector, MetricsSnapshot, RoundRecord


class TestRoundRecord:
    def test_io_time_is_max_module_total(self):
        # module totals (in + out): 5+0=5 and 1+9=10 -> the busiest
        # module's combined traffic, not the max single direction
        r = RoundRecord(words_to=(5, 1), words_from=(0, 9), kernel_work=(2, 3))
        assert r.io_time == 10
        assert r.total_words == 15
        assert r.pim_time == 3

    def test_empty_round(self):
        r = RoundRecord(words_to=(), words_from=(), kernel_work=())
        assert r.io_time == 0
        assert r.total_words == 0
        assert r.pim_time == 0


class TestCollector:
    def test_accumulation(self):
        c = MetricsCollector(2)
        c.record_round([3, 0], [1, 0], [5, 0])
        c.record_round([0, 4], [0, 2], [0, 7])
        s = c.snapshot()
        assert s.io_rounds == 2
        assert s.io_time == (3 + 1) + (4 + 2)  # busiest module, per round
        assert s.total_communication == 10
        assert s.pim_time == 12
        assert s.pim_work == 12
        assert s.per_module_traffic == (4, 6)
        assert s.per_module_work == (5, 7)

    def test_cpu_ticks(self):
        c = MetricsCollector(1)
        c.tick_cpu()
        c.tick_cpu(4)
        assert c.snapshot().cpu_work == 5

    def test_reset(self):
        c = MetricsCollector(2)
        c.record_round([1, 1], [1, 1], [1, 1])
        c.tick_cpu(3)
        c.reset()
        s = c.snapshot()
        assert s.io_rounds == 0
        assert s.cpu_work == 0
        assert s.per_module_traffic == (0, 0)


class TestSnapshot:
    def snap(self, **kw):
        base = dict(
            io_rounds=0, io_time=0, total_communication=0, pim_time=0,
            pim_work=0, cpu_work=0, per_module_traffic=(0, 0),
            per_module_work=(0, 0),
        )
        base.update(kw)
        return MetricsSnapshot(**base)

    def test_delta(self):
        a = self.snap(io_rounds=3, total_communication=10,
                      per_module_traffic=(6, 4))
        b = self.snap(io_rounds=1, total_communication=4,
                      per_module_traffic=(2, 2))
        d = a.delta(b)
        assert d.io_rounds == 2
        assert d.total_communication == 6
        assert d.per_module_traffic == (4, 2)

    def test_delta_module_count_mismatch_raises(self):
        # snapshots from systems with different P must not be silently
        # zip-truncated into a short per-module tuple
        a = self.snap(per_module_traffic=(6, 4, 2), per_module_work=(1, 1, 1))
        b = self.snap()
        with pytest.raises(ValueError, match="module counts differ"):
            a.delta(b)
        with pytest.raises(ValueError, match="module counts differ"):
            b.delta(a)

    def test_imbalance_perfect(self):
        s = self.snap(per_module_traffic=(5, 5))
        assert s.traffic_imbalance() == pytest.approx(1.0)

    def test_imbalance_serialized(self):
        s = self.snap(per_module_traffic=(10, 0))
        assert s.traffic_imbalance() == pytest.approx(2.0)

    def test_imbalance_empty(self):
        s = self.snap()
        assert s.traffic_imbalance() == 1.0
        assert s.work_imbalance() == 1.0

    def test_as_dict_keys(self):
        d = self.snap().as_dict()
        assert set(d) == {
            "io_rounds", "io_time", "total_communication", "pim_time",
            "pim_work", "cpu_work", "traffic_imbalance", "work_imbalance",
        }

    def test_as_dict_per_module(self):
        s = self.snap(per_module_traffic=(6, 4), per_module_work=(2, 8))
        d = s.as_dict(include_per_module=True)
        assert d["per_module_traffic"] == [6, 4]
        assert d["per_module_work"] == [2, 8]
        # JSON-friendly: plain lists, not tuples
        assert isinstance(d["per_module_traffic"], list)
        assert "per_module_traffic" not in s.as_dict()

    def test_json_round_trip_via_from_dict(self):
        import json

        s = self.snap(
            io_rounds=7, io_time=40, total_communication=90, pim_time=12,
            pim_work=20, cpu_work=3, per_module_traffic=(60, 30),
            per_module_work=(8, 12),
        )
        wire = json.loads(json.dumps(s.as_dict(include_per_module=True)))
        assert MetricsSnapshot.from_dict(wire) == s

    def test_from_dict_requires_per_module(self):
        s = self.snap(io_rounds=2)
        with pytest.raises(ValueError, match="per_module_traffic"):
            MetricsSnapshot.from_dict(s.as_dict())

    def test_from_dict_from_live_system(self):
        from repro.pim import PIMSystem

        system = PIMSystem(2, seed=1)
        system.round(lambda ctx, reqs: [sum(reqs)], {0: [1, 2], 1: [3]})
        snap = system.snapshot()
        again = MetricsSnapshot.from_dict(
            snap.as_dict(include_per_module=True)
        )
        assert again == snap
        assert again.delta(snap).io_rounds == 0


class TestMerge:
    """``MetricsSnapshot.merge``: the cluster-wide aggregation used by
    ``repro.cluster`` (scalars sum, per-module tuples concatenate)."""

    def snap(self, modules=2, **kw):
        base = dict(
            io_rounds=0, io_time=0, total_communication=0, pim_time=0,
            pim_work=0, cpu_work=0,
            per_module_traffic=(0,) * modules,
            per_module_work=(0,) * modules,
        )
        base.update(kw)
        return MetricsSnapshot(**base)

    def test_scalars_sum_and_modules_concatenate(self):
        a = self.snap(io_rounds=3, io_time=9, total_communication=10,
                      pim_time=5, pim_work=7, cpu_work=2,
                      per_module_traffic=(6, 4), per_module_work=(3, 4))
        b = self.snap(modules=3, io_rounds=1, io_time=2,
                      total_communication=6, pim_time=1, pim_work=2,
                      cpu_work=8, per_module_traffic=(2, 2, 2),
                      per_module_work=(1, 0, 1))
        m = MetricsSnapshot.merge(a, b)
        assert m.io_rounds == 4
        assert m.io_time == 11
        assert m.total_communication == 16
        assert m.pim_time == 6
        assert m.pim_work == 9
        assert m.cpu_work == 10
        # argument order is preserved in the concatenation
        assert m.per_module_traffic == (6, 4, 2, 2, 2)
        assert m.per_module_work == (3, 4, 1, 0, 1)

    def test_single_snapshot_is_identity(self):
        a = self.snap(io_rounds=5, per_module_traffic=(9, 1),
                      per_module_work=(2, 2))
        assert MetricsSnapshot.merge(a) == a

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            MetricsSnapshot.merge()

    def test_malformed_snapshot_rejected(self):
        # a snapshot whose own traffic/work tuples disagree in length
        # would corrupt every later module index in the concatenation
        bad = MetricsSnapshot(
            io_rounds=0, io_time=0, total_communication=0, pim_time=0,
            pim_work=0, cpu_work=0, per_module_traffic=(1, 2),
            per_module_work=(1, 2, 3),
        )
        with pytest.raises(ValueError, match="malformed"):
            MetricsSnapshot.merge(self.snap(), bad)

    def test_merge_commutes_with_delta(self):
        # per-rack deltas merged == merged cumulatives delta'd: the
        # identity PIMCluster.delta() relies on
        a0 = self.snap(io_rounds=1, total_communication=4, cpu_work=1,
                       per_module_traffic=(2, 2), per_module_work=(1, 0))
        a1 = self.snap(io_rounds=4, total_communication=9, cpu_work=3,
                       per_module_traffic=(5, 4), per_module_work=(2, 2))
        b0 = self.snap(modules=3, io_rounds=2, total_communication=3,
                       per_module_traffic=(1, 1, 1),
                       per_module_work=(0, 1, 0))
        b1 = self.snap(modules=3, io_rounds=6, total_communication=8,
                       per_module_traffic=(4, 2, 2),
                       per_module_work=(1, 2, 1))
        assert MetricsSnapshot.merge(a1, b1).delta(
            MetricsSnapshot.merge(a0, b0)
        ) == MetricsSnapshot.merge(a1.delta(a0), b1.delta(b0))

    def test_delta_between_different_merge_shapes_raises(self):
        # merging different rack sets produces different module counts;
        # delta must refuse rather than zip-truncate
        two = MetricsSnapshot.merge(self.snap(), self.snap())
        three = MetricsSnapshot.merge(self.snap(), self.snap(), self.snap())
        with pytest.raises(ValueError, match="module counts differ"):
            three.delta(two)
