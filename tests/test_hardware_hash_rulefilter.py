"""Unit tests for the label-key layout, the hash unit and the Rule Filter memory."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CapacityError, ConfigurationError
from repro.hardware.hash_unit import DEFAULT_LABEL_LAYOUT, HashUnit, LabelKeyLayout
from repro.hardware.rule_filter import NO_ENTRY, RuleFilterMemory
from repro.rules.rule import Rule

try:  # the array lookup_batch exists only with NumPy
    import numpy
except ImportError:
    numpy = None


class TestLabelKeyLayout:
    def test_paper_layout_is_68_bits(self):
        assert DEFAULT_LABEL_LAYOUT.total_bits == 68

    def test_field_widths_order(self):
        assert DEFAULT_LABEL_LAYOUT.field_widths() == (13, 13, 13, 13, 7, 7, 2)

    def test_pack_unpack_round_trip(self):
        labels = (1, 8191, 42, 0, 127, 3, 2)
        packed = DEFAULT_LABEL_LAYOUT.pack(labels)
        assert DEFAULT_LABEL_LAYOUT.unpack(packed) == labels
        assert packed < (1 << 68)

    def test_distinct_tuples_distinct_keys(self):
        a = DEFAULT_LABEL_LAYOUT.pack((1, 2, 3, 4, 5, 6, 1))
        b = DEFAULT_LABEL_LAYOUT.pack((1, 2, 3, 4, 5, 7, 1))
        assert a != b

    def test_pack_rejects_wrong_arity(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_LABEL_LAYOUT.pack((1, 2, 3))

    def test_pack_rejects_overflow(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_LABEL_LAYOUT.pack((1 << 13, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ConfigurationError):
            DEFAULT_LABEL_LAYOUT.pack((0, 0, 0, 0, 0, 0, 4))

    def test_custom_layout(self):
        layout = LabelKeyLayout(ip_label_bits=8, port_label_bits=4, protocol_label_bits=2)
        assert layout.total_bits == 4 * 8 + 2 * 4 + 2


class TestHashUnit:
    def test_table_size(self):
        assert HashUnit(table_bits=14).table_size == 16384

    def test_hash_in_range_and_deterministic(self):
        unit = HashUnit(table_bits=10)
        for key in (0, 1, 12345, (1 << 68) - 1):
            slot = unit.hash(key)
            assert 0 <= slot < unit.table_size
            assert slot == unit.hash(key)

    def test_high_bits_matter(self):
        unit = HashUnit(table_bits=12)
        low = unit.hash(5)
        high = unit.hash(5 | (1 << 67))
        assert low != high or unit.hash(7) != unit.hash(7 | (1 << 67))

    def test_distribution_is_reasonable(self):
        unit = HashUnit(table_bits=8)
        slots = {unit.hash(key) for key in range(2000)}
        # At least half of the 256 slots are touched by 2000 sequential keys.
        assert len(slots) > 128

    def test_negative_key_rejected(self):
        with pytest.raises(ConfigurationError):
            HashUnit().hash(-1)

    def test_probe_sequence_is_lazy_and_wraps(self):
        unit = HashUnit(table_bits=4)
        sequence = unit.probe_sequence(123, limit=20)
        slots = list(sequence)
        assert len(slots) == 20
        assert all(0 <= slot < 16 for slot in slots)
        # consecutive probes advance by one slot modulo the table size
        assert slots[1] == (slots[0] + 1) % 16

    def test_probe_sequence_invalid_limit(self):
        with pytest.raises(ConfigurationError):
            list(HashUnit().probe_sequence(1, 0))

    def test_invalid_table_bits(self):
        with pytest.raises(ConfigurationError):
            HashUnit(table_bits=0)


class TestRuleFilterMemory:
    def _key(self, seed: int) -> int:
        return DEFAULT_LABEL_LAYOUT.pack((seed % 8192, 1, 2, 3, seed % 128, 5, seed % 4))

    def test_insert_and_lookup(self):
        memory = RuleFilterMemory(capacity=64)
        rule = Rule.build(7, 3)
        slot, accesses = memory.insert(self._key(1), rule)
        assert accesses >= 2
        found = memory.lookup(self._key(1))
        assert found.entry is not None
        assert found.entry.rule_id == 7
        assert found.entry.priority == 3

    def test_lookup_miss(self):
        memory = RuleFilterMemory(capacity=64)
        result = memory.lookup(self._key(9))
        assert result.entry is None
        assert result.probes >= 1

    def test_duplicate_key_keeps_best_priority(self):
        memory = RuleFilterMemory(capacity=64)
        memory.insert(self._key(2), Rule.build(1, 10))
        memory.insert(self._key(2), Rule.build(2, 4))
        assert memory.lookup(self._key(2)).entry.rule_id == 2

    def test_delete_and_chain_repair(self):
        memory = RuleFilterMemory(capacity=64)
        keys = [self._key(i) for i in range(20)]
        for index, key in enumerate(keys):
            memory.insert(key, Rule.build(index, index))
        deleted, _ = memory.delete(keys[5], rule_id=5)
        assert deleted
        assert memory.lookup(keys[5]).entry is None
        # every other rule must still be reachable after the chain repair
        for index, key in enumerate(keys):
            if index == 5:
                continue
            assert memory.lookup(key).entry.rule_id == index

    def test_delete_missing_returns_false(self):
        memory = RuleFilterMemory(capacity=16)
        deleted, accesses = memory.delete(self._key(3), rule_id=1)
        assert not deleted and accesses >= 1

    def test_capacity_enforced(self):
        memory = RuleFilterMemory(capacity=4)
        for index in range(4):
            memory.insert(self._key(index), Rule.build(index, index))
        with pytest.raises(CapacityError):
            memory.insert(self._key(99), Rule.build(99, 99))

    def test_stored_rules_and_entries(self):
        memory = RuleFilterMemory(capacity=16)
        for index in range(5):
            memory.insert(self._key(index), Rule.build(index, index))
        assert memory.stored_rules == 5
        assert len(memory.entries()) == 5
        memory.delete(self._key(0), 0)
        assert memory.stored_rules == 4

    def test_total_bits_and_counters(self):
        memory = RuleFilterMemory(capacity=128)
        assert memory.total_bits == memory.memory.depth * RuleFilterMemory.WORD_WIDTH
        memory.insert(self._key(1), Rule.build(0, 0))
        assert memory.memory.counter.total > 0
        memory.reset_counters()
        assert memory.memory.counter.total == 0

    def test_invalid_capacity(self):
        with pytest.raises(Exception):
            RuleFilterMemory(capacity=0)

    def test_collisions_resolved_by_probing(self):
        # Force collisions with a tiny table: every rule must stay reachable.
        memory = RuleFilterMemory(capacity=8, hash_unit=HashUnit(table_bits=3))
        for index in range(8):
            memory.insert(self._key(index), Rule.build(index, index))
        for index in range(8):
            assert memory.lookup(self._key(index)).entry.rule_id == index


def _walk_lengths(memory):
    """Brute-force probe count of a lookup homed at every slot."""
    depth = memory.memory.depth
    occupied = [memory.memory.peek(slot) is not None for slot in range(depth)]
    lengths = []
    for home in range(depth):
        step = 0
        while step < depth and occupied[(home + step) % depth]:
            step += 1
        lengths.append(min(step + 1, depth))
    return lengths


def _best_entries(memory, keys):
    """Brute-force best-priority entry of every key over the whole table."""
    best = {}
    for entry in memory.entries():
        current = best.get(entry.label_key)
        if current is None or entry.priority < current.priority:
            best[entry.label_key] = entry
    return {key: best.get(key) for key in keys}


class TestChangedHomes:
    """``drain_dirty`` covers every lookup outcome a batch of mutations moved."""

    #: Ten label keys for a 32-slot table: rules share keys, runs grow long
    #: and wrap past the last slot, and deletes relocate entries.
    KEYS = [
        DEFAULT_LABEL_LAYOUT.pack((seed, 1, 2, 3, seed % 128, 5, seed % 4)) for seed in range(10)
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        fill=st.lists(st.integers(0, 9), min_size=20, max_size=32),
        batches=st.lists(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 9), st.integers(0, 63)),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_drain_reports_every_moved_walk_and_entry(self, fill, batches):
        memory = RuleFilterMemory(capacity=32)
        depth = memory.memory.depth
        stored = []
        for index in fill:
            rule_id = len(stored)
            memory.insert(self.KEYS[index], Rule.build(rule_id, 1024 * (index % 3) + rule_id))
            stored.append((self.KEYS[index], rule_id))
        next_id = len(stored)
        memory.drain_dirty()
        for ops in batches:
            walks = _walk_lengths(memory)
            best = _best_entries(memory, self.KEYS)
            for is_insert, index, pick in ops:
                if (is_insert and len(stored) < memory.capacity) or not stored:
                    memory.insert(self.KEYS[index], Rule.build(next_id, 1024 * pick + next_id))
                    stored.append((self.KEYS[index], next_id))
                    next_id += 1
                else:
                    key, rule_id = stored.pop(pick % len(stored))
                    assert memory.delete(key, rule_id)[0]
            drained = memory.drain_dirty()
            assert drained is not None
            keys, homes = drained
            walks_after = _walk_lengths(memory)
            best_after = _best_entries(memory, self.KEYS)
            for key in self.KEYS:
                found = memory.lookup(key)
                assert found.entry == best_after[key]
                assert found.probes == walks_after[found.home]
            moved_walks = {home for home in range(depth) if walks[home] != walks_after[home]}
            assert moved_walks <= set(homes)
            moved_entries = {key for key in self.KEYS if best[key] != best_after[key]}
            assert moved_entries <= set(keys)

    def test_changed_homes_wrap_past_slot_zero(self):
        memory = RuleFilterMemory(capacity=32)
        last = memory.hash_unit.table_size - 1
        keys = [key for key in range(5000) if memory.hash_unit.hash(key) == last][:3]
        for rule_id, key in enumerate(keys):
            memory.insert(key, Rule.build(rule_id, rule_id))
        # One run homed at the last slot: slots 31, 0 and 1.
        memory.drain_dirty()
        memory.delete(keys[0], 0)
        # The backward shift moves keys 1 and 2 to slots 31 and 0 and frees
        # slot 1: the walks homed at 31, 0 and 1 each got one probe shorter.
        assert memory.drain_dirty() == (sorted(keys), [0, 1, last])

    def test_remove_and_reinsert_changes_no_home(self):
        memory = RuleFilterMemory(capacity=32)
        keys = [self._key(seed) for seed in range(20)]
        for rule_id, key in enumerate(keys):
            memory.insert(key, Rule.build(rule_id, rule_id))
        memory.drain_dirty()
        memory.delete(keys[4], 4)
        memory.insert(keys[4], Rule.build(4, 4))
        dirty, homes = memory.drain_dirty()
        assert keys[4] in dirty
        assert homes == []

    def test_tracking_overflow_is_unbounded(self, monkeypatch):
        monkeypatch.setattr(RuleFilterMemory, "DIRTY_BUDGET", 1)
        memory = RuleFilterMemory(capacity=32)
        memory.insert(self._key(1), Rule.build(0, 0))
        assert memory.drain_dirty() is None
        assert memory.drain_dirty() == ([], [])

    @staticmethod
    def _key(seed: int) -> int:
        return DEFAULT_LABEL_LAYOUT.pack((seed % 8192, 1, 2, 3, seed % 128, 5, seed % 4))


def assert_lookup_batch_matches(memory, keys):
    """``lookup_batch`` reports what ``lookup`` does for every key, reads included."""
    import numpy as np

    mask = (1 << 64) - 1
    low = np.array([key & mask for key in keys], dtype=np.uint64)
    high = np.array([key >> 64 for key in keys], dtype=np.uint64)
    memory.reset_counters()
    batch = memory.lookup_batch(low, high)
    assert memory.memory.counter.reads == int(batch.probes.sum())
    for index, key in enumerate(keys):
        single = memory.lookup(key)
        slot = int(batch.slots[index])
        assert (memory.entry_at(slot) if slot >= 0 else None) is single.entry
        expected = NO_ENTRY if single.entry is None else single.entry.priority
        assert int(batch.priorities[index]) == expected
        assert int(batch.probes[index]) == single.probes
        assert int(batch.homes[index]) == single.home


@pytest.mark.skipif(numpy is None, reason="lookup_batch needs NumPy")
class TestArrayLookup:
    """The array ``lookup_batch`` against the scalar ``lookup`` it replaces."""

    #: 68-bit keys (most with a non-zero high limb) for 32- and 64-slot tables.
    KEYS = [random.Random(5).getrandbits(68) for _ in range(40)]

    @settings(max_examples=150, deadline=None)
    @given(
        table_bits=st.sampled_from([5, 6]),
        ops=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 39), st.integers(0, 15)),
            min_size=1,
            max_size=150,
        ),
    )
    def test_equals_scalar_lookup(self, table_bits, ops):
        """High load, wrapping runs, shared keys and backward-shift deletes."""
        memory = RuleFilterMemory(capacity=1 << table_bits)
        stored = []
        for rule_id, (kind, index, priority) in enumerate(ops):
            if kind and len(stored) < memory.capacity:
                # Few priorities: keys hold several entries, some tied.
                memory.insert(self.KEYS[index], Rule.build(rule_id, priority))
                stored.append((self.KEYS[index], rule_id))
            elif stored:
                key, victim = stored.pop(index % len(stored))
                assert memory.delete(key, victim)[0]
        assert_lookup_batch_matches(memory, self.KEYS + [0, 1 << 67, (1 << 68) - 1])

    def test_full_table_has_no_terminator(self):
        memory = RuleFilterMemory(capacity=32)
        for rule_id in range(32):
            memory.insert(self.KEYS[rule_id % 7], Rule.build(rule_id, 40 - rule_id))
        depth = memory.memory.depth
        assert all(memory.memory.peek(slot) is not None for slot in range(depth))
        assert_lookup_batch_matches(memory, self.KEYS)
        assert memory.lookup(self.KEYS[30]).probes == depth

    def test_run_wrapping_past_the_last_slot(self):
        memory = RuleFilterMemory(capacity=32)
        last = memory.hash_unit.table_size - 1
        keys = [key for key in range(5000) if memory.hash_unit.hash(key) == last][:4]
        for rule_id, key in enumerate(keys):
            memory.insert(key, Rule.build(rule_id, 9 - rule_id))
        assert memory.lookup(keys[3]).probes == 5  # slots 31, 0, 1, 2 and the empty 3
        memory.delete(keys[1], 1)  # backward shift across slot 0
        assert_lookup_batch_matches(memory, keys + [key + 1 for key in keys])

    def test_keys_wider_than_128_bits_never_match_a_limb_pair(self):
        memory = RuleFilterMemory(capacity=32)
        wide = (1 << 130) | 12345
        memory.insert(wide, Rule.build(0, 0))
        memory.insert(12345, Rule.build(1, 1))
        assert_lookup_batch_matches(memory, [12345, wide & ((1 << 128) - 1)])
