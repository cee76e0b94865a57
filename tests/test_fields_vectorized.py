"""Tests for the vectorized batch engine walks and their support layers.

The acceptance property is *bit-exact equivalence*: for every engine and
every input value, the results the ids of ``batch_walker(engine).resolve``
name (``walker.result(id)``) must equal ``[engine.lookup(v) for v in
values]`` — matches, ordering, access counts and cycles.  The walkers are
pure Python whether or not NumPy is installed.  Within a walker, equal ids
must mean equal results and the other way round.  Also covers every walker
type's invalidation on engine mutation, the intern tables (ids survive a
rebuild until a prune; a rebuild keeps the table within twice the ids its
view names; the scalar walker's prune), the trie walker's in-place patch on
commit spans (ids of values outside the spans survive it), the batched
hash/rule-filter primitives, the array combiner walk against the sequential
one, and the bounded cache types.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diff_scenarios import DIFFERENTIAL_SEED
from repro.api import create_classifier
from repro.core.config import CombinerMode
from repro.core.dimensions import DIMENSIONS
from repro.core.label_combiner import LabelCombiner
from repro.exceptions import ConfigurationError, FieldLookupError
from repro.fields.prefix import Prefix
from repro.fields.vectorized import (
    BstBatchWalker,
    PortBatchWalker,
    ScalarBatchWalker,
    TrieBatchWalker,
    _merge_matches,
    batch_walker,
)
from repro.hardware.hash_unit import DEFAULT_LABEL_LAYOUT, HashUnit, LabelKeyLayout
from repro.hardware.rule_filter import RuleFilterMemory
from repro.labels.label_list import LabelList
from repro.perf.lru import BoundedCache, LRUCache
from repro.rules.rule import Rule, RuleAction
from repro.rules.ruleset import RuleSet

try:  # the combiner stages its walks in arrays only with NumPy
    import numpy
except ImportError:
    numpy = None

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _sample_values(engine_name: str, rng: random.Random, count: int = 400):
    top = 0xFF if engine_name == "protocol" else 0xFFFF
    return [rng.randint(0, top) for _ in range(count)]


def _results(walker, values):
    """The results the walker's ids for ``values`` name."""
    return [walker.result(result_id) for result_id in walker.resolve(values)]


@pytest.fixture(scope="module", params=["mbt", "bst"])
def built_classifier(request, small_acl_ruleset):
    return create_classifier(
        "configurable", small_acl_ruleset, ip_algorithm=request.param
    )


@pytest.fixture(scope="module")
def domain_lookups(built_classifier):
    """``engine.lookup`` of every value of every dimension's domain."""
    return {
        name: [engine.lookup(value) for value in range(0x100 if name == "protocol" else 1 << 16)]
        for name, engine in built_classifier.engines.items()
    }


class TestWalkerEquivalence:
    def test_every_dimension_bit_exact(self, built_classifier, domain_lookups):
        """A one-value batch, a random sample and the whole domain in order."""
        rng = random.Random(2014)
        for name in DIMENSIONS:
            engine = built_classifier.engines[name]
            walker = batch_walker(engine)
            expected = domain_lookups[name]
            for size in (1, 200):
                values = rng.sample(range(len(expected)), size)
                assert _results(walker, values) == [expected[value] for value in values]
            domain = list(range(len(expected)))
            ids = walker.resolve(domain)
            assert [walker.result(result_id) for result_id in ids] == expected
            # Equal ids <=> equal results: the id -> result pairs are a bijection.
            pairs = set(zip(ids, expected))
            assert len(pairs) == len(set(ids)) == len(set(expected))
            walker.detach()

    def test_walker_types(self, built_classifier):
        expected = {
            "mbt": TrieBatchWalker,
            "bst": BstBatchWalker,
        }[built_classifier.config.ip_algorithm.value]
        assert isinstance(batch_walker(built_classifier.engines["src_ip_lo"]), expected)
        assert isinstance(batch_walker(built_classifier.engines["src_port"]), PortBatchWalker)
        assert isinstance(batch_walker(built_classifier.engines["protocol"]), ScalarBatchWalker)

    @pytest.mark.parametrize(
        "algorithm, name, walker_type",
        [
            ("mbt", "dst_ip_lo", TrieBatchWalker),
            ("bst", "dst_ip_lo", BstBatchWalker),
            ("mbt", "src_port", PortBatchWalker),
            ("mbt", "protocol", ScalarBatchWalker),
        ],
        ids=["trie", "bst", "port", "scalar"],
    )
    def test_invalidation_on_mutation(
        self, small_acl_ruleset, small_fw_ruleset, algorithm, name, walker_type
    ):
        classifier = create_classifier("configurable", small_acl_ruleset, ip_algorithm=algorithm)
        engine = classifier.engines[name]
        walker = batch_walker(engine)
        assert type(walker) is walker_type
        rng = random.Random(7)
        values = _sample_values(name, rng)
        assert _results(walker, values) == [engine.lookup(v) for v in values]
        # Mutate the engine through the real update path and re-check: the
        # walker must rebuild its flattened view, not replay the stale one.
        epoch = engine.mutation_epoch
        installed = 0
        for rule in list(small_fw_ruleset):
            try:
                classifier.install(
                    dataclasses.replace(rule, rule_id=10_000 + rule.rule_id)
                )
            except Exception:
                continue
            installed += 1
            if installed >= 20:
                break
        assert installed > 0
        assert engine.mutation_epoch != epoch
        assert _results(walker, values) == [engine.lookup(v) for v in values]
        # Exactly two flat-view builds: the initial one and the post-mutation
        # rebuild — resolving again on an unchanged engine stays at two.
        assert walker.rebuilds == 2
        assert _results(walker, values) == [engine.lookup(v) for v in values]
        assert walker.rebuilds == 2
        walker.detach()

    def test_out_of_range_value_rejected(self, built_classifier):
        """A value outside the domain, alone or after valid ones, is rejected."""
        for name, bad in (
            ("src_ip_lo", 1 << 16), ("src_ip_hi", -1), ("src_port", -1), ("dst_port", 1 << 16)
        ):
            walker = batch_walker(built_classifier.engines[name])
            for size in (1, 200):
                with pytest.raises(FieldLookupError):
                    walker.resolve([0] * (size - 1) + [bad])
            walker.detach()

    def test_empty_batch(self, built_classifier):
        walker = batch_walker(built_classifier.engines["src_ip_hi"])
        assert walker.resolve([]) == []
        walker.detach()

    #: Rule sets whose tries have empty levels: root-only tries (no rules, or
    #: every source a wildcard) and no node below level 2 (5-5-6 strides, every
    #: prefix /24 or shorter, so the low segments end by bit 8).
    SHALLOW_RULES = {
        "no_rules": lambda: [],
        "wildcard_sources": lambda: [
            Rule.build(i, i, src="0.0.0.0/0", dst=f"10.{i}.3.{i}/32", action=RuleAction.DROP)
            for i in range(20)
        ],
        "prefixes_to_24": lambda: [
            Rule.build(i, i, src=f"10.{i}.3.0/24", dst=f"11.{i}.0.0/16", action=RuleAction.DROP)
            for i in range(20)
        ],
    }

    @pytest.mark.parametrize("shape", sorted(SHALLOW_RULES))
    def test_tries_with_empty_levels_bit_exact(self, shape):
        """Samples and the whole domain, down to a trie level holding no node."""
        classifier = create_classifier("configurable", RuleSet(self.SHALLOW_RULES[shape]()))
        rng = random.Random(2014)
        domain = list(range(1 << 16))
        empty_levels = 0
        for name in ("src_ip_hi", "src_ip_lo", "dst_ip_hi", "dst_ip_lo"):
            engine = classifier.engines[name]
            walker = batch_walker(engine)
            expected = [engine.lookup(value) for value in domain]
            for size in (1, 200):
                values = rng.sample(domain, size)
                assert _results(walker, values) == [expected[value] for value in values]
            assert _results(walker, domain) == expected
            empty_levels += sum(not ids for ids in walker._node_ids)
            walker.detach()
        assert empty_levels > 0


def _named_ids(walker):
    """The ids an array walker's view names: every flat row's or interval's."""
    if isinstance(walker, TrieBatchWalker):
        return set(itertools.chain.from_iterable(walker._node_ids))
    return set(walker._interval_ids)


#: One array walker of each type: (ip_algorithm, dimension).
ARRAY_WALKERS = {
    "trie": ("mbt", "dst_ip_lo"),
    "bst": ("bst", "dst_ip_lo"),
    "port": ("mbt", "dst_port"),
}


class TestInternTable:
    """Ids outlive rebuilds until a prune, and a rebuild bounds the table."""

    @pytest.mark.parametrize("kind", sorted(ARRAY_WALKERS))
    def test_reinserted_rule_results_keep_their_ids(self, small_acl_ruleset, kind):
        """Remove a rule and re-insert it: every value gets its old id back,
        unless the removal's rebuild pruned the table."""
        algorithm, name = ARRAY_WALKERS[kind]
        classifier = create_classifier("configurable", small_acl_ruleset, ip_algorithm=algorithm)
        engine = classifier.engines[name]
        walker = batch_walker(engine)
        sample = random.Random(11).sample(SEGMENT_DOMAIN, 200)
        kept = 0
        for rule in list(small_acl_ruleset)[:20]:
            before = walker.resolve(SEGMENT_DOMAIN)
            epoch = engine.mutation_epoch
            classifier.remove(rule.rule_id)
            if engine.mutation_epoch == epoch:  # the rule is a wildcard here
                classifier.install(rule)
                continue
            interned = walker.interned
            assert _results(walker, sample) == [engine.lookup(v) for v in sample]
            pruned = walker.interned < interned
            classifier.install(rule)
            after = walker.resolve(SEGMENT_DOMAIN)
            assert [walker.result(after[v]) for v in sample] == [engine.lookup(v) for v in sample]
            if not pruned:
                assert after == before
                kept += 1
        assert kept >= 5

    @pytest.mark.parametrize("kind", sorted(ARRAY_WALKERS))
    def test_rebuild_bounds_the_table_by_twice_the_view(self, small_acl_ruleset, kind):
        """Fresh rules come and go: retired results pile up in the table until
        a rebuild finds it over twice the ids its view names and cuts it to
        exactly those."""
        algorithm, name = ARRAY_WALKERS[kind]
        classifier = create_classifier("configurable", small_acl_ruleset, ip_algorithm=algorithm)
        engine = classifier.engines[name]
        walker = batch_walker(engine)
        walker.resolve([0])
        rng = random.Random(7)
        prunes = 0
        for step in range(400):
            if kind == "port":
                low = rng.randrange(1 << 16)
                fields = {"dst_port": f"{low}:{min(0xFFFF, low + rng.randrange(64))}"}
            else:
                octets = ".".join(str(rng.randrange(256)) for _ in range(3))
                fields = {"dst": f"10.{octets}/{rng.randint(17, 32)}"}
            rule = Rule.build(70_000 + step, rng.randrange(300), action=RuleAction.DROP, **fields)
            classifier.install(rule)
            prunes += self._rebuild_within_bound(walker, rng)
            classifier.remove(rule.rule_id)
            prunes += self._rebuild_within_bound(walker, rng)
            if prunes >= 2:
                break
        assert prunes >= 2

    @staticmethod
    def _rebuild_within_bound(walker, rng):
        """Rebuild on a spot check of the engine's lookups; True if it pruned."""
        interned = walker.interned
        values = [rng.randrange(1 << 16) for _ in range(8)]
        assert _results(walker, values) == [walker.engine.lookup(v) for v in values]
        named = _named_ids(walker)
        assert walker.interned <= 2 * len(named)
        if walker.interned < interned:
            assert set(walker._results) == named
            return True
        return False

    def test_scalar_prune_keeps_the_live_ids(self, small_acl_ruleset):
        """``prune`` keeps exactly the live ids; a pruned result comes back
        under a fresh id, never a reused one."""
        classifier = create_classifier("configurable", small_acl_ruleset)
        engine = classifier.engines["protocol"]
        walker = batch_walker(engine)
        assert type(walker) is ScalarBatchWalker
        domain = list(range(0x100))
        ids = walker.resolve(domain)
        distinct = sorted(set(ids))
        assert len(distinct) >= 2
        live = set(distinct[: len(distinct) // 2])
        walker.prune(live)
        assert walker.interned == len(live)
        again = walker.resolve(domain)
        assert [walker.result(i) for i in again] == [engine.lookup(v) for v in domain]
        for old, new in zip(ids, again):
            assert new == old if old in live else new > max(distinct)
        walker.prune(set(again))  # every id still named: nothing to drop
        assert walker.interned == len(set(again))


@settings(max_examples=200, deadline=None)
@given(
    first=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=10),
    second=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)), max_size=10),
)
def test_trie_match_merge_equals_label_list(first, second):
    """The trie rebuild's dict merge against the LabelList merge it replaced."""
    reference = LabelList(first)
    for label, priority in LabelList(second).pairs():
        reference.add(label, priority)
    merged = _merge_matches(tuple(LabelList(first).pairs()), LabelList(second).pairs())
    assert merged == tuple(reference.pairs())


#: Every value of a 16-bit IP segment.
SEGMENT_DOMAIN = list(range(1 << 16))


def _patching_classifier(ruleset):
    """A vectorized classifier whose trie walkers are built and current."""
    classifier = create_classifier("configurable", ruleset, fast=True, vectorized=True)
    walkers = {
        name: walker
        for name, walker in classifier._fast_path._walkers.items()
        if isinstance(walker, TrieBatchWalker)
    }
    assert len(walkers) == 4
    for walker in walkers.values():
        walker.resolve([0])
    return classifier, walkers


def _assert_domain_exact(walker, engine_too=True):
    """The walker resolves every segment value as a fresh walker (and the engine) do."""
    resolved = _results(walker, SEGMENT_DOMAIN)
    fresh = batch_walker(walker.engine)
    assert resolved == _results(fresh, SEGMENT_DOMAIN)
    if engine_too:
        lookup = walker.engine.lookup
        assert resolved == [lookup(value) for value in SEGMENT_DOMAIN]


def _spare_rule(rule_id, dst, priority=10_000):
    """A rule whose dst /32 is new to the ACL set: a narrow structural span."""
    return Rule.build(rule_id, priority, dst=dst, action=RuleAction.DROP)


@pytest.mark.mutation
class TestWalkerPatch:
    """Trie walkers patch on commit spans and stay bit-exact with the engine."""

    KINDS = ("insert", "remove", "reprioritize")

    def test_random_commits_stay_bit_exact(self, small_acl_ruleset, monkeypatch):
        """Seeded inserts, removes and pure reprioritizations, checked per commit.

        Commits run until each kind has moved a trie engine.  Every
        walker whose engine moved must resolve the whole 16-bit domain
        exactly as a freshly built walker and as ``engine.lookup`` do (~1 s
        per walker), and give every value outside the commit's spans the id
        it had before; the others kept their view and their engine.
        """
        classifier, walkers = _patching_classifier(small_acl_ruleset)
        accelerator = classifier._fast_path
        scopes = []
        note_commit = accelerator.note_commit

        def recording_note_commit(scope):
            scopes.append(scope)
            note_commit(scope)

        monkeypatch.setattr(accelerator, "note_commit", recording_note_commit)
        rng = random.Random(DIFFERENTIAL_SEED)
        installed = dict(classifier.update_engine.rules)
        checked = dict.fromkeys(self.KINDS, 0)
        kept_ids = 0
        for step in range(90):
            if min(checked.values()):
                break
            kind = self.KINDS[step % 3]
            source = installed[rng.choice(sorted(installed))]
            txn = classifier.control.begin()
            if kind == "remove":
                del installed[source.rule_id]
                txn.remove(source.rule_id)
            else:
                # A copy shares every field spec, so it only reprioritizes the
                # labels it now outranks; an insert also takes a fresh prefix.
                rule = dataclasses.replace(
                    source, rule_id=50_000 + step, priority=rng.randint(0, source.priority)
                )
                if kind == "insert":
                    fresh = Prefix(rng.getrandbits(32), rng.randint(1, 32))
                    field = rng.choice(("src_prefix", "dst_prefix"))
                    rule = dataclasses.replace(rule, **{field: fresh})
                txn.insert(rule)
                installed[rule.rule_id] = rule
            epochs = {name: walker.engine.mutation_epoch for name, walker in walkers.items()}
            before = {name: walker.resolve(SEGMENT_DOMAIN) for name, walker in walkers.items()}
            txn.commit()
            moved = [
                name for name, walker in walkers.items()
                if walker.engine.mutation_epoch != epochs[name]
            ]
            checked[kind] += bool(moved)
            for name in moved:
                walker = walkers[name]
                _assert_domain_exact(walker)
                if scopes[-1].wholesale:
                    continue  # no spans to keep ids outside of
                spans = scopes[-1].field_spans.get(name, ())
                after = walker.resolve(SEGMENT_DOMAIN)
                kept = [
                    value for value in SEGMENT_DOMAIN
                    if not any(low <= value <= high for low, high in spans)
                ]
                assert [after[value] for value in kept] == [before[name][value] for value in kept]
                kept_ids += len(kept)
        assert min(checked.values()), checked
        assert kept_ids  # some commit left part of a moved walker's domain alone
        assert sum(walker.patches for walker in walkers.values()) > 0

    def _fallback(self, classifier, walkers, setup):
        """Run ``setup`` and return the dst_ip_lo walker's (rebuilds, patches) delta."""
        walker = walkers["dst_ip_lo"]
        before = (walker.rebuilds, walker.patches)
        epoch = walker.engine.mutation_epoch
        setup(classifier)
        assert walker.engine.mutation_epoch != epoch
        _assert_domain_exact(walker, engine_too=False)
        return walker.rebuilds - before[0], walker.patches - before[1]

    @pytest.mark.parametrize("commits", [1, 3])
    def test_narrow_commits_patch_once(self, small_acl_ruleset, commits):
        """Commits with no traffic in between queue up into one patch."""
        classifier, walkers = _patching_classifier(small_acl_ruleset)

        def setup(classifier):
            for index in range(commits):
                rule = _spare_rule(60_000 + index, f"10.1.2.{3 + index}/32")
                classifier.control.begin().insert(rule).commit()

        assert self._fallback(classifier, walkers, setup) == (0, 1)

    @pytest.mark.parametrize(
        "case", ["length_zero_span", "behind_pre_epoch", "out_of_band_install", "wholesale"]
    )
    def test_fallbacks_rebuild(self, small_acl_ruleset, case):
        classifier, walkers = _patching_classifier(small_acl_ruleset)
        narrow = _spare_rule(60_000, "10.1.2.3/32")
        other = _spare_rule(60_001, "10.1.2.4/32")

        def setup(classifier):
            control = classifier.control
            if case == "length_zero_span":
                # dst 10.77/16 leaves a length-0 prefix in the low segment:
                # the root's own labels change, a whole-domain span.
                control.begin().insert(_spare_rule(60_002, "10.77.0.0/16", priority=0)).commit()
            elif case == "behind_pre_epoch":
                classifier.install_rule(other)  # the walker misses this mutation
                control.begin().insert(narrow).commit()
            elif case == "out_of_band_install":
                control.begin().insert(narrow).commit()
                classifier.install_rule(other)  # moves the engine past the patch
            else:
                classifier.rule_filter.DIRTY_BUDGET = 0  # the scope degrades to wholesale
                control.begin().insert(narrow).commit()

        assert self._fallback(classifier, walkers, setup) == (1, 0)

    def test_patched_views_stay_within_twice_the_trie(self, small_acl_ruleset):
        """200 single-op commits: orphaned rows never outnumber live nodes.

        Random values spot-check exactness after every commit as well.
        """
        classifier, walkers = _patching_classifier(small_acl_ruleset)
        rng = random.Random(DIFFERENTIAL_SEED)
        installed = sorted(classifier.update_engine.rules)
        removed = {}
        peak = 0.0
        for _ in range(200):
            txn = classifier.control.begin()
            if removed and (len(removed) > 20 or rng.random() < 0.5):
                txn.insert(removed.pop(rng.choice(sorted(removed))))
            else:
                rule_id = rng.choice([rid for rid in installed if rid not in removed])
                removed[rule_id] = classifier.update_engine.rules[rule_id]
                txn.remove(rule_id)
            txn.commit()
            for walker in walkers.values():
                values = [rng.randrange(1 << 16) for _ in range(8)]
                assert _results(walker, values) == [walker.engine.lookup(v) for v in values]
                flat = sum(map(len, walker._node_ids))
                assert flat <= 2 * walker.engine.node_count()
                peak = max(peak, flat / walker.engine.node_count())
        assert sum(walker.patches for walker in walkers.values()) > 0
        assert peak > 1.0  # patches did leave orphans behind


class TestBatchedHashAndFilter:
    def test_hash_batch_bit_exact(self):
        unit = HashUnit(table_bits=14)
        rng = random.Random(3)
        keys = [rng.getrandbits(68) for _ in range(4000)] + list(range(40))
        assert unit.hash_batch(keys) == [unit.hash(key) for key in keys]

    def test_hash_batch_small_fallback(self):
        unit = HashUnit(table_bits=10)
        keys = [5, 6, 7]
        assert unit.hash_batch(keys) == [unit.hash(key) for key in keys]

    def test_lookup_batch_matches_lookup(self, small_acl_ruleset):
        classifier = create_classifier("configurable", small_acl_ruleset)
        rule_filter = classifier.rule_filter
        stored_keys = [entry.label_key for entry in rule_filter.entries()][:200]
        rng = random.Random(11)
        keys = stored_keys + [rng.getrandbits(68) for _ in range(200)]
        batch = rule_filter._lookup_many(keys + keys)  # duplicates resolved once
        assert set(batch) == set(keys)
        for key in keys:
            single = rule_filter.lookup(key)
            entry, probes, home = batch[key]
            assert entry == single.entry
            assert probes == single.probes
            assert home == single.home
            # lookup() charges one memory access per probe; the compact pair
            # preserves exactly that.
            assert probes == single.memory_accesses

    def test_lookup_batch_counts_reads_in_bulk(self, small_acl_ruleset):
        classifier = create_classifier("configurable", small_acl_ruleset)
        rule_filter = classifier.rule_filter
        keys = [entry.label_key for entry in rule_filter.entries()][:64]
        rule_filter.memory.reset_counters()
        batch = rule_filter._lookup_many(keys)
        bulk_reads = rule_filter.memory.counter.reads
        assert bulk_reads == sum(probes for _, probes, _ in batch.values())
        for key, (_, _, home) in batch.items():
            assert home == rule_filter.lookup(key).home


def _assert_cached_walk_exact(layout):
    """``combine_with_cache`` equals ``combine`` on random lists under ``layout``."""
    rule_filter = RuleFilterMemory(capacity=1024)
    combiner = LabelCombiner(rule_filter, layout, mode=CombinerMode.CROSS_PRODUCT)
    rng = random.Random(12)
    widths = layout.field_widths()
    lists = tuple(
        tuple(
            (rng.randrange(1 << widths[dim]), rng.randrange(50))
            for _ in range(3)
        )
        for dim in range(len(DIMENSIONS))
    )
    # Store rules under a handful of the reachable combinations.
    for rule_id in range(12):
        labels = [rng.choice(entries)[0] for entries in lists]
        rule_filter.insert(
            layout.pack(labels),
            Rule.build(rule_id, rng.randrange(50), action=RuleAction.DROP),
        )
    reference = combiner.combine(dict(zip(DIMENSIONS, lists)))
    cached = combiner.combine_with_cache([lists], BoundedCache(512), BoundedCache(64))
    assert cached.outcomes == [reference]
    assert cached.probes == reference.probes


class TestWideLayoutStaging:
    def test_cached_walk_handles_shifts_past_bit_63(self):
        """Custom layouts whose first field shifts >= 64 bits stay exact.

        With ``ip_label_bits=17`` the packed key is 84 bits and the first
        field's shift is 67 — the two-limb NumPy staging must place it
        entirely in the high limb (shifting a uint64 by >= 64 is undefined),
        and the result must match the uncached combine() walk.
        """
        layout = LabelKeyLayout(ip_label_bits=17)
        assert layout.total_bits == 84
        _assert_cached_walk_exact(layout)

    def test_layouts_wider_than_128_bits(self):
        """132-bit keys take the block walk, whose batched hash must not overflow."""
        layout = LabelKeyLayout(ip_label_bits=29)
        assert layout.total_bits == 132
        _assert_cached_walk_exact(layout)
        unit = HashUnit(table_bits=10)
        rng = random.Random(13)
        keys = [rng.getrandbits(132) for _ in range(40)]
        assert unit.hash_batch(keys) == [unit.hash(key) for key in keys]


def _walk_both(combiner, batch, probe_cache):
    """Run ``combine`` per item and ``combine_with_cache`` on the batch.

    Returns both sides as lists of ``(outcome, probe log)`` pairs.
    """
    reference = []
    for lists in batch:
        log = []
        reference.append((combiner.combine(dict(zip(DIMENSIONS, lists)), log), log))
    logs = [[] for _ in batch]
    cached = combiner.combine_with_cache(batch, probe_cache, BoundedCache(64), logs)
    assert cached.probes == sum(outcome.probes for outcome, _ in reference)
    return reference, list(zip(cached.outcomes, logs))


class TestArrayCombinerWalk:
    """The batched walk against the sequential ``combine`` walk.

    With NumPy, an item within the probe budget and :attr:`STAGE_CAP` takes
    the array walk, which leaves the probe cache empty; the block walk, which
    every other item takes, fills it.  Without NumPy every item takes the
    block walk.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 4]), min_size=7, max_size=7),
            min_size=1,
            max_size=6,
        ),
        empty=st.sets(st.integers(0, 5), max_size=2),
        repeats=st.lists(st.integers(0, 5), max_size=3),
        rules=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.lists(st.integers(0, 3), min_size=7, max_size=7),
                st.integers(0, 40),
            ),
            max_size=24,
        ),
        filler=st.integers(0, 8),
        table_bits=st.sampled_from([5, 6]),
        budget=st.sampled_from([1, 2, 3, 7, 64, 4096]),
        stage_cap=st.sampled_from([0, 24, 1 << 12]),
        block=st.sampled_from([1, 5, 256]),
        consistent=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_equals_combine(
        self, shapes, empty, repeats, rules, filler, table_bits, budget, stage_cap,
        block, consistent, seed,
    ):
        """A batch of 1-6 list tuples over one rule filter, one call.

        Items with an empty list, repeated items, products beyond the budget
        or ``stage_cap``, high-load tables and truncating budgets mix staged
        items (split over several passes by a small ``stage_cap``), block
        walks and no-match outcomes.  ``consistent`` label priorities are the
        best priority of any rule using the label (what the label tables
        maintain), so every staged item stays staged; arbitrary ones may
        fail the staged check and force the block walk.
        """
        rng = random.Random(seed)
        layout = DEFAULT_LABEL_LAYOUT
        rule_filter = RuleFilterMemory(capacity=1 << table_bits)
        combiner = LabelCombiner(rule_filter, layout, probe_budget=budget)
        combiner.STAGE_CAP = stage_cap
        combiner.PROBE_BLOCK = block
        # Odd items hold labels 4-7 and even ones 0-3 (the 2-bit protocol
        # field aside), so a pass mixes segments that share keys with
        # segments that share none.
        first = [[4 * (item % 2)] * 6 + [0] for item in range(len(shapes))]
        best = [dict() for _ in DIMENSIONS]
        for rule_id, (item, picks, priority) in enumerate(rules):
            # Each rule is reachable from the item it is drawn for.
            item %= len(shapes)
            labels = [
                low + pick % size for low, pick, size in zip(first[item], picks, shapes[item])
            ]
            rule_filter.insert(layout.pack(labels), Rule.build(rule_id, priority))
            for dim, label in enumerate(labels):
                best[dim][label] = min(priority, best[dim].get(label, priority))
        for rule_id in range(len(rules), len(rules) + filler):
            # Unreachable keys (no list holds label 9) that only add load.
            labels = [9, rule_id] + [0] * 5
            rule_filter.insert(layout.pack(labels), Rule.build(rule_id, rule_id))
        batch = []
        for item, sizes in enumerate(shapes):
            if item in empty:
                sizes = sizes[:6] + [0]
            batch.append(tuple(
                tuple(
                    (label, best[dim].get(label, 41) if consistent else rng.randrange(42))
                    for label in range(low, low + size)
                )
                for dim, (low, size) in enumerate(zip(first[item], sizes))
            ))
        batch += [batch[item] for item in repeats if item < len(batch)]
        probe_cache = BoundedCache(4096)
        reference, cached = _walk_both(combiner, batch, probe_cache)
        assert cached == reference
        staged_only = all(
            math.prod(map(len, lists)) <= min(budget, stage_cap) for lists in batch
        )
        if numpy is not None and consistent and staged_only:
            assert len(probe_cache) == 0

    def test_product_spanning_several_chunks(self):
        """A product beyond the budget: the first hit prunes all the rest."""
        rule_filter = RuleFilterMemory(capacity=64)
        combiner = LabelCombiner(rule_filter, DEFAULT_LABEL_LAYOUT, probe_budget=10)
        lists = [((0, 0),)] * 4 + [tuple((label, label) for label in range(4))] * 3
        rule_filter.insert(DEFAULT_LABEL_LAYOUT.pack([0] * 7), Rule.build(1, 0))
        probe_cache = BoundedCache(4096)
        reference, cached = _walk_both(combiner, [tuple(lists)], probe_cache)
        assert cached == reference
        # 64 combinations against a budget of 10.
        assert cached[0][0].probes == 1 and not cached[0][0].truncated

    def test_budget_reached_in_a_later_chunk(self):
        """The budget runs out with live combinations left: a truncated walk.

        Product order is (0,0) bound 0, which hits priority 5, (0,1) bound 0
        and (0,2) bound 8, pruned; then (1,0) and (1,1), both bound 0, are
        live but only one probe of the budget of 3 remains.
        """
        layout = DEFAULT_LABEL_LAYOUT
        rule_filter = RuleFilterMemory(capacity=64)
        combiner = LabelCombiner(rule_filter, layout, probe_budget=3)
        rule_filter.insert(layout.pack([0] * 7), Rule.build(1, 5))
        lists = (((0, 0), (1, 0)), ((0, 0), (1, 0), (2, 8))) + (((0, 0),),) * 5
        reference, cached = _walk_both(combiner, [lists], BoundedCache(4096))
        assert cached == reference
        assert reference[0][0].probes == 3 and reference[0][0].truncated

    def test_pruned_better_entry_forces_the_block_walk(self):
        """A rule below its labels' priorities breaks the prefix-minimum walk.

        Product order is (1,1) bound 1, (1,2) bound 5, (2,1) bound 2, (2,2)
        bound 5.  The sequential walk probes (1,1) (priority 4), prunes (1,2)
        and probes (2,1) (priority 3).  A prefix minimum over every
        combination would count (1,2)'s priority-1 entry and prune (2,1).
        """
        layout = DEFAULT_LABEL_LAYOUT
        rule_filter = RuleFilterMemory(capacity=64)
        combiner = LabelCombiner(rule_filter, layout)
        for rule_id, (first, second, priority) in enumerate(
            [(1, 1, 4), (1, 2, 1), (2, 1, 3)]
        ):
            key = layout.pack([first, second, 0, 0, 0, 0, 0])
            rule_filter.insert(key, Rule.build(rule_id, priority))
        lists = (((1, 1), (2, 2)), ((1, 1), (2, 5))) + (((0, 0),),) * 5
        probe_cache = BoundedCache(4096)
        reference, cached = _walk_both(combiner, [lists], probe_cache)
        assert cached == reference
        assert reference[0][0].entry.rule_id == 2 and reference[0][0].probes == 2
        assert len(probe_cache) > 0


class TestBoundedCaches:
    def test_lru_eviction_order_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a": "b" is now the LRU entry
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 1  # clear() is invalidation, not eviction

    def test_lru_put_refreshes_existing(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: nothing evicted
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_bounded_cache_fifo(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # reads do not refresh: "a" stays oldest
        cache.put("c", 3)
        assert "a" not in cache and cache.evictions == 1

    def test_bounded_cache_put_many(self):
        cache = BoundedCache(3)
        cache.put("a", 1)
        cache.put_many({"b": 2, "c": 3, "d": 4})
        assert len(cache) == 3
        assert "a" not in cache  # oldest evicted first
        assert cache.evictions == 1

    @pytest.mark.parametrize("cache_type", [LRUCache, BoundedCache])
    def test_non_positive_limit_rejected(self, cache_type):
        with pytest.raises(ConfigurationError):
            cache_type(0)
