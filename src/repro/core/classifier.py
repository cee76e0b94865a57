"""The configurable packet classifier — the paper's primary contribution.

:class:`ConfigurableClassifier` instantiates the full architecture of Fig. 2:

* seven parallel single-field engines — the four 16-bit IP segment engines
  (Multi-bit Trie or Binary Search Tree, selected by ``IPalg_s``), two port
  register files and the protocol LUT;
* per-dimension Label Tables with reference counters (the update path);
* the Label Combiner and the hash-addressed Rule Filter (the lookup path);
* the shared-memory model, the provisioned memory inventory and the clock
  model feeding the Table V/VI/VII evaluations.

The classifier is deliberately a *behavioural* model: results are bit-exact
with respect to the classification semantics (validated against the linear
scan ground truth), while clock cycles and memory accesses are accounted
according to the cost model of section V rather than simulated at RTL level.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.config import ClassifierConfig, CombinerMode, IpAlgorithm
from repro.core.dimensions import (
    DIMENSIONS,
    IP_DIMENSIONS,
    PORT_DIMENSIONS,
    packet_dimension_values,
)
from repro.core.label_combiner import LabelCombiner
from repro.core.result import (
    BatchResult,
    Classification,
    ClassifierReport,
    ClassifierStats,
    LookupResult,
    MatchedRule,
    UpdateResult,
)
from repro.core.update_engine import UpdateEngine
from repro.exceptions import ConfigurationError
from repro.fields.base import SingleFieldEngine
from repro.fields.binary_search_tree import BinarySearchTree
from repro.fields.multibit_trie import MultibitTrie
from repro.fields.port_registers import PortRegisterFile
from repro.fields.protocol_table import ProtocolTable
from repro.hardware.clock import ClockModel, CycleReport
from repro.hardware.memory import MemoryBank
from repro.hardware.memory_sharing import SharedMemoryBank, SharedView
from repro.hardware.rule_filter import RuleFilterMemory
from repro.labels.label_table import LabelTable
from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

__all__ = ["ConfigurableClassifier"]

#: Cycles of the dispatch phase (header segmentation, Lookup_s strobe).
DISPATCH_CYCLES = 1
#: Extra cycle to dereference the label-list pointer returned by an engine.
LABEL_FETCH_CYCLES = 1
#: Cycles of the final result phase (rule filter read + action output).
FINAL_CYCLES = 2


class ConfigurableClassifier:
    """Behavioural model of the configurable SDN packet classifier.

    Satisfies the unified :class:`repro.api.PacketClassifier` protocol
    directly: :meth:`classify` / :meth:`classify_batch` return the
    engine-independent :class:`~repro.core.result.Classification` records
    (the full :class:`~repro.core.result.LookupResult` breakdown rides along
    as ``Classification.detail``), and :meth:`install` / :meth:`remove` drive
    the incremental update path.
    """

    #: Registry name under the unified API.
    name = "configurable"

    def __init__(self, config: Optional[ClassifierConfig] = None) -> None:
        self.config = config or ClassifierConfig()
        self._fast_path = None
        self._flow_cache = None
        self._control = None
        self._build()

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        layout = self.config.label_layout
        self.engines: Dict[str, SingleFieldEngine] = {}
        for dimension in IP_DIMENSIONS:
            self.engines[dimension] = self._make_ip_engine(dimension)
        for dimension in PORT_DIMENSIONS:
            self.engines[dimension] = PortRegisterFile(
                name=dimension, capacity=self.config.provisioning.port_registers
            )
        self.engines["protocol"] = ProtocolTable(name="protocol")

        self.label_tables: Dict[str, LabelTable] = {}
        for dimension in IP_DIMENSIONS:
            self.label_tables[dimension] = LabelTable(dimension, layout.ip_label_bits)
        for dimension in PORT_DIMENSIONS:
            self.label_tables[dimension] = LabelTable(dimension, layout.port_label_bits)
        self.label_tables["protocol"] = LabelTable("protocol", layout.protocol_label_bits)

        self.rule_filter = RuleFilterMemory(capacity=self.config.rule_capacity())
        self.combiner = LabelCombiner(
            rule_filter=self.rule_filter,
            layout=layout,
            mode=self.config.combiner_mode,
        )
        self.update_engine = UpdateEngine(
            config=self.config,
            engines=self.engines,
            label_tables=self.label_tables,
            rule_filter=self.rule_filter,
        )
        self.clock = ClockModel(frequency_hz=self.config.clock_mhz * 1e6)
        self.shared_memory = self._make_shared_memory()

    def _make_ip_engine(self, dimension: str) -> SingleFieldEngine:
        if self.config.ip_algorithm is IpAlgorithm.MBT:
            return MultibitTrie(
                name=f"{dimension}_mbt",
                width=16,
                strides=self.config.mbt_strides,
                pipelined=True,
                cycles_per_level=self.config.mbt_cycles_per_level,
            )
        return BinarySearchTree(name=f"{dimension}_bst", width=16)

    def _make_shared_memory(self) -> SharedMemoryBank:
        depth, width = self.config.provisioning.mbt_level_geometry[1]
        bank = SharedMemoryBank(
            name="shared_ip_memory",
            depth=depth,
            width=width,
            view_a=SharedView("mbt_level2", "Multi-bit Trie level-2 node memory (Data 1)"),
            view_b=SharedView("bst_nodes", "Binary Search Tree node memory (Data 2)"),
            reclaimable_bits=self.config.provisioning.reclaimable_bits(),
        )
        if self.config.ip_algorithm is IpAlgorithm.BST:
            bank.select("bst_nodes")
        return bank

    # ------------------------------------------------------------------ control plane
    @property
    def control(self) -> "ClassifierControl":
        """The transactional mutation surface of this classifier.

        The **sole supported mutation path**: open a transaction with
        ``classifier.control.begin()``, stage ``insert``/``remove``/
        ``reconfigure`` ops and ``commit()`` — the ops land all-or-nothing
        and the commit is epoch-stamped (see :mod:`repro.api.control`).  The
        ``install``/``remove`` methods below are the internal bootstrap
        primitives single-op commits are built from.
        """
        if self._control is None:
            from repro.api.control import ClassifierControl

            self._control = ClassifierControl(self)
        return self._control

    # ------------------------------------------------------------------ update internals
    def install(self, rule: Rule) -> UpdateResult:
        """Install one rule through the incremental update path.

        Internal/bootstrap primitive (used by the factories to load the
        initial rule set); live mutations should go through :attr:`control`.
        """
        return self.update_engine.insert_rule(rule)

    def remove(self, rule_id: int) -> UpdateResult:
        """Remove one installed rule through the incremental update path.

        Internal/bootstrap primitive; live mutations should go through
        :attr:`control`.
        """
        return self.update_engine.delete_rule(rule_id)

    #: Historical aliases of :meth:`install` / :meth:`remove` (kept stable
    #: because the control-plane literature says "install/remove a rule").
    def install_rule(self, rule: Rule) -> UpdateResult:
        """Alias of :meth:`install`."""
        return self.install(rule)

    def remove_rule(self, rule_id: int) -> UpdateResult:
        """Alias of :meth:`remove`."""
        return self.remove(rule_id)

    def install_ruleset(self, ruleset: Iterable[Rule]) -> List[UpdateResult]:
        """Install every rule of a rule set (priority order preserved)."""
        return [self.install_rule(rule) for rule in ruleset]

    @property
    def installed_rules(self) -> int:
        """Number of rules currently installed."""
        return self.update_engine.installed_rules

    # ------------------------------------------------------------------ lookup API
    def classify(self, packet: PacketHeader) -> Classification:
        """Classify one packet header (unified API).

        Returns the engine-independent :class:`Classification`; the full
        :class:`LookupResult` (per-phase cycles, per-dimension accesses,
        label lists) is available as ``.detail``.
        """
        return Classification.from_lookup(self._lookup(packet))

    def classify_batch(self, packets: Iterable[PacketHeader]) -> BatchResult:
        """Classify every packet of ``packets`` (unified API).

        With the fast path enabled (:meth:`enable_fast_path`), the batch is
        classified through the :mod:`repro.perf` memoizing accelerator —
        identical :class:`Classification` results, far higher throughput on
        traces with field-value redundancy.  With a flow cache enabled
        (:meth:`enable_flow_cache`), an exact-match flow tier serves
        repeating 5-tuples first and only cache-miss traffic reaches the
        lookup path.
        """
        flow_cache = self._flow_cache
        if flow_cache is not None:
            if not isinstance(packets, (list, tuple)):
                packets = list(packets)
            return flow_cache.classify_batch(packets, self._classify_batch_uncached)
        return self._classify_batch_uncached(packets)

    def _classify_batch_uncached(self, packets: Iterable[PacketHeader]) -> BatchResult:
        """The batch path below the flow-cache tier (fast path or per-packet)."""
        if self._fast_path is not None:
            return self._fast_path.classify_batch(packets)
        return BatchResult(tuple(self.classify(packet) for packet in packets))

    # ------------------------------------------------------------------ fast path
    def enable_fast_path(
        self, vectorized: bool = False, flow_cache=None
    ) -> "FastPathAccelerator":
        """Attach (and return) the batch-lookup accelerator of :mod:`repro.perf`.

        Subsequent :meth:`classify_batch` calls run through per-dimension and
        combiner-outcome caches that are invalidated automatically on rule
        installs/removes.  ``vectorized=True`` additionally resolves cold
        misses through the :mod:`repro.fields.vectorized` batch engine
        walkers and the cached combiner walk (much faster first pass over a
        trace).  Results are bit-exact with the per-packet path either way.

        ``flow_cache`` optionally stacks the exact-match flow tier on top:
        ``True`` attaches a default :class:`~repro.perf.flowcache.FlowCache`,
        or pass a configured instance (see :meth:`enable_flow_cache`).

        Re-enabling with a different ``vectorized`` setting swaps the
        attached accelerator (dropping its caches); re-enabling with the same
        setting returns the existing one untouched.
        """
        if self._fast_path is not None and self._fast_path.vectorized != vectorized:
            self.disable_fast_path()
        if self._fast_path is None:
            from repro.perf.fastpath import FastPathAccelerator

            self._fast_path = FastPathAccelerator(self, vectorized=vectorized)
        if flow_cache is not None:
            self.enable_flow_cache(None if flow_cache is True else flow_cache)
        return self._fast_path

    def disable_fast_path(self) -> None:
        """Detach the batch accelerator; classify_batch reverts to per-packet."""
        if self._fast_path is not None:
            self._fast_path.detach()
            self._fast_path = None

    @property
    def fast_path_enabled(self) -> bool:
        """True when classify_batch runs through the memoizing fast path."""
        return self._fast_path is not None

    # ------------------------------------------------------------------ flow cache
    def enable_flow_cache(self, cache=None, **options) -> "FlowCache":
        """Attach (and return) an exact-match flow tier in front of lookups.

        Pass a pre-built :class:`~repro.perf.flowcache.FlowCache` as
        ``cache``, or construction keywords (``capacity``, ``policy``,
        ``idle_timeout``, ``hard_timeout``, ``predictor``) to build one.
        The tier fronts whatever batch path is active — per-packet, fast
        path, or vectorized — and is invalidated surgically by control-plane
        commits (wholesale on untracked mutations).  Replaces any previously
        attached flow cache.
        """
        from repro.perf.flowcache import FlowCache

        if cache is None:
            cache = FlowCache(**options)
        elif options:
            raise ConfigurationError(
                "pass either a FlowCache instance or construction options, not both"
            )
        if self._flow_cache is not None:
            self._flow_cache.unbind()
        cache.bind(self)
        self._flow_cache = cache
        return cache

    def disable_flow_cache(self) -> None:
        """Detach the flow tier; classify_batch reverts to the lookup path."""
        if self._flow_cache is not None:
            self._flow_cache.unbind()
            self._flow_cache = None

    @property
    def flow_cache(self) -> Optional["FlowCache"]:
        """The attached flow cache, or None."""
        return self._flow_cache

    def _lookup(self, packet: PacketHeader) -> LookupResult:
        """Classify one packet header and return the HPMR with its cost."""
        values = packet_dimension_values(packet)
        field_results = {name: self.engines[name].lookup(values[name]) for name in DIMENSIONS}
        outcome = self.combiner.combine(
            {name: result.matches for name, result in field_results.items()}
        )
        return self._assemble_lookup(field_results, outcome)

    def _assemble_lookup(self, field_results, outcome) -> LookupResult:
        """Build the :class:`LookupResult` of one lookup from its parts.

        Shared by the per-packet path and the :mod:`repro.perf` fast path so
        the cost-model accounting (per-phase cycles, per-dimension accesses)
        is assembled by exactly one piece of code.
        """
        cycles = CycleReport(operation="lookup", pipelined=self._fully_pipelined())
        cycles.add_phase("dispatch", DISPATCH_CYCLES)
        # Phase 2 runs every engine in parallel: its latency is the slowest
        # engine, and one extra cycle dereferences the label-list pointer.
        slowest = max(result.cycles for result in field_results.values())
        cycles.add_phase("field_lookup", slowest)
        cycles.add_phase("label_fetch", LABEL_FETCH_CYCLES)
        cycles.add_phase("label_combination", outcome.cycles)
        cycles.add_phase("rule_fetch", FINAL_CYCLES)

        match = None
        if outcome.entry is not None:
            match = MatchedRule(
                rule_id=outcome.entry.rule_id,
                priority=outcome.entry.priority,
                action=outcome.entry.action,
            )
        accesses = {name: result.memory_accesses for name, result in field_results.items()}
        accesses["rule_filter"] = outcome.memory_accesses
        return LookupResult(
            match=match,
            field_labels={name: result.matches for name, result in field_results.items()},
            cycles=cycles,
            memory_accesses=accesses,
            combiner_probes=outcome.probes,
            truncated=outcome.truncated,
        )

    def _fully_pipelined(self) -> bool:
        return all(engine.pipelined for engine in self.engines.values())

    # ------------------------------------------------------------------ reconfiguration
    def reconfigure(self, ip_algorithm: IpAlgorithm) -> int:
        """Switch the ``IPalg_s`` signal and rebuild the IP engines.

        The SDN controller recomputes the algorithm memory contents in
        software and re-uploads them (section IV.A); behaviourally this means
        re-installing every rule into freshly built engines.  Returns the
        number of rules re-installed.
        """
        if ip_algorithm is self.config.ip_algorithm:
            return 0
        # Replay in the original installation order — label values depend on
        # insertion order, so replaying sorted by rule id would rebuild a
        # *different* (though behaviourally equivalent) state and violate the
        # install_ruleset "priority order preserved" contract.
        rules = self.update_engine.installed_rules_in_order()
        was_fast = self.fast_path_enabled
        was_vectorized = was_fast and self._fast_path.vectorized
        self.disable_fast_path()
        self.config = self.config.with_ip_algorithm(ip_algorithm)
        self._build()
        for rule in rules:
            self.install_rule(rule)
        if was_fast:
            # The accelerator hooked the *old* engines; rebind it to the new ones.
            self.enable_fast_path(vectorized=was_vectorized)
        return len(rules)

    def set_combiner_mode(self, mode: CombinerMode) -> None:
        """Switch between the paper's first-label fast path and cross-product."""
        self.config = self.config.with_combiner(mode)
        self.combiner.mode = mode
        if self._fast_path is not None:
            # Memoized combiner outcomes belong to the previous mode.
            self._fast_path.invalidate()
        if self._flow_cache is not None:
            # Cached flow decisions belong to the previous mode too — and a
            # combiner swap bumps no engine epoch, so flush explicitly.
            self._flow_cache.invalidate()

    # ------------------------------------------------------------------ reporting
    def occupancy_cycles(self) -> float:
        """Steady-state cycles per packet of the current configuration.

        MBT configurations are fully pipelined (1 packet per cycle); a BST
        configuration is limited by the iterative BST search, i.e. its
        worst-case comparison count.
        """
        if self._fully_pipelined():
            return 1.0
        return float(
            max(
                engine.lookup_cycles
                for engine in self.engines.values()
                if not engine.pipelined
            )
        )

    def lookup_latency_cycles(self) -> int:
        """End-to-end latency of one lookup through an empty pipeline."""
        slowest = max(engine.lookup_cycles for engine in self.engines.values())
        return DISPATCH_CYCLES + slowest + LABEL_FETCH_CYCLES + 1 + FINAL_CYCLES

    def throughput_gbps(self, packet_bytes: Optional[int] = None) -> float:
        """Line-rate throughput of the current configuration (Table VI/VII)."""
        return self.clock.throughput_gbps(
            self.occupancy_cycles(), packet_bytes or self.config.min_packet_bytes
        )

    def memory_bits(self) -> int:
        """Total occupied memory in bits (unified API)."""
        return sum(self.memory_bits_used().values())

    def stats(self) -> ClassifierStats:
        """Engine-independent snapshot (unified API)."""
        report = self.report()
        return ClassifierStats(
            name=self.name,
            rules=report.rules_installed,
            memory_bits=report.total_memory_bits_used,
            details={
                "ip_algorithm": report.ip_algorithm,
                "combiner_mode": report.combiner_mode,
                "rule_capacity": report.rule_capacity,
                "throughput_gbps": report.throughput_gbps,
                "lookup_latency_cycles": report.lookup_latency_cycles,
                "memory_bits_provisioned": report.total_memory_bits_provisioned,
                "update_model": "incremental",
                "fast_path": self.fast_path_enabled,
                "fast_path_vectorized": self.fast_path_enabled and self._fast_path.vectorized,
                "flow_cache": self._flow_cache is not None,
                "flow_cache_policy": (
                    self._flow_cache.policy if self._flow_cache is not None else None
                ),
            },
        )

    def memory_bits_used(self) -> Dict[str, int]:
        """Occupied memory per component for the currently installed rules."""
        used = {name: engine.memory_bits() for name, engine in self.engines.items()}
        layout = self.config.label_layout
        label_bits = 0
        for name, table in self.label_tables.items():
            if name in IP_DIMENSIONS:
                value_bits = 16 + 5
                width = layout.ip_label_bits
            elif name in PORT_DIMENSIONS:
                value_bits = 32
                width = layout.port_label_bits
            else:
                value_bits = 9
                width = layout.protocol_label_bits
            label_bits += table.unique_values * (value_bits + width + 16)
        used["label_tables"] = label_bits
        used["rule_filter"] = self.update_engine.installed_rules * self.config.provisioning.rule_entry_bits
        return used

    def provisioned_memory_bank(self) -> MemoryBank:
        """The synthesised memory inventory of this configuration (Table V input)."""
        prov = self.config.provisioning
        bank = MemoryBank(name=f"classifier_{self.config.ip_algorithm.value}")
        for dimension in IP_DIMENSIONS:
            if self.config.ip_algorithm is IpAlgorithm.MBT:
                for level, (depth, width) in enumerate(prov.mbt_level_geometry, start=1):
                    bank.new_block(f"{dimension}_mbt_l{level}", depth, width)
            else:
                depth, width = prov.bst_geometry
                bank.new_block(f"{dimension}_bst", depth, width)
            depth, width = prov.ip_label_geometry
            bank.new_block(f"{dimension}_labels", depth, width)
        for dimension in PORT_DIMENSIONS:
            depth, width = prov.port_label_geometry
            bank.new_block(f"{dimension}_label_buffer", depth, width)
        depth, width = prov.protocol_geometry
        bank.new_block("protocol_lut", depth, width)
        bank.new_block("rule_filter", prov.rule_filter_entries, prov.rule_entry_bits)
        return bank

    def export_memory_image(self, name: Optional[str] = None) -> "MemoryImage":
        """Export the installed state as a control-plane memory image.

        Section IV.A: the software control plane produces binary files holding
        the data each hardware memory must be loaded with.  The exported image
        contains one write per Rule Filter entry and one per label-table entry
        of every dimension, and can be uploaded into the provisioned memory
        bank of another device with :meth:`repro.hardware.MemoryImage.apply`
        (e.g. to warm-start a standby switch with the active switch's state).
        """
        from repro.hardware.memory_image import MemoryImage

        image = MemoryImage(name or f"classifier_{self.config.ip_algorithm.value}_image")
        layout = self.config.label_layout
        for dimension in DIMENSIONS:
            table = self.label_tables[dimension]
            block = f"{dimension}_labels" if dimension in IP_DIMENSIONS else (
                f"{dimension}_label_buffer" if dimension in PORT_DIMENSIONS else "protocol_lut"
            )
            for value, entry in table.entries():
                image.add(
                    block,
                    entry.label,
                    (entry.label << 16) | (entry.counter & 0xFFFF),
                    payload={"value": value, "counter": entry.counter, "priority": entry.best_priority},
                )
        for rule_id in self.update_engine.installed_rule_ids():
            key = self.update_engine.rule_key(rule_id)
            slot = self.rule_filter.hash_unit.hash(key)
            rule = self.update_engine.rules[rule_id]
            image.add(
                "rule_filter",
                slot,
                key & ((1 << 64) - 1),
                payload={"rule_id": rule_id, "priority": rule.priority, "action": rule.action.value},
            )
        return image

    def report(self) -> ClassifierReport:
        """Whole-classifier snapshot feeding the evaluation tables."""
        # The synthesised design always contains the MBT memories (the BST
        # shares the level-2 block and reclaims the rest for rules), so the
        # provisioned memory space is the same for both IPalg_s positions —
        # exactly why Table VII quotes 2.1 Mbit for both configurations.
        prov = self.config.provisioning
        provisioned: Dict[str, int] = {"ip_engines": prov.total_mbt_bits()}
        provisioned["ip_labels"] = 4 * prov.ip_label_geometry[0] * prov.ip_label_geometry[1]
        provisioned["port_label_buffers"] = 2 * prov.port_label_geometry[0] * prov.port_label_geometry[1]
        provisioned["protocol_lut"] = prov.protocol_geometry[0] * prov.protocol_geometry[1]
        provisioned["rule_filter"] = prov.rule_filter_bits()
        return ClassifierReport(
            ip_algorithm=self.config.ip_algorithm.value,
            combiner_mode=self.config.combiner_mode.value,
            rules_installed=self.installed_rules,
            rule_capacity=self.config.rule_capacity(),
            unique_labels={name: table.unique_values for name, table in self.label_tables.items()},
            memory_bits_used=self.memory_bits_used(),
            memory_bits_provisioned=provisioned,
            lookup_latency_cycles=self.lookup_latency_cycles(),
            lookup_occupancy_cycles=self.occupancy_cycles(),
            throughput_gbps=self.throughput_gbps(),
        )

    # ------------------------------------------------------------------ convenience
    @classmethod
    def from_ruleset(
        cls, ruleset: RuleSet, config: Optional[ClassifierConfig] = None
    ) -> "ConfigurableClassifier":
        """Build a classifier and install every rule of ``ruleset``."""
        classifier = cls(config)
        classifier.install_ruleset(ruleset)
        return classifier

    def __repr__(self) -> str:
        return (
            f"ConfigurableClassifier(ip={self.config.ip_algorithm.value}, "
            f"combiner={self.config.combiner_mode.value}, rules={self.installed_rules})"
        )


# ---------------------------------------------------------------------------
# Unified-API registration (import kept at module bottom: repro.api pulls in
# the baseline package, which must not re-enter this module mid-definition).
# ---------------------------------------------------------------------------
from repro.api.registry import register_classifier  # noqa: E402


@register_classifier(
    "configurable",
    description="the paper's configurable label-based architecture (Fig. 2)",
)
def _make_configurable(
    ruleset: RuleSet,
    config: Optional[ClassifierConfig] = None,
    ip_algorithm: Optional[str] = None,
    combiner: Optional[str] = None,
    fast: bool = False,
    vectorized: bool = False,
    flow_cache: bool = False,
    flow_policy: str = "idle",
    flow_capacity: Optional[int] = None,
    flow_predictor: Optional[str] = None,
    flow_idle_timeout: Optional[int] = None,
    flow_hard_timeout: Optional[int] = None,
) -> ConfigurableClassifier:
    """Registry factory: build the architecture and install ``ruleset``.

    ``config`` takes a full :class:`ClassifierConfig` (e.g. from
    ``ClassifierConfig.builder()``); ``ip_algorithm``/``combiner`` are
    string shortcuts layered on top of it.  ``fast=True`` enables the
    :mod:`repro.perf` batch-lookup fast path; ``vectorized=True`` enables the
    fast path in its vectorized cold-path mode (and implies ``fast``).
    ``flow_cache=True`` stacks the exact-match flow tier on top, configured
    by the remaining ``flow_*`` knobs (all plain picklable values, so a
    :class:`~repro.perf.parallel.ReplicaSpec` can carry them into process
    workers).
    """
    builder = ClassifierConfig.builder(config)
    if ip_algorithm is not None:
        builder = builder.ip_algorithm(ip_algorithm)
    if combiner is not None:
        builder = builder.combiner(combiner)
    classifier = ConfigurableClassifier.from_ruleset(ruleset, builder.build())
    if fast or vectorized:
        classifier.enable_fast_path(vectorized=vectorized)
    if flow_cache:
        options: Dict[str, object] = {"policy": flow_policy}
        if flow_capacity is not None:
            options["capacity"] = flow_capacity
        if flow_predictor is not None:
            options["predictor"] = flow_predictor
        if flow_idle_timeout is not None:
            options["idle_timeout"] = flow_idle_timeout
        if flow_hard_timeout is not None:
            options["hard_timeout"] = flow_hard_timeout
        classifier.enable_flow_cache(**options)
    return classifier
