"""Multi-switch fabric: topology, partitioned rule placement, atomic fabric sync.

The controller so far manages switches one at a time; this module scales the
SDN layer to a *fabric* — the "heavy traffic from millions of users" scenario
of the ROADMAP made concrete:

* :class:`Topology` — N switches + links with deterministic shortest-path
  routing (BFS, lowest-dpid tie-break) and a route table mapping each ingress
  switch to its egress.  :meth:`Topology.line` and :meth:`Topology.fattree`
  build the two canonical shapes.
* :func:`plan_placement` — partitions a rule program across the switches of
  each flow path instead of fully replicating it.  The unit of placement is
  an **overlap component** of :class:`~repro.analysis.depindex.DependencyIndex`:
  all rules a single packet can match form a clique in the overlap graph, so
  they always sit in one component — hosting whole components means every
  switch resolves its local highest-priority match *exactly* as the full
  program would, and the fabric-wide winner is simply the best match seen
  along the path.  Components map to ``k = min path length`` fixed buckets by
  ``min(component) % k`` and each bucket is pinned to the least-loaded hop of
  every served path, so the whole assignment is a pure function of the rule
  ids and the topology: a one-rule commit moves one rule, never reshuffles
  the fabric.
* :func:`commit_switch_deltas` / :class:`FabricController` — topology-wide
  transactional updates.  A fabric commit diffs every switch's installed
  program against its planned subset and applies the per-switch deltas
  all-or-nothing across the fabric: if any switch rejects its delta, every
  switch that already committed is rolled back to the **pre-commit program
  version** via :meth:`~repro.api.control.ControlPlane.rollback` (PR 5's
  inverse deltas, version-exact).  :class:`FabricController` is itself a
  :class:`~repro.api.control.ControlPlane`, so ``begin()``/``commit()``
  transactions and `RuleProgram` snapshots work fabric-wide.
* :meth:`FabricController.serve` — drives an ingress-tagged trace
  (:func:`~repro.rules.trace.generate_fabric_trace`) through the fabric:
  one ``classify_batch`` call per switch, per-hop lookups combined into one
  fabric classification per packet, and per-switch hit accounting.
  Statistics commit only after every switch finished its share — a poisoned
  switch cancels the whole serve with no partial stats.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.depindex import DependencyIndex
from repro.api.control import CommitResult, ControlPlane, Delta, RuleProgram, TxnOp
from repro.controller.controller import SdnController
from repro.controller.switch import Switch
from repro.core.config import ClassifierConfig
from repro.core.result import Classification
from repro.exceptions import ControlPlaneError, UpdateError
from repro.perf.transport import pack_header
from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.rules.trace import FabricPacket

__all__ = [
    "FabricPath",
    "Topology",
    "PlacementPlan",
    "plan_placement",
    "SwitchCommit",
    "FabricCommitError",
    "commit_switch_deltas",
    "SwitchServeStats",
    "FabricServeResult",
    "FabricController",
    "assign_ingresses",
]


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricPath(object):
    """One routed flow path: ingress switch, egress switch, hop sequence."""

    ingress: int
    egress: int
    hops: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.hops)


class Topology:
    """Switch graph with deterministic shortest-path routing.

    ``switches`` are datapath ids, ``links`` undirected edges between them,
    ``routes`` maps each *ingress* switch to the egress its traffic is
    destined for.  Paths are computed once, by BFS with sorted neighbour
    expansion, so the hop sequence for a route is deterministic (among
    equal-length paths the lexicographically smallest wins).
    """

    def __init__(
        self,
        switches: Sequence[int],
        links: Iterable[Tuple[int, int]],
        routes: Mapping[int, int],
        name: str = "fabric",
    ) -> None:
        self.name = name
        if not switches:
            raise ControlPlaneError("a topology needs at least one switch")
        if len(set(switches)) != len(list(switches)):
            raise ControlPlaneError("duplicate datapath ids in topology")
        self._switches: Tuple[int, ...] = tuple(sorted(switches))
        known = set(self._switches)
        adjacency: Dict[int, set] = {dpid: set() for dpid in self._switches}
        for a, b in links:
            if a not in known or b not in known:
                raise ControlPlaneError(f"link ({a}, {b}) references an unknown switch")
            if a == b:
                raise ControlPlaneError(f"switch {a} cannot link to itself")
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adjacency = {dpid: tuple(sorted(peers)) for dpid, peers in adjacency.items()}
        self._paths: Dict[int, FabricPath] = {}
        for ingress, egress in sorted(routes.items()):
            if ingress not in known or egress not in known:
                raise ControlPlaneError(
                    f"route {ingress} -> {egress} references an unknown switch"
                )
            hops = self._shortest_path(ingress, egress)
            if hops is None:
                raise ControlPlaneError(
                    f"no path from switch {ingress} to switch {egress}"
                )
            self._paths[ingress] = FabricPath(ingress=ingress, egress=egress, hops=hops)
        if not self._paths:
            raise ControlPlaneError("a topology needs at least one route")

    def _shortest_path(self, source: int, target: int) -> Optional[Tuple[int, ...]]:
        if source == target:
            return (source,)
        parents: Dict[int, int] = {source: source}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for peer in self._adjacency[node]:
                    if peer in parents:
                        continue
                    parents[peer] = node
                    if peer == target:
                        hops = [peer]
                        while hops[-1] != source:
                            hops.append(parents[hops[-1]])
                        return tuple(reversed(hops))
                    next_frontier.append(peer)
            frontier = next_frontier
        return None

    # -- inspection ----------------------------------------------------------
    @property
    def switches(self) -> Tuple[int, ...]:
        """Every datapath id, ascending."""
        return self._switches

    def neighbors(self, dpid: int) -> Tuple[int, ...]:
        """Directly linked switches of ``dpid``, ascending."""
        if dpid not in self._adjacency:
            raise ControlPlaneError(f"unknown datapath id {dpid}")
        return self._adjacency[dpid]

    def ingresses(self) -> Tuple[int, ...]:
        """The switches traffic can enter the fabric at, ascending."""
        return tuple(sorted(self._paths))

    def route_path(self, ingress: int) -> FabricPath:
        """The routed path for traffic entering at ``ingress``."""
        try:
            return self._paths[ingress]
        except KeyError as exc:
            raise ControlPlaneError(f"switch {ingress} is not a fabric ingress") from exc

    def served_paths(self) -> List[FabricPath]:
        """Every routed path, in ingress order."""
        return [self._paths[ingress] for ingress in sorted(self._paths)]

    @property
    def min_path_length(self) -> int:
        """Hops of the shortest served path — the placement partition width."""
        return min(len(path) for path in self._paths.values())

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={len(self._switches)}, "
            f"routes={len(self._paths)})"
        )

    # -- canonical shapes ----------------------------------------------------
    @classmethod
    def line(cls, switches: int) -> "Topology":
        """A linear chain ``0 - 1 - ... - n-1``.

        Traffic entering at the left half travels to the right end and vice
        versa, so every switch is an ingress and every path spans at least
        half the chain.
        """
        if switches < 1:
            raise ControlPlaneError(f"a line needs at least 1 switch, got {switches}")
        dpids = list(range(switches))
        links = [(i, i + 1) for i in range(switches - 1)]
        routes = {
            i: (switches - 1 if i <= (switches - 1) // 2 else 0) for i in dpids
        }
        return cls(dpids, links, routes, name=f"line{switches}")

    @classmethod
    def fattree(cls, switches: int) -> "Topology":
        """A tiny two-level fat-tree: 1 core, 2 aggregations, N-3 edges.

        Switch 0 is the core, 1 and 2 the aggregation switches, 3..N-1 the
        edge switches; edge ``i`` homes into aggregation ``1 + (i % 2)``
        (two pods).  Each edge switch routes to the next edge switch
        round-robin, so same-pod traffic takes ``edge - agg - edge`` (3 hops)
        and cross-pod traffic crosses the core (5 hops).
        """
        if switches < 5:
            raise ControlPlaneError(
                f"the fat-tree shape needs at least 5 switches, got {switches}"
            )
        dpids = list(range(switches))
        edges = dpids[3:]
        links = [(0, 1), (0, 2)]
        for index, edge in enumerate(edges):
            links.append((1 + (index % 2), edge))
        routes = {
            edge: edges[(index + 1) % len(edges)] for index, edge in enumerate(edges)
        }
        return cls(dpids, links, routes, name=f"fattree{switches}")


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementPlan:
    """Where every rule of a program lives in the fabric.

    ``groups[b]`` is the ascending rule ids of bucket ``b`` (overlap
    components merged by ``min(component) % k``); ``hosts[b]`` the switches
    hosting that bucket (one per served path, load-balanced); and
    ``switch_rules`` the per-switch installed subset, in the program's
    global install order — rule priorities are **never renumbered**, so a
    switch's local highest-priority match over its subset is exact.
    """

    rule_count: int
    groups: Tuple[Tuple[int, ...], ...]
    hosts: Tuple[Tuple[int, ...], ...]
    switch_rules: Dict[int, Tuple[Rule, ...]] = field(compare=False)

    @property
    def k(self) -> int:
        """Number of placement buckets (= the fabric's shortest path length)."""
        return len(self.groups)

    @property
    def total_rule_slots(self) -> int:
        """Installed rule slots across the fabric (full replication: N * rules)."""
        return sum(len(rules) for rules in self.switch_rules.values())

    @property
    def max_switch_rules(self) -> int:
        """Largest per-switch installed subset."""
        if not self.switch_rules:
            return 0
        return max(len(rules) for rules in self.switch_rules.values())

    @property
    def replication_factor(self) -> float:
        """Average number of switches each rule is installed on."""
        if not self.rule_count:
            return 0.0
        return self.total_rule_slots / self.rule_count

    def rules_for(self, dpid: int) -> Tuple[Rule, ...]:
        """The planned installed subset of one switch."""
        return self.switch_rules.get(dpid, ())

    def switches_for_rule(self, rule_id: int) -> Tuple[int, ...]:
        """The switches hosting a rule's bucket, ascending."""
        for bucket, ids in enumerate(self.groups):
            if rule_id in ids:
                return self.hosts[bucket]
        raise ControlPlaneError(f"rule {rule_id} is not part of this placement plan")


def plan_placement(
    rules: Sequence[Rule],
    topology: Topology,
    index: Optional[DependencyIndex] = None,
) -> PlacementPlan:
    """Partition ``rules`` across ``topology`` along its served paths.

    Overlap components (every rule set a packet can co-match is a clique,
    hence inside one component) are bucketed by ``min(component) % k`` with
    ``k`` the shortest served path length — a *stable* assignment: commits
    that do not split or merge components never move unrelated rules.  Each
    bucket is then hosted on one switch of every served path, chosen as the
    hop carrying the fewest buckets so far (ties to the lowest dpid); since
    the choice depends only on ``k`` and the topology, the host map is
    identical across commits.  Every switch's subset keeps the global
    install order and the original priorities.
    """
    if index is None:
        index = DependencyIndex(rules)
    k = topology.min_path_length
    buckets: List[List[int]] = [[] for _ in range(k)]
    for component in index.components():
        buckets[min(component) % k].extend(component)
    groups = tuple(tuple(sorted(ids)) for ids in buckets)

    loads: Dict[int, int] = {dpid: 0 for dpid in topology.switches}
    hosts: List[Tuple[int, ...]] = []
    for bucket in range(k):
        assigned: List[int] = []
        for path in topology.served_paths():
            if any(dpid in assigned for dpid in path.hops):
                continue
            choice = min(path.hops, key=lambda dpid: (loads[dpid], dpid))
            assigned.append(choice)
            loads[choice] += 1
        hosts.append(tuple(sorted(assigned)))

    position = {rule.rule_id: index_ for index_, rule in enumerate(rules)}
    by_id = {rule.rule_id: rule for rule in rules}
    switch_ids: Dict[int, List[int]] = {dpid: [] for dpid in topology.switches}
    for bucket, ids in enumerate(groups):
        for dpid in hosts[bucket]:
            switch_ids[dpid].extend(ids)
    switch_rules = {
        dpid: tuple(by_id[rid] for rid in sorted(ids, key=lambda rid: position[rid]))
        for dpid, ids in switch_ids.items()
    }
    return PlacementPlan(
        rule_count=len(rules),
        groups=groups,
        hosts=tuple(hosts),
        switch_rules=switch_rules,
    )


# ---------------------------------------------------------------------------
# Transactional fabric sync
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchCommit(object):
    """One switch's share of a fabric commit."""

    datapath_id: int
    commit: CommitResult

    @property
    def structural(self) -> bool:
        """True when the switch's delta changed an algorithm structure."""
        return self.commit.structural

    @property
    def update_cycles(self) -> int:
        """Modelled update-interface cycles the switch spent on its delta."""
        return self.commit.update_cycles


class FabricCommitError(UpdateError):
    """A fabric commit failed on one switch and was rolled back everywhere.

    ``failed_switch`` is the datapath id that rejected its delta,
    ``rolled_back`` the switches whose already-applied deltas were undone
    (restored to their pre-commit program version), and
    ``rollback_failures`` any ``(datapath_id, error)`` pairs where even the
    inverse replay failed — non-empty means the fabric is partially
    committed, which the controller surfaces via ``partial_commits``.
    """

    def __init__(
        self,
        message: str,
        failed_switch: int,
        rolled_back: Tuple[int, ...] = (),
        rollback_failures: Tuple[Tuple[int, str], ...] = (),
    ) -> None:
        super().__init__(message)
        self.failed_switch = failed_switch
        self.rolled_back = rolled_back
        self.rollback_failures = rollback_failures


def commit_switch_deltas(
    entries: Sequence[Tuple[int, ControlPlane, Delta]],
) -> List[SwitchCommit]:
    """Apply per-switch deltas all-or-nothing across the fabric.

    ``entries`` are ``(datapath_id, control plane, delta)`` triples; they are
    applied in ascending datapath order.  If any plane rejects its delta,
    every plane that already committed a non-empty delta is rolled back in
    reverse order via :meth:`~repro.api.control.ControlPlane.rollback` —
    version-exact, so each switch ends at its pre-commit ``program_version``
    — and :class:`FabricCommitError` is raised.  Empty deltas are
    version-preserving no-ops on their switch.
    """
    ordered = sorted(entries, key=lambda entry: entry[0])
    committed: List[Tuple[int, ControlPlane, CommitResult]] = []
    for dpid, plane, delta in ordered:
        try:
            commit = plane.apply_delta(delta)
        except Exception as exc:
            rollback_failures: List[Tuple[int, str]] = []
            rolled_back: List[int] = []
            for done_dpid, done_plane, done_commit in reversed(committed):
                try:
                    done_plane.rollback(done_commit)
                    rolled_back.append(done_dpid)
                except Exception as rollback_exc:  # pragma: no cover - defensive
                    rollback_failures.append((done_dpid, str(rollback_exc)))
            raise FabricCommitError(
                f"fabric commit failed on switch {dpid}: {exc}",
                failed_switch=dpid,
                rolled_back=tuple(rolled_back),
                rollback_failures=tuple(rollback_failures),
            ) from exc
        committed.append((dpid, plane, commit))
    return [SwitchCommit(datapath_id=dpid, commit=commit) for dpid, _, commit in committed]


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchServeStats(object):
    """One switch's share of a fabric serve."""

    datapath_id: int
    rules_installed: int
    packets: int
    hits: int

    @property
    def hit_ratio(self) -> float:
        """Fraction of this switch's lookups that matched a local rule."""
        return self.hits / self.packets if self.packets else 0.0


@dataclass(frozen=True)
class FabricServeResult(object):
    """Outcome of serving one ingress-tagged trace through the fabric.

    It carries what the serve itself counted: the records, the fabric-wide
    and per-switch hit counts and the hop lookups.  Other statistics are
    read from the object that owns them: a switch's footprint from its
    classifier's ``memory_bits()``, its flow-cache counters from its
    ``flow_cache.stats()``.
    """

    #: Fabric-wide classification per packet, in input order.
    results: Tuple[Classification, ...]
    packets: int
    matched: int
    #: Total per-switch lookups (every packet is looked up once per hop).
    hop_lookups: int
    per_switch: Dict[int, SwitchServeStats]

    @property
    def hit_ratio(self) -> float:
        """Fraction of fabric packets that matched some installed rule."""
        return self.matched / self.packets if self.packets else 0.0


def _better(a: Classification, b: Classification) -> Classification:
    """The winning record of two per-hop lookups (lower priority value wins)."""
    if not b.matched:
        return a
    if not a.matched:
        return b
    return min(a, b, key=lambda record: (record.priority, record.rule_id))


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------


def assign_ingresses(
    packets: Iterable, ingresses: Sequence[int]
) -> Iterator[FabricPacket]:
    """Deterministically pin untagged headers to ingress switches.

    The externally-supplied-trace policy: a pcap capture (or any plain
    header stream) carries no ingress tags, so each header hashes to an
    ingress by CRC-32 of its packed 104-bit wire word modulo the ingress
    count.  The hash is over the canonical wire bytes, so the assignment is
    stable across processes and platforms (unlike ``hash()``), and every
    packet of a 5-tuple flow enters at the same switch — the way a host's
    traffic always enters through its edge switch.  Already-tagged
    :class:`~repro.rules.trace.FabricPacket` items pass through untouched;
    plain 5-tuples are promoted to headers.
    """
    pool = tuple(ingresses)
    if not pool:
        raise ControlPlaneError("ingress assignment needs at least one ingress switch")
    for packet in packets:
        if isinstance(packet, FabricPacket):
            yield packet
            continue
        if not isinstance(packet, PacketHeader):
            packet = PacketHeader(*packet)
        ingress = pool[zlib.crc32(pack_header(packet)) % len(pool)]
        yield FabricPacket(ingress, packet)


class FabricController(ControlPlane):
    """Transactional control plane over a whole switch fabric.

    Owns an internal :class:`~repro.controller.SdnController` with one
    :class:`~repro.controller.Switch` per topology node.  The *logical*
    program (what ``program()`` reports and transactions mutate) is the full
    rule set; each commit re-plans placement and converges every switch onto
    its planned subset with minimal per-switch deltas, all-or-nothing
    fabric-wide (:func:`commit_switch_deltas`).  ``fast``/``vectorized``
    attach the corresponding accelerator to every switch's classifier.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[ClassifierConfig] = None,
        *,
        fast: bool = False,
        vectorized: bool = False,
        name: str = "fabric",
    ) -> None:
        super().__init__()
        self.topology = topology
        self.name = name
        self.controller = SdnController(name=name)
        for dpid in topology.switches:
            switch = self.controller.add_switch(dpid, config)
            if fast or vectorized:
                switch.classifier.enable_fast_path(vectorized=vectorized)
        self._rules: Dict[int, Rule] = {}
        self._plan = plan_placement((), topology)
        #: Successful fabric-wide commits.
        self.commits = 0
        #: Fabric commits that failed on a switch and were fully rolled back.
        self.rolled_back_commits = 0
        #: Failed commits where even rollback failed somewhere — must stay 0.
        self.partial_commits = 0

    # -- introspection -------------------------------------------------------
    @property
    def plan(self) -> PlacementPlan:
        """The placement plan of the currently installed program."""
        return self._plan

    def switch(self, dpid: int) -> Switch:
        """One fabric switch by datapath id."""
        return self.controller.switch(dpid)

    def switches(self) -> List[Switch]:
        """Every fabric switch, in topology order."""
        return [self.controller.switch(dpid) for dpid in self.topology.switches]

    def program(self) -> RuleProgram:
        first = self.controller.switch(self.topology.switches[0])
        return RuleProgram(
            version=self._version,
            rules=tuple(self._rules.values()),
            config=first.classifier.control.program().config,
        )

    # -- transactional mutation ----------------------------------------------
    def _apply(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        staged = dict(self._rules)
        reconfigure: Dict[str, str] = {}
        inverse: List[TxnOp] = []
        first = self.controller.switch(self.topology.switches[0])
        old_settings = first.classifier.control.program().settings
        for op in delta.ops:
            if op.kind == "insert":
                if op.rule.rule_id in staged:
                    raise UpdateError(
                        f"rule {op.rule.rule_id} is already installed in the fabric"
                    )
                staged[op.rule.rule_id] = op.rule
                inverse.append(TxnOp(kind="remove", rule_id=op.rule.rule_id))
            elif op.kind == "remove":
                if op.rule_id not in staged:
                    raise UpdateError(f"rule {op.rule_id} is not installed in the fabric")
                inverse.append(TxnOp(kind="insert", rule=staged.pop(op.rule_id)))
            elif op.kind == "reconfigure":
                if op.ip_algorithm is not None:
                    reconfigure["ip_algorithm"] = op.ip_algorithm
                if op.combiner is not None:
                    reconfigure["combiner_mode"] = op.combiner
                inverse.append(
                    TxnOp(
                        kind="reconfigure",
                        ip_algorithm=(
                            old_settings.get("ip_algorithm") if op.ip_algorithm else None
                        ),
                        combiner=(
                            old_settings.get("combiner_mode") if op.combiner else None
                        ),
                    )
                )
            else:
                raise UpdateError(f"unknown transaction op kind {op.kind!r}")

        plan = plan_placement(tuple(staged.values()), self.topology)
        entries: List[Tuple[int, ControlPlane, Delta]] = []
        for dpid in self.topology.switches:
            plane = self.controller.switch(dpid).classifier.control
            current = plane.program()
            settings = dict(current.settings)
            settings.update(reconfigure)
            desired = RuleProgram(
                version=current.version,
                rules=plan.rules_for(dpid),
                config=tuple(sorted(settings.items())),
            )
            entries.append((dpid, plane, current.diff(desired)))

        try:
            commits = commit_switch_deltas(entries)
        except FabricCommitError as exc:
            self.rolled_back_commits += 1
            if exc.rollback_failures:
                self.partial_commits += 1
            raise

        self._rules = staged
        self._plan = plan
        self.commits += 1
        results: List[object] = list(commits)
        return results, list(reversed(inverse))

    def install(self, ruleset: RuleSet) -> CommitResult:
        """Install a whole rule set as one fabric transaction."""
        txn = self.begin()
        for rule in ruleset.rules():
            txn.insert(rule)
        return txn.commit()

    # -- data plane -----------------------------------------------------------
    def classify(self, packet: FabricPacket) -> Classification:
        """Classify one fabric packet along its routed path (no accounting)."""
        path = self.topology.route_path(packet.ingress)
        best: Optional[Classification] = None
        for dpid in path.hops:
            record = self.controller.switch(dpid).classifier.classify(packet.header)
            best = record if best is None else _better(best, record)
        assert best is not None  # a path always has at least one hop
        return best

    def serve(self, packets: Sequence) -> FabricServeResult:
        """Serve a trace through the fabric (ingress-tagged or plain).

        Packets are grouped by ingress, looked up on every hop of their
        routed path with one ``classify_batch`` call per switch, and the
        per-hop records combine into one fabric classification per packet:
        the highest-priority match along the path (exact, because placement
        keeps overlap components whole), or the ingress switch's miss
        record.  Per-switch counters update only after **every** switch
        finished — a failing switch aborts the serve with all counters
        untouched.

        ``packets`` may mix ingress-tagged
        :class:`~repro.rules.trace.FabricPacket` items with plain headers or
        5-tuples — an external trace (a pcap capture via
        :func:`repro.io.pcap.read_pcap`) carries no tags, so untagged
        packets are pinned deterministically by :func:`assign_ingresses`.
        """
        packets = list(assign_ingresses(packets, self.topology.ingresses()))
        if not packets:
            raise ControlPlaneError("cannot serve an empty fabric trace")
        paths = {packet.ingress: self.topology.route_path(packet.ingress) for packet in packets}
        workloads: Dict[int, List[Tuple[int, FabricPacket]]] = {}
        for index, packet in enumerate(packets):
            for dpid in paths[packet.ingress].hops:
                workloads.setdefault(dpid, []).append((index, packet))

        per_switch_results: Dict[int, Tuple[Classification, ...]] = {}
        for dpid in sorted(workloads):
            classifier = self.controller.switch(dpid).classifier
            headers = [packet.header for _, packet in workloads[dpid]]
            per_switch_results[dpid] = classifier.classify_batch(headers).results

        combined: List[Optional[Classification]] = [None] * len(packets)
        ingress_records: List[Optional[Classification]] = [None] * len(packets)
        per_switch_hits: Dict[int, int] = {dpid: 0 for dpid in workloads}
        for dpid, records in per_switch_results.items():
            for (index, packet), record in zip(workloads[dpid], records):
                if record.matched:
                    per_switch_hits[dpid] += 1
                if packet.ingress == dpid:
                    ingress_records[index] = record
                current = combined[index]
                combined[index] = record if current is None else _better(current, record)
        # A fabric miss reports the *ingress* hop's miss record: every hop's
        # miss is semantically identical but their cost counters are not, so
        # pin the choice for determinism.
        for index in range(len(packets)):
            if not combined[index].matched:
                combined[index] = ingress_records[index]

        results = tuple(combined)
        matched = sum(1 for record in results if record.matched)
        per_switch: Dict[int, SwitchServeStats] = {}
        for dpid in sorted(workloads):
            switch = self.controller.switch(dpid)
            lookups = len(workloads[dpid])
            hits = per_switch_hits[dpid]
            switch.stats.packets_classified += lookups
            switch.stats.packets_matched += hits
            per_switch[dpid] = SwitchServeStats(
                datapath_id=dpid,
                rules_installed=switch.classifier.installed_rules,
                packets=lookups,
                hits=hits,
            )
        return FabricServeResult(
            results=results,
            packets=len(packets),
            matched=matched,
            hop_lookups=sum(len(entries) for entries in workloads.values()),
            per_switch=per_switch,
        )

    def __repr__(self) -> str:
        return (
            f"FabricController({self.name!r}, switches={len(self.topology.switches)}, "
            f"rules={len(self._rules)}, version={self._version})"
        )
