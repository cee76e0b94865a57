"""Transactional control plane: versioned rule programs with atomic commits.

The paper's headline on the update side is *cheap incremental updates*
(section IV.A / the update-cost experiments); a deployment that serves live
traffic needs those updates to be **uniform** (one mutation surface across
the configurable architecture and every baseline), **transactional** (a
multi-op change lands entirely or not at all) and **propagatable** (a commit
can be broadcast to replica pools).  This module is that surface:

* :class:`RuleProgram` — an immutable, versioned snapshot of the installed
  rules (in install order) plus the datapath configuration, with
  :meth:`RuleProgram.diff` producing the :class:`Delta` that transforms one
  program into another;
* :class:`Txn` — a staged transaction: chain :meth:`Txn.insert` /
  :meth:`Txn.remove` / :meth:`Txn.reconfigure` calls, then
  :meth:`Txn.commit` (all-or-nothing) or :meth:`Txn.abort`;
* :class:`ControlPlane` — the protocol engines expose as ``.control``:
  :meth:`ControlPlane.begin` opens a transaction,
  :meth:`ControlPlane.apply_delta` applies a committed delta (the broadcast
  primitive :class:`~repro.perf.parallel.ParallelSession` uses), and every
  commit is **epoch-stamped** — the data-path mutations it lands bump the
  :class:`~repro.observers.MutationEpoch` counters the
  :mod:`repro.perf` caches compare against, so invalidation needs no
  listener callbacks;
* :class:`ClassifierControl` — the incremental implementation for
  :class:`~repro.core.classifier.ConfigurableClassifier`, journalling every
  applied operation so a failure mid-transaction unwinds cleanly (each
  single insert is additionally atomic through the PR 2 per-dimension
  rollback journal of :class:`~repro.core.update_engine.UpdateEngine`);
* :class:`RebuildControl` — the adapter implementation for the build-once
  baselines: the transaction's target rule set is staged first and the
  structure rebuilt exactly once, so all-or-nothing holds by construction.

``ControlPlane.begin()``/``commit()`` is the **sole supported mutation
path**; the ``install``/``remove`` methods engines still carry are the
internal bootstrap primitives the factories and single-op commits are built
from.  Deltas are plain picklable data, so the same committed transaction
can be shipped to process-pool replicas unchanged.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.config import CombinerMode, IpAlgorithm
from repro.core.dimensions import rule_dimension_specs, spec_interval
from repro.exceptions import UpdateError
from repro.core.invalidation import InvalidationScope, snapshot_marks
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

__all__ = [
    "TxnOp",
    "Delta",
    "RuleProgram",
    "ReconfigureResult",
    "CommitResult",
    "Txn",
    "ControlPlane",
    "ClassifierControl",
    "RebuildControl",
    "parse_delta_lines",
    "load_delta_file",
]

#: Operation kinds a transaction may stage.
OP_KINDS = ("insert", "remove", "reconfigure")


@dataclass(frozen=True)
class TxnOp:
    """One staged control-plane operation (plain picklable data).

    ``kind`` selects which of the optional payload fields apply:
    ``"insert"`` carries ``rule``, ``"remove"`` carries ``rule_id``,
    ``"reconfigure"`` carries ``ip_algorithm`` and/or ``combiner`` as the
    enum *value strings* (strings, not enums, so the op pickles compactly
    across process boundaries).
    """

    kind: str
    rule: Optional[Rule] = None
    rule_id: Optional[int] = None
    ip_algorithm: Optional[str] = None
    combiner: Optional[str] = None

    def describe(self) -> str:
        """One-line human-readable form (CLI and log output)."""
        if self.kind == "insert":
            return f"insert rule {self.rule.rule_id} (priority {self.rule.priority})"
        if self.kind == "remove":
            return f"remove rule {self.rule_id}"
        parts = []
        if self.ip_algorithm is not None:
            parts.append(f"ip_algorithm={self.ip_algorithm}")
        if self.combiner is not None:
            parts.append(f"combiner={self.combiner}")
        return f"reconfigure {' '.join(parts) or '(no-op)'}"


@dataclass(frozen=True)
class Delta:
    """An ordered, immutable batch of operations (one transaction's content)."""

    ops: Tuple[TxnOp, ...] = ()

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def describe(self) -> List[str]:
        """Human-readable op list."""
        return [op.describe() for op in self.ops]


def _program_config(**settings: Optional[str]) -> Tuple[Tuple[str, str], ...]:
    """Normalise config settings into the sorted-pairs form programs store."""
    return tuple(sorted((k, v) for k, v in settings.items() if v is not None))


@dataclass(frozen=True)
class RuleProgram:
    """Immutable, versioned snapshot of one engine's installed state.

    ``rules`` are in **install order** (label assignments of the
    configurable architecture depend on it); ``config`` is a sorted tuple of
    ``(key, value)`` string pairs (hashable and picklable).  ``version``
    counts the control-plane commits that produced this snapshot.
    """

    version: int
    rules: Tuple[Rule, ...]
    config: Tuple[Tuple[str, str], ...] = ()

    @property
    def settings(self) -> dict:
        """The config pairs as a plain dict."""
        return dict(self.config)

    def rule_ids(self) -> Tuple[int, ...]:
        """Ids of the installed rules, in install order."""
        return tuple(rule.rule_id for rule in self.rules)

    def diff(self, other: "RuleProgram") -> Delta:
        """The delta transforming this program's state into ``other``'s.

        Removals come first (freeing capacity), then one reconfigure op for
        any config divergence, then insertions in ``other``'s install order.
        A rule whose id survives but whose definition changed is replaced
        (remove + insert).
        """
        mine = {rule.rule_id: rule for rule in self.rules}
        theirs = {rule.rule_id: rule for rule in other.rules}
        ops: List[TxnOp] = []
        for rule_id, rule in mine.items():
            if theirs.get(rule_id) != rule:
                ops.append(TxnOp(kind="remove", rule_id=rule_id))
        # Only the datapath settings a reconfigure op can actually move are
        # diffed; descriptive keys (a baseline's "algorithm"/"update_model")
        # are identity, not state, and must not manufacture a reconfigure op
        # no plane could apply.
        my_cfg, their_cfg = self.settings, other.settings
        ip_target = their_cfg.get("ip_algorithm")
        if ip_target == my_cfg.get("ip_algorithm"):
            ip_target = None
        combiner_target = their_cfg.get("combiner_mode")
        if combiner_target == my_cfg.get("combiner_mode"):
            combiner_target = None
        if ip_target is not None or combiner_target is not None:
            ops.append(
                TxnOp(kind="reconfigure", ip_algorithm=ip_target, combiner=combiner_target)
            )
        for rule in other.rules:
            if mine.get(rule.rule_id) != rule:
                ops.append(TxnOp(kind="insert", rule=rule))
        return Delta(tuple(ops))

    def __repr__(self) -> str:
        return (
            f"RuleProgram(version={self.version}, rules={len(self.rules)}, "
            f"config={dict(self.config)})"
        )


@dataclass(frozen=True)
class ReconfigureResult:
    """Outcome of one applied reconfigure op."""

    ip_algorithm: Optional[str]
    combiner: Optional[str]
    #: Rules replayed into the rebuilt engines (0 for a combiner-only change).
    reinstalled: int = 0

    @property
    def structural(self) -> bool:
        """Reconfiguration always rewrites structures when it changes anything."""
        return self.ip_algorithm is not None or self.reinstalled > 0


@dataclass(frozen=True)
class CommitResult:
    """Outcome of one committed transaction.

    ``inverse`` is the delta that would undo this commit (computed from the
    pre-commit state while applying) — :class:`~repro.perf.parallel.ParallelSession`
    replays it on replicas that committed when a sibling replica fails, so a
    broadcast stays all-or-nothing session-wide.
    """

    #: Program version after this commit.
    version: int
    #: Control-plane epoch after this commit (monotonic per plane).
    epoch: int
    #: The delta that was applied.
    delta: Delta
    #: The delta that would undo it (ops in reverse order of application).
    inverse: Delta
    #: Per-op engine results (:class:`~repro.core.result.UpdateResult` /
    #: :class:`ReconfigureResult` / rule ids for rebuild engines).
    results: Tuple[object, ...] = ()

    @property
    def structural(self) -> bool:
        """True when any applied op changed an algorithm structure."""
        return any(getattr(result, "structural", False) for result in self.results)

    @property
    def update_cycles(self) -> int:
        """Total modelled update-interface cycles across the applied ops."""
        total = 0
        for result in self.results:
            cycles = getattr(result, "cycles", None)
            if cycles is not None:
                total += cycles.latency_cycles
        return total


class Txn:
    """A staged transaction against one :class:`ControlPlane`.

    Stage operations by chaining :meth:`insert` / :meth:`remove` /
    :meth:`reconfigure`, then :meth:`commit` — the plane applies every op or
    none.  A transaction is single-shot: once committed or aborted, further
    staging or committing raises :class:`~repro.exceptions.UpdateError`.  A
    *failed* commit leaves the transaction open (the plane rolled the
    engine back; the staged ops survive for inspection or amendment).

    ``Txn(None)`` stages a free-standing transaction with no plane — useful
    to build a delta for :meth:`ParallelSession.apply
    <repro.perf.parallel.ParallelSession.apply>`; committing it directly
    raises.
    """

    def __init__(self, plane: Optional["ControlPlane"] = None) -> None:
        self._plane = plane
        self._ops: List[TxnOp] = []
        self._state = "open"

    # -- staging -------------------------------------------------------------
    def _check_open(self) -> None:
        if self._state != "open":
            raise UpdateError(f"transaction is {self._state}; begin() a new one")

    def insert(self, rule: Rule) -> "Txn":
        """Stage one rule insertion."""
        self._check_open()
        self._ops.append(TxnOp(kind="insert", rule=rule))
        return self

    def remove(self, rule_id: int) -> "Txn":
        """Stage one rule removal by id."""
        self._check_open()
        self._ops.append(TxnOp(kind="remove", rule_id=rule_id))
        return self

    def reconfigure(self, ip_algorithm=None, combiner=None) -> "Txn":
        """Stage a datapath reconfiguration (``IPalg_s`` and/or combiner mode).

        Accepts the enums or their value strings; values are validated here
        so a typo fails at staging time, not mid-commit.
        """
        self._check_open()
        if ip_algorithm is None and combiner is None:
            raise UpdateError("reconfigure needs an ip_algorithm or a combiner mode")
        ip_value = IpAlgorithm(ip_algorithm).value if ip_algorithm is not None else None
        combiner_value = CombinerMode(combiner).value if combiner is not None else None
        self._ops.append(
            TxnOp(kind="reconfigure", ip_algorithm=ip_value, combiner=combiner_value)
        )
        return self

    def extend(self, ops) -> "Txn":
        """Stage every op of a :class:`Delta` (or iterable of ops) in order."""
        self._check_open()
        for op in (ops.ops if isinstance(ops, Delta) else ops):
            if op.kind not in OP_KINDS:
                raise UpdateError(f"unknown transaction op kind {op.kind!r}")
            self._ops.append(op)
        return self

    # -- introspection -------------------------------------------------------
    @property
    def state(self) -> str:
        """``"open"``, ``"committed"`` or ``"aborted"``."""
        return self._state

    @property
    def ops(self) -> Tuple[TxnOp, ...]:
        """The staged operations, in order."""
        return tuple(self._ops)

    def delta(self) -> Delta:
        """The staged operations as an immutable :class:`Delta`."""
        return Delta(tuple(self._ops))

    def __len__(self) -> int:
        return len(self._ops)

    # -- terminal ------------------------------------------------------------
    def commit(self) -> CommitResult:
        """Apply every staged op atomically; returns the commit record."""
        self._check_open()
        if self._plane is None:
            raise UpdateError(
                "free-standing transaction has no control plane; pass it to "
                "ParallelSession.apply() or stage it via plane.begin()"
            )
        result = self._plane.apply_delta(self.delta())
        self._state = "committed"
        return result

    def abort(self) -> None:
        """Discard the staged operations (nothing was applied)."""
        self._check_open()
        self._state = "aborted"

    def __repr__(self) -> str:
        return f"Txn(ops={len(self._ops)}, state={self._state})"


class ControlPlane(abc.ABC):
    """The transactional mutation surface every engine exposes as ``.control``.

    Concrete planes implement :meth:`_apply` (apply a delta all-or-nothing,
    returning per-op results and the inverse ops) and :meth:`program` (the
    current :class:`RuleProgram` snapshot).  The base class owns the version
    and epoch counters and the :class:`Txn` lifecycle.
    """

    def __init__(self) -> None:
        self._version = 0
        self._epoch = 0

    @property
    def version(self) -> int:
        """Program version: number of non-empty commits applied so far."""
        return self._version

    @property
    def epoch(self) -> int:
        """Commit epoch of this plane (bumped once per non-empty commit)."""
        return self._epoch

    def begin(self) -> Txn:
        """Open a new transaction against this plane."""
        return Txn(self)

    @abc.abstractmethod
    def program(self) -> RuleProgram:
        """Immutable snapshot of the current rules + configuration."""

    @abc.abstractmethod
    def _apply(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        """Apply ``delta`` all-or-nothing; return (results, inverse ops)."""

    def apply_delta(self, delta: Delta) -> CommitResult:
        """Apply a committed/staged delta atomically and stamp the commit.

        This is the broadcast primitive: a delta that already committed on a
        primary (or was staged free-standing) lands on this engine with the
        same all-or-nothing guarantee.  An empty delta is a no-op that
        leaves version and epoch untouched.
        """
        if not delta.ops:
            return CommitResult(self._version, self._epoch, delta, Delta(()), ())
        results, inverse_ops = self._apply(delta)
        self._version += 1
        self._epoch += 1
        return CommitResult(
            version=self._version,
            epoch=self._epoch,
            delta=delta,
            inverse=Delta(tuple(inverse_ops)),
            results=tuple(results),
        )

    def rollback(self, commit: CommitResult) -> None:
        """Undo ``commit`` and restore the pre-commit program version.

        Replays ``commit.inverse`` through :meth:`_apply` (the same
        all-or-nothing primitive), but instead of stamping a *new* version —
        which is what ``apply_delta(commit.inverse)`` would do — the version
        counter is restored to ``commit.version - 1``, so observers that key
        on ``program_version`` (fabric switches, stats replies) see the
        device exactly where it was before the failed transaction.  The
        epoch still advances: the engines were mutated twice, and attached
        caches must notice.  Only the most recent commit of a plane may be
        rolled back this way; undoing an empty commit is a no-op.
        """
        if not commit.inverse.ops:
            return
        if commit.version != self._version:
            raise UpdateError(
                f"cannot roll back commit v{commit.version}: the plane is at "
                f"v{self._version} (only the latest commit is undoable)"
            )
        self._apply(commit.inverse)
        self._version = commit.version - 1
        self._epoch += 1


class ClassifierControl(ControlPlane):
    """Incremental control plane of the configurable architecture.

    Ops apply through :class:`~repro.core.update_engine.UpdateEngine` (each
    insert/delete is itself atomic via the per-dimension rollback journal);
    the transaction journal here unwinds the *sequence*: if op k fails, ops
    0..k-1 are undone in reverse order, so the classifier ends bit-exact
    where it started.  A removal undone by re-insertion lands at the end of
    the install order — a behaviourally equivalent (same rules, same
    classifications) though not label-identical state, exactly like any
    remove-then-reinsert sequence.
    """

    def __init__(self, classifier) -> None:
        super().__init__()
        self.classifier = classifier

    def program(self) -> RuleProgram:
        classifier = self.classifier
        return RuleProgram(
            version=self._version,
            rules=tuple(classifier.update_engine.installed_rules_in_order()),
            config=_program_config(
                ip_algorithm=classifier.config.ip_algorithm.value,
                combiner_mode=classifier.config.combiner_mode.value,
            ),
        )

    # -- op primitives -------------------------------------------------------
    def _apply_op(self, op: TxnOp) -> Tuple[object, TxnOp]:
        """Apply one op; returns (engine result, inverse op)."""
        classifier = self.classifier
        if op.kind == "insert":
            result = classifier.update_engine.insert_rule(op.rule)
            return result, TxnOp(kind="remove", rule_id=op.rule.rule_id)
        if op.kind == "remove":
            rule = classifier.update_engine.rules.get(op.rule_id)
            if rule is None:
                raise UpdateError(f"rule {op.rule_id} is not installed")
            result = classifier.update_engine.delete_rule(op.rule_id)
            return result, TxnOp(kind="insert", rule=rule)
        if op.kind == "reconfigure":
            # Validate both payloads before touching anything so a malformed
            # combiner value cannot strand a half-applied reconfigure.
            algorithm = IpAlgorithm(op.ip_algorithm) if op.ip_algorithm else None
            mode = CombinerMode(op.combiner) if op.combiner else None
            previous_ip = classifier.config.ip_algorithm.value
            previous_mode = classifier.config.combiner_mode.value
            reinstalled = 0
            if algorithm is not None:
                reinstalled = classifier.reconfigure(algorithm)
            if mode is not None:
                classifier.set_combiner_mode(mode)
            result = ReconfigureResult(
                ip_algorithm=op.ip_algorithm,
                combiner=op.combiner,
                reinstalled=reinstalled,
            )
            inverse = TxnOp(
                kind="reconfigure",
                ip_algorithm=previous_ip if op.ip_algorithm else None,
                combiner=previous_mode if op.combiner else None,
            )
            return result, inverse
        raise UpdateError(f"unknown transaction op kind {op.kind!r}")

    def _build_scope(self, pre_marks: dict, applied: List[tuple]) -> InvalidationScope:
        """Bound the committed delta's blast radius (see :mod:`repro.core.invalidation`).

        ``applied`` holds ``(op, engine result, subject rule)`` triples in
        application order.  Structural dimensions contribute the engine's own
        :meth:`~repro.fields.base.SingleFieldEngine.invalidation_span`;
        reprioritized dimensions contribute the spec's exact value interval.
        A reconfigure op, any engine that cannot localise its update, or an
        overflow of the Rule Filter's dirty tracking degrades the whole scope
        to wholesale.
        """
        scope = InvalidationScope(pre_marks=pre_marks)
        engines = self.classifier.engines
        for op, result, rule in applied:
            if op.kind == "reconfigure":
                scope.wholesale = True
                break
            specs = rule_dimension_specs(rule)
            for dimension in result.structural_dimensions:
                span = engines[dimension].invalidation_span(specs[dimension])
                if span is None:
                    scope.wholesale = True
                    break
                scope.add_span(dimension, span)
            if scope.wholesale:
                break
            for dimension in result.reprioritized_dimensions:
                scope.add_span(dimension, spec_interval(dimension, specs[dimension]))
        drained = self.classifier.rule_filter.drain_dirty()
        if drained is None:
            scope.wholesale = True
        else:
            scope.filter_keys, scope.filter_homes = drained
        scope.post_marks = snapshot_marks(self.classifier)
        return scope

    def _apply(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        rule_filter = self.classifier.rule_filter
        pre_marks = snapshot_marks(self.classifier)
        # Discard dirty-slot runs left by mutations outside this plane; the
        # epoch handoff would reject a scope built on them anyway, they would
        # only bloat this commit's.
        rule_filter.drain_dirty()
        results: List[object] = []
        undo: List[TxnOp] = []
        applied: List[tuple] = []
        try:
            for op in delta.ops:
                result, inverse = self._apply_op(op)
                results.append(result)
                undo.append(inverse)
                # The subject rule (a remove's comes back on the inverse op)
                # keys the per-dimension spans of the invalidation scope.
                applied.append((op, result, op.rule if op.kind == "insert" else inverse.rule))
        except Exception:
            # Unwind the applied prefix in reverse order.  The inverse ops
            # replay through the same primitives; if one of *those* fails the
            # engine state is genuinely corrupt and we say so loudly.
            try:
                for inverse in reversed(undo):
                    self._apply_op(inverse)
            except Exception as rollback_error:  # pragma: no cover - defensive
                raise UpdateError(
                    "transaction rollback failed; classifier state may be "
                    f"inconsistent: {rollback_error}"
                ) from rollback_error
            rule_filter.drain_dirty()
            raise
        # Committed: hand every attached cache the exact blast radius so it
        # can invalidate surgically instead of tripping its wholesale epoch
        # flush at the next batch.  Rollbacks skip this on purpose — their
        # epoch bumps trigger the conservative flush, which is always safe.
        scope = self._build_scope(pre_marks, applied)
        flow_cache = getattr(self.classifier, "flow_cache", None)
        if flow_cache is not None:
            flow_cache.note_commit(delta)
        fast_path = getattr(self.classifier, "_fast_path", None)
        if fast_path is not None:
            fast_path.note_commit(scope)
        return results, list(reversed(undo))


class RebuildControl(ControlPlane):
    """Control plane of the build-once baselines (rebuild per commit).

    The target rule set is staged from the transaction first; the structure
    is rebuilt exactly once and swapped in only after a successful build, so
    all-or-nothing semantics hold by construction.  Runtime reconfigure ops
    are rejected (the baselines have no ``IPalg_s``); the rejection happens
    before any rebuild, leaving the engine untouched.
    """

    def __init__(self, adapter) -> None:
        super().__init__()
        self.adapter = adapter

    def program(self) -> RuleProgram:
        engine = self.adapter.engine
        return RuleProgram(
            version=self._version,
            rules=tuple(engine.ruleset.rules()),
            config=_program_config(algorithm=engine.name, update_model="rebuild"),
        )

    def _apply(self, delta: Delta) -> Tuple[List[object], List[TxnOp]]:
        adapter = self.adapter
        staged = RuleSet(adapter.engine.ruleset.rules(), name=adapter.engine.ruleset.name)
        results: List[object] = []
        undo: List[TxnOp] = []
        for op in delta.ops:
            if op.kind == "insert":
                staged.add(op.rule)
                results.append(op.rule.rule_id)
                undo.append(TxnOp(kind="remove", rule_id=op.rule.rule_id))
            elif op.kind == "remove":
                removed = staged.remove(op.rule_id)
                results.append(op.rule_id)
                undo.append(TxnOp(kind="insert", rule=removed))
            elif op.kind == "reconfigure":
                raise UpdateError(
                    f"baseline {adapter.name!r} rebuilds from scratch and has no "
                    "runtime reconfiguration; reconfigure ops only apply to the "
                    "configurable architecture"
                )
            else:
                raise UpdateError(f"unknown transaction op kind {op.kind!r}")
        engine = adapter._rebuild_factory(staged)
        engine.ensure_built()
        adapter.engine = engine
        return results, list(reversed(undo))


# ---------------------------------------------------------------------------
# Delta files (the CLI's `repro update` input format)
# ---------------------------------------------------------------------------

def parse_delta_lines(lines: Iterable[str], program: RuleProgram) -> Delta:
    """Parse a rule-delta file into a :class:`Delta` against ``program``.

    Line format (blank lines and ``#`` comments ignored)::

        - <rule_id>                      remove an installed rule
        + @<classbench rule line>        insert a rule (id/priority auto-assigned)
        ! ip_algorithm=<mbt|bst>         reconfigure the IP engines
        ! combiner=<cross_product|first_label>

    Inserted rules receive the next free rule id and the next (worst)
    priority after everything in ``program`` — a delta file describes *what*
    to match, the control plane owns the numbering.
    """
    from repro.rules.parser import parse_classbench_line

    next_id = max((rule.rule_id for rule in program.rules), default=-1) + 1
    next_priority = max((rule.priority for rule in program.rules), default=-1) + 1
    ops: List[TxnOp] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, body = line.partition(" ")
        body = body.strip()
        if tag == "-":
            try:
                ops.append(TxnOp(kind="remove", rule_id=int(body)))
            except ValueError as exc:
                raise UpdateError(f"delta line {lineno}: bad rule id {body!r}") from exc
        elif tag == "+":
            rule = parse_classbench_line(body, rule_id=next_id, priority=next_priority)
            next_id += 1
            next_priority += 1
            ops.append(TxnOp(kind="insert", rule=rule))
        elif tag == "!":
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key == "ip_algorithm":
                try:
                    ops.append(TxnOp(kind="reconfigure", ip_algorithm=IpAlgorithm(value).value))
                except ValueError as exc:
                    raise UpdateError(
                        f"delta line {lineno}: bad ip_algorithm {value!r} "
                        f"(choose from {[a.value for a in IpAlgorithm]})"
                    ) from exc
            elif key == "combiner":
                try:
                    ops.append(TxnOp(kind="reconfigure", combiner=CombinerMode(value).value))
                except ValueError as exc:
                    raise UpdateError(
                        f"delta line {lineno}: bad combiner {value!r} "
                        f"(choose from {[m.value for m in CombinerMode]})"
                    ) from exc
            else:
                raise UpdateError(
                    f"delta line {lineno}: unknown setting {key!r} "
                    "(expected ip_algorithm or combiner)"
                )
        else:
            raise UpdateError(
                f"delta line {lineno}: expected '-', '+' or '!' prefix, got {line!r}"
            )
    return Delta(tuple(ops))


def load_delta_file(path, program: RuleProgram) -> Delta:
    """Read a rule-delta file (see :func:`parse_delta_lines`)."""
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UpdateError(f"cannot read delta file {path}: {exc}") from exc
    return parse_delta_lines(text.splitlines(), program)
