"""Commit blast radius for dependency-aware partial cache invalidation.

The control plane (:mod:`repro.api.control`) computes, for every committed
delta, exactly which memoized state the commit can have perturbed, and hands
that description — an :class:`InvalidationScope` — to the fast path
(:class:`~repro.perf.fastpath.FastPathAccelerator`), which then drops only
the affected entries instead of epoch-flushing wholesale; that is what keeps
it warm across an update-heavy workload.  The flow cache
(:class:`~repro.perf.flowcache.FlowCache`) receives the committed delta
itself and drops the entries its rules decide or match.  Both compare the
same epoch marks, built by :func:`snapshot_marks`.

The scope has four parts:

* **epoch handoff** — the per-engine and rule-filter
  :class:`~repro.observers.MutationEpoch` marks (:func:`snapshot_marks`)
  immediately before and after the commit.  The fast path applies the scoped
  drops only when its own marks equal the *pre* marks (i.e. it was exactly
  up to date with the pre-commit state) and then adopts the *post* marks;
  any mismatch means something moved outside the control plane's
  bookkeeping and it falls back to its wholesale epoch-comparison path.
* **field spans** — per dimension, the merged value intervals on which a
  single-field engine's lookup result (or its access accounting) may differ
  after the commit: the structural blast radius reported by
  :meth:`~repro.fields.base.SingleFieldEngine.invalidation_span` plus the
  exact spec interval of every label reprioritization.
* **filter keys** — the label keys whose Rule Filter best entries the
  commit's inserts/deletes may have changed (drained from
  :meth:`~repro.hardware.rule_filter.RuleFilterMemory.drain_dirty`): the
  inserted/removed keys plus any entry a backward-shift deletion relocated.
* **filter homes** — the home slots whose probe-walk length the commit
  changed: each slot whose occupancy net-flipped plus the run of slots
  walking back from it.  A key homed anywhere else scans the same slots to
  the same empty terminator, so outcome caches registered by the home slots
  of their probed keys prune exactly: an entry is stale only if it probed a
  key homed at a filter key's home or at a filter home.

``wholesale=True`` short-circuits everything: the commit's effects cannot be
bounded (an engine without a local span moved, a reconfiguration swapped the
datapath, the Rule Filter's dirty tracking overflowed) and caches must flush
as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["InvalidationScope", "snapshot_marks"]

#: Mark key for the Rule Filter in the pre/post mark dictionaries (the other
#: keys are the dimension names).
FILTER_MARK = "rule_filter"


def snapshot_marks(classifier) -> Dict[str, Tuple[object, int]]:
    """``{dimension | FILTER_MARK: (object, mutation epoch)}`` of a classifier.

    The one epoch snapshot every cache validates against and every
    :class:`InvalidationScope` carries.  The engine object rides along with
    its counter, so a wholesale engine swap (an IPalg_s reconfiguration
    rebuilding the datapath) reads as moved even if the fresh engine's
    counter happens to match the old one.
    """
    marks = {
        name: (engine, engine.mutation_epoch)
        for name, engine in classifier.engines.items()
    }
    rule_filter = classifier.rule_filter
    marks[FILTER_MARK] = (rule_filter, rule_filter.mutation_epoch)
    return marks


@dataclass
class InvalidationScope:
    """Everything a commit can have invalidated, bounded and itemised."""

    #: :func:`snapshot_marks` taken immediately before the first operation of
    #: the commit was applied.
    pre_marks: Dict[str, Tuple[object, int]] = field(default_factory=dict)
    #: Same snapshot immediately after the last operation succeeded.
    post_marks: Dict[str, Tuple[object, int]] = field(default_factory=dict)
    #: Per dimension: inclusive value intervals whose field lookups may have
    #: changed.  Dimensions absent from the mapping are untouched.
    field_spans: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: Label keys whose Rule Filter best entries may have changed.
    filter_keys: List[int] = field(default_factory=list)
    #: Home slots whose Rule Filter probe-walk length changed.
    filter_homes: List[int] = field(default_factory=list)
    #: True when the commit's effects cannot be bounded at all.
    wholesale: bool = False

    def add_span(self, dimension: str, span: Tuple[int, int]) -> None:
        """Record one affected value interval for ``dimension``."""
        self.field_spans.setdefault(dimension, []).append(span)

    @property
    def touches_filter(self) -> bool:
        """True when any Rule Filter lookup may have changed."""
        return bool(self.filter_keys or self.filter_homes)
