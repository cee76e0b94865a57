"""Rule overlap / dependency index.

Two rules *depend* on each other when some packet could match both — exactly
:meth:`~repro.rules.rule.Rule.overlaps`, generalised here to an interval
intersection over all five dimensions so whole rule sets can be queried at
once.  Every rule maps to one axis-aligned box in the 5-dimensional match
space::

    src_ip   -> [prefix.low, prefix.high]          (32-bit)
    dst_ip   -> [prefix.low, prefix.high]          (32-bit)
    src_port -> [range.low, range.high]            (16-bit)
    dst_port -> [range.low, range.high]            (16-bit)
    protocol -> [0, 255] wildcard / [v, v] exact   (8-bit)

and two rules overlap iff their boxes intersect in every dimension.

The index keeps the per-rule bounds in parallel lo/hi arrays (NumPy when
available, plain lists otherwise) so ``overlapping(rule)`` is one vectorised
comparison instead of an O(n) Python loop, and is maintained incrementally:
:meth:`add_rule` / :meth:`remove_rule` update the rule map immediately and
mark the arrays dirty; the next query rebuilds them lazily.

The lint passes (:mod:`repro.analysis.lint`) build on the same index: the
overlap set of a rule restricted to higher-priority rules is precisely the
set that can shadow, conflict with, or bury it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.rules.rule import Rule

try:  # NumPy accelerates the bound comparisons but is not required.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image always has numpy
    _np = None  # type: ignore[assignment]

__all__ = ["ANALYSIS_DIMENSIONS", "DependencyIndex", "rule_bounds", "rule_covers"]

#: The five match dimensions of the overlap model, in bounds order.
ANALYSIS_DIMENSIONS = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")


def rule_bounds(rule: Rule) -> Tuple[int, int, int, int, int, int, int, int, int, int]:
    """Return the rule's match box as ``(lo, hi)`` pairs in dimension order."""
    return (
        rule.src_prefix.low,
        rule.src_prefix.high,
        rule.dst_prefix.low,
        rule.dst_prefix.high,
        rule.src_port.low,
        rule.src_port.high,
        rule.dst_port.low,
        rule.dst_port.high,
        0 if rule.protocol.wildcard else rule.protocol.value,
        255 if rule.protocol.wildcard else rule.protocol.value,
    )


def rule_covers(outer: Rule, inner: Rule) -> bool:
    """Return True when every packet matching ``inner`` also matches ``outer``."""
    ob = rule_bounds(outer)
    ib = rule_bounds(inner)
    return all(
        ob[2 * d] <= ib[2 * d] and ib[2 * d + 1] <= ob[2 * d + 1] for d in range(5)
    )


class DependencyIndex:
    """Overlap index over a rule set, queryable and incrementally maintained."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        self._rules: Dict[int, Rule] = {}
        self._bounds: Dict[int, Tuple[int, ...]] = {}
        self._ids: List[int] = []
        self._los = None  # (n, 5) lower bounds, parallel to _ids
        self._his = None  # (n, 5) upper bounds
        self._arrays_dirty = True
        if rules is not None:
            for rule in rules:
                self.add_rule(rule)

    # -- maintenance ---------------------------------------------------------
    def add_rule(self, rule: Rule) -> None:
        """Index (or re-index) one rule."""
        self._rules[rule.rule_id] = rule
        self._bounds[rule.rule_id] = rule_bounds(rule)
        self._arrays_dirty = True

    def remove_rule(self, rule_id: int) -> None:
        """Drop one rule from the index (unknown ids are ignored)."""
        if self._rules.pop(rule_id, None) is not None:
            del self._bounds[rule_id]
            self._arrays_dirty = True

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule_id: object) -> bool:
        return rule_id in self._rules

    def rule(self, rule_id: int) -> Rule:
        """Return the indexed rule with the given id."""
        return self._rules[rule_id]

    @property
    def uses_numpy(self) -> bool:
        """True when the bound arrays are NumPy-backed."""
        return _np is not None

    # -- queries -------------------------------------------------------------
    def _rebuild_arrays(self) -> None:
        self._ids = list(self._bounds)
        if _np is not None and self._ids:
            flat = _np.array([self._bounds[rid] for rid in self._ids], dtype=_np.int64)
            self._los = flat[:, 0::2]
            self._his = flat[:, 1::2]
        else:
            self._los = self._his = None
        self._arrays_dirty = False

    def overlapping(self, rule: Rule) -> List[int]:
        """Ids of indexed rules some packet could match together with ``rule``.

        ``rule`` itself need not be indexed; when it is, its own id is
        excluded from the result.
        """
        if self._arrays_dirty:
            self._rebuild_arrays()
        bounds = rule_bounds(rule)
        if self._los is not None:
            los = _np.array(bounds[0::2], dtype=_np.int64)
            his = _np.array(bounds[1::2], dtype=_np.int64)
            mask = ((self._los <= his) & (self._his >= los)).all(axis=1)
            hits = [self._ids[i] for i in _np.nonzero(mask)[0]]
        else:
            hits = [
                rid
                for rid, other in self._bounds.items()
                if all(
                    other[2 * d] <= bounds[2 * d + 1] and other[2 * d + 1] >= bounds[2 * d]
                    for d in range(5)
                )
            ]
        if rule.rule_id in self._rules:
            return [rid for rid in hits if rid != rule.rule_id]
        return hits

    def overlapping_rules(self, rule: Rule) -> List[Rule]:
        """Like :meth:`overlapping` but returning the rules themselves."""
        return [self._rules[rid] for rid in self.overlapping(rule)]

    def overlap_degree(self, rule_id: int) -> int:
        """Number of other indexed rules overlapping the given rule."""
        return len(self.overlapping(self._rules[rule_id]))

    def dependency_depth(self, rule_id: int) -> int:
        """Number of *higher-priority* rules overlapping the given rule.

        This is the length of the priority chain a packet matching the rule
        may have to be checked against before the rule can win — the depth
        the update-cost experiment buckets commits by.
        """
        rule = self._rules[rule_id]
        return sum(
            1 for rid in self.overlapping(rule) if self._rules[rid].priority < rule.priority
        )

    def overlap_degrees(self) -> Dict[int, int]:
        """``{rule_id: overlap degree}`` for every indexed rule."""
        return {rid: self.overlap_degree(rid) for rid in self._rules}

    def components(self) -> List[Tuple[int, ...]]:
        """Connected components of the overlap graph, as sorted id tuples.

        Every set of rules a single packet can match forms a clique in the
        overlap graph, so it always lies inside one component — which is why
        fabric placement (:mod:`repro.controller.fabric`) can ship whole
        components to switches and still resolve the highest-priority match
        locally.  Components are returned sorted by their smallest rule id,
        each component's ids ascending, so the partition is deterministic.
        """
        parent: Dict[int, int] = {rid: rid for rid in self._rules}

        def find(rid: int) -> int:
            root = rid
            while parent[root] != root:
                root = parent[root]
            while parent[rid] != root:  # path compression
                parent[rid], rid = root, parent[rid]
            return root

        for rid in sorted(self._rules):
            for other in self.overlapping(self._rules[rid]):
                root_a, root_b = find(rid), find(other)
                if root_a != root_b:
                    parent[max(root_a, root_b)] = min(root_a, root_b)
        members: Dict[int, List[int]] = {}
        for rid in self._rules:
            members.setdefault(find(rid), []).append(rid)
        return [tuple(sorted(ids)) for _, ids in sorted(members.items())]
