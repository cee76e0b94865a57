"""Linear-search oracle over NumPy arrays.

``RuleSet.highest_priority_match`` is the library's ground truth, but at a
few thousand packets per second it would dominate a run that checks every
classification.  :class:`Oracle` answers the same question by comparing each
header against every rule's match box (``rule_bounds``) at once, in
``RuleSet.rules()`` priority order, and evaluates each distinct header once.
An optional active-rule mask models a program with some rules removed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis.depindex import rule_bounds
from repro.rules.packet import PacketHeader
from repro.rules.ruleset import RuleSet

#: Distinct headers compared per NumPy block; bounds the (block x rules x 5)
#: temporaries to a few MB for a 1K-rule set.
BLOCK = 1024


class Oracle:
    """Highest-priority-match oracle for one rule set."""

    def __init__(self, ruleset: RuleSet) -> None:
        rules = ruleset.rules()
        self.rule_ids: List[int] = [rule.rule_id for rule in rules]
        self._position: Dict[int, int] = {rid: i for i, rid in enumerate(self.rule_ids)}
        bounds = np.array([rule_bounds(rule) for rule in rules], dtype=np.int64)
        self._lo = bounds[:, 0::2]
        self._hi = bounds[:, 1::2]

    def mask(self, removed: Iterable[int] = ()) -> np.ndarray:
        """Active-rule mask with the ``removed`` rule ids switched off."""
        active = np.ones(len(self.rule_ids), dtype=bool)
        for rule_id in removed:
            active[self._position[rule_id]] = False
        return active

    def classify(
        self, headers: Sequence[PacketHeader], active: Optional[np.ndarray] = None
    ) -> List[Optional[int]]:
        """The winning rule id (None on a miss) for every header, in order."""
        distinct = list(dict.fromkeys(headers))
        winners: Dict[PacketHeader, Optional[int]] = {}
        for start in range(0, len(distinct), BLOCK):
            block = distinct[start:start + BLOCK]
            values = np.array(
                [
                    (h.src_ip, h.dst_ip, h.src_port, h.dst_port, h.protocol)
                    for h in block
                ],
                dtype=np.int64,
            )[:, None, :]
            hits = ((values >= self._lo) & (values <= self._hi)).all(axis=2)
            if active is not None:
                hits &= active
            first = hits.argmax(axis=1)
            matched = hits[np.arange(len(block)), first]
            for header, index, found in zip(block, first.tolist(), matched.tolist()):
                winners[header] = self.rule_ids[index] if found else None
        return [winners[header] for header in headers]


def cross_check(
    oracle: Oracle,
    ruleset: RuleSet,
    headers: Sequence[PacketHeader],
    seed: int,
    count: int = 500,
    removed: Iterable[int] = (),
) -> List[PacketHeader]:
    """Compare the oracle with ``highest_priority_match`` on seeded headers.

    Samples ``count`` distinct headers of ``headers`` and returns those on
    which the two disagree (an empty list means the oracle is trusted).
    """
    removed = set(removed)
    reference = ruleset.filter(lambda rule: rule.rule_id not in removed) if removed else ruleset
    distinct = list(dict.fromkeys(headers))
    sample = random.Random(seed).sample(distinct, min(count, len(distinct)))
    answers = oracle.classify(sample, oracle.mask(removed) if removed else None)
    disagreements = []
    for header, answer in zip(sample, answers):
        truth = reference.highest_priority_match(header)
        if answer != (truth.rule_id if truth is not None else None):
            disagreements.append(header)
    return disagreements
