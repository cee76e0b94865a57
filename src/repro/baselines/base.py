"""Common interface of the baseline classifiers.

Table I of the paper compares the proposed approach against the most popular
multi-field and decomposition algorithms on two metrics: the average number of
memory accesses per lookup and the total memory space.  Every baseline in this
package therefore implements the same small interface —
:meth:`BaselineClassifier.match_packet` returning the matched rule together
with the number of memory accesses, plus :meth:`BaselineClassifier.memory_bits`
— so the Table I harness can sweep them uniformly, and every one of them is
validated against the linear-search ground truth in the test suite.

Baselines plug into the unified :mod:`repro.api` classification protocol via
:class:`repro.api.adapters.BaselineAdapter`; the canonical way to obtain a
built instance is :meth:`BaselineClassifier.create` (or, one level up,
:func:`repro.api.create_classifier`).  Construction no longer builds the
search structure implicitly: ``__init__`` only records the rule set and the
subclass options, and the factory path invokes :meth:`build` afterwards, so
subclasses may define ``__init__`` options in any order without the base
class consuming half-initialised state.
"""

from __future__ import annotations

import abc
import functools
import inspect
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

__all__ = ["ClassificationOutcome", "BaselineClassifier", "evaluate_baseline", "BaselineEvaluation"]


@dataclass(frozen=True)
class ClassificationOutcome:
    """Result of classifying one packet with a baseline."""

    rule: Optional[Rule]
    memory_accesses: int

    @property
    def matched(self) -> bool:
        """True when some rule matched."""
        return self.rule is not None

    @property
    def rule_id(self) -> Optional[int]:
        """Id of the matched rule, or None."""
        return self.rule.rule_id if self.rule else None


class BaselineClassifier(abc.ABC):
    """A packet classifier built once from a rule set.

    Instances are constructed lazily: :meth:`build` runs the first time the
    structure is needed, or eagerly through the :meth:`create` factory.
    """

    #: Human-readable algorithm name (used in the Table I rows).
    name: str = "baseline"

    def __init__(self, ruleset: RuleSet) -> None:
        self.ruleset = ruleset
        self._built = False
        #: Constructor options of this instance (recorded automatically by
        #: ``__init_subclass__``); replayed to rebuild an equivalent
        #: structure after a rule change (see BaselineAdapter).
        self._create_options: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is None or getattr(init, "_records_options", False):
            return
        signature = inspect.signature(init)

        @functools.wraps(init)
        def wrapper(self, *args, **options):
            recorded = {}
            try:
                bound = signature.bind(self, *args, **options)
                # Everything beyond (self, ruleset) is a tuning option; a
                # **kwargs bucket is flattened so replaying via create(**...)
                # reproduces the original call.
                for name, value in list(bound.arguments.items())[2:]:
                    kind = signature.parameters[name].kind
                    if kind is inspect.Parameter.VAR_KEYWORD:
                        recorded.update(value)
                    elif kind is not inspect.Parameter.VAR_POSITIONAL:
                        recorded[name] = value
            except TypeError:
                recorded = {}
            init(self, *args, **options)
            self._create_options = recorded

        wrapper._records_options = True
        cls.__init__ = wrapper

    @classmethod
    def create(cls, ruleset: RuleSet, **options) -> "BaselineClassifier":
        """Factory path: construct with ``options`` and build the structure.

        This is the supported way to obtain a ready-to-use baseline; it lets
        subclasses accept ``__init__`` options freely because :meth:`build`
        only runs after the instance is fully initialised.
        """
        classifier = cls(ruleset, **options)
        classifier.ensure_built()
        return classifier

    def ensure_built(self) -> None:
        """Build the search structure once (idempotent)."""
        if not self._built:
            self.build()
            self._built = True

    @property
    def built(self) -> bool:
        """True once :meth:`build` has run."""
        return self._built

    @abc.abstractmethod
    def build(self) -> None:
        """Construct the search structure from ``self.ruleset``."""

    @abc.abstractmethod
    def _match(self, packet: PacketHeader) -> ClassificationOutcome:
        """Subclass lookup kernel; only runs on a built structure."""

    def match_packet(self, packet: PacketHeader) -> ClassificationOutcome:
        """Return the HPMR for ``packet`` and the memory accesses spent.

        Builds the search structure on first use, so a directly constructed
        baseline behaves like one from the :meth:`create` factory.
        """
        self.ensure_built()
        return self._match(packet)

    @abc.abstractmethod
    def _memory_bits(self) -> int:
        """Subclass accounting kernel; only runs on a built structure."""

    def memory_bits(self) -> int:
        """Total size of the search structure in bits (builds on first use)."""
        self.ensure_built()
        return self._memory_bits()

    def memory_megabits(self) -> float:
        """Memory space in Mbit — the unit of Table I."""
        return self.memory_bits() / 1e6

    def describe(self) -> dict:
        """Structured summary used by reports."""
        return {
            "algorithm": self.name,
            "rules": len(self.ruleset),
            "memory_bits": self.memory_bits(),
        }


@dataclass(frozen=True)
class BaselineEvaluation:
    """Aggregate lookup statistics of one baseline over a trace (a Table I row)."""

    algorithm: str
    rules: int
    packets: int
    average_memory_accesses: float
    worst_memory_accesses: int
    memory_megabits: float
    hit_ratio: float


def evaluate_baseline(
    classifier: BaselineClassifier, trace: Sequence[PacketHeader]
) -> BaselineEvaluation:
    """Run ``classifier`` over ``trace`` and aggregate the Table I metrics."""
    accesses: List[int] = []
    hits = 0
    for packet in trace:
        outcome = classifier.match_packet(packet)
        accesses.append(outcome.memory_accesses)
        if outcome.matched:
            hits += 1
    packets = len(trace)
    return BaselineEvaluation(
        algorithm=classifier.name,
        rules=len(classifier.ruleset),
        packets=packets,
        average_memory_accesses=sum(accesses) / packets if packets else 0.0,
        worst_memory_accesses=max(accesses) if accesses else 0,
        memory_megabits=classifier.memory_megabits(),
        hit_ratio=hits / packets if packets else 0.0,
    )
