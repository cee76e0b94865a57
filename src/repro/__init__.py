"""repro — a behavioural reproduction of "A Configurable Packet Classification
Architecture for Software-Defined Networking" (Guerra Pérez et al., SOCC 2014).

The front door is :mod:`repro.api` — one uniform classification surface over
every engine in the library:

* :func:`~repro.api.create_classifier` builds any registered engine by name
  (``"configurable"`` — the paper's architecture — plus ``"linear_search"``,
  ``"hypercuts"``, ``"efficuts"``, ``"rfc"``, ``"dcfl"``, ``"bitvector"``,
  ``"option1"``, ``"option2"``); :func:`~repro.api.available_classifiers`
  lists them for sweeps;
* every engine satisfies the :class:`~repro.api.PacketClassifier` protocol:
  ``classify(packet) -> Classification``, ``classify_batch(trace) ->
  BatchResult``, ``install``/``remove``, ``memory_bits()``, ``stats()``;
* :class:`~repro.api.ClassificationSession` streams traces through any engine
  in chunks with uniform statistics;
* ``ClassifierConfig.builder()`` configures the architecture fluently.

Underneath sit the paper-faithful layers:

* :mod:`repro.core` — the configurable, label-based, parallel single-field
  classification architecture (the paper's contribution);
* :mod:`repro.fields` — the single-field lookup engines (multi-bit trie,
  binary search tree, segment trie, port registers, protocol LUT);
* :mod:`repro.labels` — the DCFL-style label method with reference-counted
  label tables;
* :mod:`repro.hardware` — the behavioural hardware model (memory blocks,
  cycle accounting, pipeline, rule filter, FPGA resource estimator);
* :mod:`repro.rules` — rules, rule sets, the synthetic ClassBench-style
  generator and packet traces;
* :mod:`repro.baselines` — HyperCuts, EffiCuts, RFC, DCFL, bit-vector and
  linear-search comparison classifiers;
* :mod:`repro.controller` — the OpenFlow-lite SDN control plane driving the
  device;
* :mod:`repro.perf` — the memoizing batch-lookup fast path
  (``classifier.enable_fast_path()`` / ``create_classifier(..., fast=True)``)
  and the multi-replica :class:`~repro.perf.ParallelSession`;
* :mod:`repro.analysis` and :mod:`repro.experiments` — metrics, reporting and
  one driver per table/figure of the paper's evaluation.

Quickstart::

    from repro import generate_ruleset, generate_trace
    from repro.api import create_classifier

    rules = generate_ruleset(nominal_size=1000)
    classifier = create_classifier("configurable", rules)
    trace = generate_trace(rules, count=100)
    print(classifier.classify(trace[0]).rule_id)
    print(classifier.classify_batch(trace).average_memory_accesses)
"""

from repro.core import (
    ClassifierConfig,
    ClassifierReport,
    CombinerMode,
    ConfigurableClassifier,
    IpAlgorithm,
    LookupResult,
    UpdateResult,
)
from repro.core.result import BatchResult, Classification, ClassifierStats
from repro.api import (
    ClassificationSession,
    PacketClassifier,
    available_classifiers,
    create_classifier,
    register_classifier,
)
from repro.perf import FastPathAccelerator, ParallelSession, ReplicaSpec
from repro.rules import (
    FilterFlavor,
    PacketHeader,
    Rule,
    RuleAction,
    RuleSet,
    generate_ruleset,
    generate_trace,
    load_classbench_file,
)

__version__ = "1.5.0"

__all__ = [
    "__version__",
    "ConfigurableClassifier",
    "ClassifierConfig",
    "IpAlgorithm",
    "CombinerMode",
    "LookupResult",
    "UpdateResult",
    "ClassifierReport",
    "Classification",
    "BatchResult",
    "ClassifierStats",
    "PacketClassifier",
    "ClassificationSession",
    "FastPathAccelerator",
    "ParallelSession",
    "ReplicaSpec",
    "create_classifier",
    "available_classifiers",
    "register_classifier",
    "PacketHeader",
    "Rule",
    "RuleAction",
    "RuleSet",
    "FilterFlavor",
    "generate_ruleset",
    "generate_trace",
    "load_classbench_file",
]
