"""Shared scenario generator for the differential test battery.

Lives in its own module (not ``conftest.py``) so that
``tests/test_differential_scenarios.py`` can import it by name: pytest loads
both ``tests/conftest.py`` and ``benchmarks/conftest.py`` under the module
name ``conftest``, so ``from conftest import ...`` resolves to whichever one
happened to load first.  A uniquely-named helper module has no such clash.
"""

from __future__ import annotations

import os
import random
from typing import List, Tuple

from repro.controller.fabric import Topology
from repro.rules.packet import PacketHeader
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet
from repro.rules.trace import (
    FabricPacket,
    generate_fabric_trace,
    generate_flow_churn_trace,
    generate_trace,
    generate_uniform_trace,
)

#: Battery seed — override with REPRO_DIFF_SEED to reproduce a CI failure
#: locally (the CI differential job echoes the seed it ran with).
DIFFERENTIAL_SEED = int(os.environ.get("REPRO_DIFF_SEED", "20140730"))

#: Trace shapes the battery sweeps: the biased ClassBench mix, an
#: adversarial all-unique-flows stream (every header distinct — worst case
#: for every memoization layer), and a heavy-duplicate stream (few flows
#: repeated — worst case for cache-correctness after the first packet), and a
#: Zipf-popularity flow-churn stream (skewed repeats with flow arrivals and
#: deaths — the flow-cache tier's reference workload).
TRACE_SHAPES: Tuple[str, ...] = ("mixed", "all_unique", "heavy_duplicate", "zipf_churn")


def build_scenario_trace(
    ruleset: RuleSet, shape: str, count: int, seed: int
) -> List[PacketHeader]:
    """Deterministically generate one trace of the requested shape."""
    if shape == "mixed":
        return generate_trace(ruleset, count=count, seed=seed)
    if shape == "all_unique":
        # Draw hit-biased headers, keep first occurrences only, and top up
        # from the uniform header space (always fresh) if the rule
        # hyper-rectangles are too small to yield enough distinct headers.
        seen = set()
        unique: List[PacketHeader] = []
        draw_seed = seed
        while len(unique) < count:
            biased = generate_trace(ruleset, count=2 * count, seed=draw_seed)
            for packet in biased + generate_uniform_trace(2 * count, seed=draw_seed + 1):
                if packet not in seen:
                    seen.add(packet)
                    unique.append(packet)
                    if len(unique) == count:
                        break
            draw_seed += 2
        return unique
    if shape == "heavy_duplicate":
        # A handful of distinct flows, re-played in random interleaving:
        # almost every packet after the warm-up is a cache hit.
        distinct = generate_trace(ruleset, count=max(4, count // 16), seed=seed)
        rng = random.Random(seed + 1)
        return [rng.choice(distinct) for _ in range(count)]
    if shape == "zipf_churn":
        # Skewed flow popularity with 5% per-packet churn: exercises every
        # flow-cache code path (hits, misses, evictions, dead flows).
        return generate_flow_churn_trace(
            ruleset,
            count=count,
            seed=seed,
            flows=max(8, count // 10),
            popularity="zipf",
            churn=0.05,
        )
    raise ValueError(f"unknown trace shape {shape!r}; choose from {TRACE_SHAPES}")


def build_fabric_topology(kind: str, switches: int) -> Topology:
    """One of the canonical fabric shapes the battery sweeps."""
    if kind == "line":
        return Topology.line(switches)
    if kind == "fattree":
        return Topology.fattree(switches)
    raise ValueError(f"unknown topology kind {kind!r}; choose 'line' or 'fattree'")


def build_fabric_trace(
    ruleset: RuleSet, topology: Topology, count: int, seed: int
) -> List[FabricPacket]:
    """Deterministic ingress-tagged trace over a fabric's ingress switches.

    Mirrors the ``zipf_churn`` single-switch shape — skewed flow popularity
    with 5% per-packet churn — so the fabric battery stresses the same
    flow dynamics the flow-cache battery does, with each flow pinned to one
    ingress switch for its lifetime.
    """
    return generate_fabric_trace(
        ruleset,
        topology.ingresses(),
        count,
        seed=seed,
        flows=max(8, count // 10),
        popularity="zipf",
        churn=0.05,
    )


def build_mutation_schedule(
    ruleset: RuleSet, boundaries: int, seed: int
) -> Tuple[List[Rule], List[List[Tuple[str, object]]]]:
    """Deterministic update schedule for the mutation-interleaved battery.

    Returns ``(initial_rules, schedule)``: the rules installed before any
    traffic flows, and one op-list per chunk boundary.  Each op is a plain
    ``(kind, payload)`` tuple — ``("insert", Rule)`` for a held-back rule,
    ``("remove", rule_id)`` for a currently installed one, or
    ``("reconfigure", "mbt"|"bst")`` toggling ``IPalg_s`` — so the same
    schedule replays identically against any execution path *and* against
    the linear-search oracle.  The schedule never removes the last rule and
    only inserts rules it held back, keeping every replay valid.  The first
    boundary never reconfigures, so every schedule has a commit the fast
    path can absorb scoped (while the datapath is still the initial MBT one).
    """
    rng = random.Random(seed)
    ordered = ruleset.rules()
    holdback = max(2, len(ordered) // 4)
    initial = ordered[:-holdback]
    pending = list(ordered[-holdback:])
    installed = [rule.rule_id for rule in initial]
    algorithm = "mbt"
    schedule: List[List[Tuple[str, object]]] = []
    for boundary in range(boundaries):
        ops: List[Tuple[str, object]] = []
        for _ in range(rng.randint(1, 2)):
            roll = rng.random()
            if roll < 0.45 and pending:
                rule = pending.pop(0)
                installed.append(rule.rule_id)
                ops.append(("insert", rule))
            elif (roll < 0.85 or boundary == 0) and len(installed) > 1:
                victim = installed.pop(rng.randrange(len(installed)))
                ops.append(("remove", victim))
            else:
                algorithm = "bst" if algorithm == "mbt" else "mbt"
                ops.append(("reconfigure", algorithm))
        schedule.append(ops)
    return initial, schedule
