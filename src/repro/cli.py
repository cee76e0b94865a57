"""Command-line interface for the reproduction.

Provides one subcommand per experiment (``table1`` ... ``table7``, ``fig3`` ...
``fig5``, ``update-cost``, ``latency``), plus:

* ``all`` — run every experiment and optionally write the rendered tables to a
  directory (the programmatic equivalent of the benchmark harness's
  ``benchmarks/results/`` output);
* ``generate`` — emit a synthetic ClassBench-style filter set to a file;
* ``classify`` — build any registered classifier from a filter file (or a
  synthetic workload) and stream a generated trace through it via the unified
  :mod:`repro.api` session, printing the aggregate metrics; ``--churn N``
  interleaves N transactional rule updates into the run (update-under-load);
* ``sweep`` — run several (default: all) registered classifiers over the same
  workload and print one comparison row per engine;
* ``update`` — apply a rule-delta file to a built classifier through the
  transactional control plane (:mod:`repro.api.control`) and report the
  commit (version, epoch, per-op outcomes);
* ``lint`` — run the static ruleset analyzer (:mod:`repro.analysis.lint`)
  over a filter file or synthetic workload and report shadowed / redundant /
  conflicting / unreachable rules plus coverage statistics; ``--json`` emits
  the machine-readable report and the exit code is CI-friendly (0 clean,
  1 findings, 2 error);
* ``fabric`` — simulate a multi-switch fabric
  (:mod:`repro.controller.fabric`): partition the rule set across an N-switch
  ``line`` or ``fattree`` topology, serve an ingress-tagged flow trace
  through each switch's classifier and report placement + per-switch hit
  accounting; ``--churn N`` interleaves N topology-wide transactional
  commits (paired remove / reinsert) into the run;
* ``import`` — translate an iptables-save dump (:mod:`repro.io.iptables`)
  into a ClassBench filter file usable by every other subcommand;
* ``export`` — render any filter file or synthetic workload as a loadable
  iptables-save dump, reporting every rewrite the format forces;
* ``replay`` — stream a pcap capture file (:mod:`repro.io.pcap`) through a
  classifier on the zero-allocation packed-chunk path and report session
  statistics plus frame accounting.

``classify`` and ``fabric`` also accept ``--trace capture.pcap`` to serve a
real capture instead of a generated trace.

Usage::

    python -m repro.cli table6
    python -m repro.cli all --output-dir results/
    python -m repro.cli generate --flavor fw --size 5000 --output fw5k.rules
    python -m repro.cli classify --size 1000 --packets 200 --ip-algorithm bst
    python -m repro.cli classify --classifier hypercuts --size 1000
    python -m repro.cli classify --size 1000 --packets 10000 --fast --workers 4
    python -m repro.cli classify --size 1000 --packets 10000 --vectorized \\
        --workers 4 --transport packed
    python -m repro.cli classify --size 1000 --packets 10000 --fast \\
        --workers 4 --churn 32
    python -m repro.cli sweep --size 500 --packets 100 --classifiers hypercuts,rfc
    python -m repro.cli update --size 1000 --delta changes.delta --packets 500
    python -m repro.cli lint --rules acl1k.rules --json
    python -m repro.cli lint --size 1000 --fail-on shadowed,conflict
    python -m repro.cli fabric --switches 4 --topology line --packets 2000
    python -m repro.cli fabric --switches 7 --topology fattree --vectorized \\
        --packets 5000 --churn 8
    python -m repro.cli import firewall.rules --output fw.rules
    python -m repro.cli export --rules acl1k.rules --output acl1k.iptables
    python -m repro.cli replay capture.pcap --rules acl1k.rules --fast \\
        --workers 4
    python -m repro.cli classify --size 1000 --trace capture.pcap
    python -m repro.cli fabric --switches 4 --trace capture.pcap
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis import format_kv, format_table
from repro.api import (
    ClassificationSession,
    available_classifiers,
    create_classifier,
    validate_classifier_names,
)
from repro.core.config import CombinerMode, IpAlgorithm
from repro.exceptions import ConfigurationError, ReproError
from repro.perf.flowcache import DEFAULT_FLOW_CAPACITY, FLOW_POLICIES
from repro.experiments import (
    fig3_pipeline,
    fig4_update,
    fig5_memory_sharing,
    lookup_latency,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    update_cost,
    update_depth,
)
from repro.rules.classbench import FilterFlavor, generate_ruleset
from repro.rules.parser import dump_classbench_file, load_classbench_file
from repro.rules.trace import generate_flow_churn_trace, generate_trace

__all__ = ["main", "EXPERIMENTS"]

#: Experiment registry: CLI name -> (driver module, description).
EXPERIMENTS: Dict[str, tuple] = {
    "table1": (table1, "Table I - lookup algorithm survey"),
    "table2": (table2, "Table II - unique rule fields"),
    "table3": (table3, "Table III - rule filter sizes"),
    "table4": (table4, "Table IV - port labelling example"),
    "table5": (table5, "Table V - FPGA synthesis estimate"),
    "table6": (table6, "Table VI - MBT vs BST configuration"),
    "table7": (table7, "Table VII - system comparison"),
    "fig3": (fig3_pipeline, "Fig. 3 - lookup pipelining"),
    "fig4": (fig4_update, "Fig. 4 - incremental update behaviour"),
    "fig5": (fig5_memory_sharing, "Fig. 5 - memory sharing"),
    "update-cost": (update_cost, "Section V.A - update cost"),
    "latency": (lookup_latency, "Section V.B - per-field latencies"),
    "update-depth": (update_depth, "Commit cost vs dependency depth"),
}


def _run_experiment(name: str) -> str:
    module, _ = EXPERIMENTS[name]
    return module.render(module.run())


def _cmd_experiment(args: argparse.Namespace) -> int:
    print(_run_experiment(args.experiment))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    output_dir: Optional[Path] = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"==> {description}")
        rendered = _run_experiment(name)
        print(rendered)
        print()
        if output_dir is not None:
            (output_dir / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
    if output_dir is not None:
        print(f"Rendered tables written to {output_dir}/")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    flavor = FilterFlavor(args.flavor)
    ruleset = generate_ruleset(flavor, args.size, seed=args.seed)
    dump_classbench_file(ruleset, args.output)
    print(f"Wrote {len(ruleset)} {flavor.value.upper()} rules to {args.output}")
    return 0


def _load_workload(args: argparse.Namespace):
    if getattr(args, "rules", None):
        return load_classbench_file(args.rules)
    return generate_ruleset(FilterFlavor(args.flavor), args.size, seed=args.seed)


def _load_trace_file(args: argparse.Namespace):
    """Materialise ``--trace`` as headers; returns (trace, PcapStats).

    Used where the run needs a random-access trace (churn segmentation,
    ingress tagging).  ``replay`` streams packed chunks instead and never
    materialises anything.
    """
    from repro.io.pcap import PcapStats, read_pcap

    if getattr(args, "flows", 0):
        raise ConfigurationError(
            "--flows synthesises a flow-structured trace; it cannot be "
            "combined with --trace (the capture already fixes the flows)"
        )
    stats = PcapStats()
    trace = read_pcap(args.trace, ports=args.trace_ports, stats=stats)
    if not trace:
        raise ConfigurationError(
            f"{args.trace}: capture contains no classifiable IPv4 packets "
            f"({stats.skipped} non-IP frames skipped, {stats.truncated} truncated)"
        )
    return trace, stats


def _describe_trace(path: str, stats) -> str:
    return (
        f"{path} ({stats.packets} packets, {stats.skipped} non-IP skipped, "
        f"{stats.truncated} truncated)"
    )


def _classifier_options(name: str, args: argparse.Namespace, strict_fast: bool) -> dict:
    """Factory options for ``name``, policing the perf flags for baselines.

    The :mod:`repro.perf` fast path only exists for the configurable
    architecture.  ``--fast``/``--vectorized`` on a baseline is an error for
    ``classify`` (``strict_fast``) and a stderr warning for ``sweep`` (where
    the flag legitimately applies to the configurable entry of a mixed
    sweep) — never a silent no-op.
    """
    fast = getattr(args, "fast", False)
    vectorized = getattr(args, "vectorized", False)
    flow_cache = getattr(args, "flow_cache", False)
    if name == "configurable":
        options = {
            "ip_algorithm": args.ip_algorithm,
            "combiner": args.combiner,
            "fast": fast,
            "vectorized": vectorized,
        }
        if flow_cache:
            options["flow_cache"] = True
            options["flow_policy"] = getattr(args, "flow_policy", "idle")
            capacity = getattr(args, "flow_capacity", None)
            if capacity is not None:
                options["flow_capacity"] = capacity
            predictor = getattr(args, "flow_predictor", None)
            if predictor is not None:
                options["flow_predictor"] = predictor
        return options
    if fast or vectorized or flow_cache:
        flags = "/".join(
            flag for flag, on in (
                ("--fast", fast),
                ("--vectorized", vectorized),
                ("--flow-cache", flow_cache),
            ) if on
        )
        message = (
            f"{flags} is only supported by the 'configurable' classifier; "
            f"{name!r} has no batch fast path or flow cache"
        )
        if strict_fast:
            raise ConfigurationError(message)
        print(f"warning: {message} (running {name!r} without it)", file=sys.stderr)
    return {}


def _build_classifier(name: str, ruleset, args: argparse.Namespace, strict_fast: bool = True):
    return create_classifier(
        name, ruleset, **_classifier_options(name, args, strict_fast)
    )


def _split_segments(trace: Sequence, parts: int) -> List[Sequence]:
    """Split a trace into ``parts`` contiguous, near-even, non-empty slices."""
    parts = max(1, min(parts, len(trace)))
    size, extra = divmod(len(trace), parts)
    segments, start = [], 0
    for index in range(parts):
        end = start + size + (1 if index < extra else 0)
        segments.append(trace[start:end])
        start = end
    return segments


def _churn_delta(ruleset, step: int):
    """One synthetic churn transaction: remove + reinsert one installed rule."""
    from repro.api.control import Txn

    rules = ruleset.rules()
    if not rules:
        raise ConfigurationError("cannot churn an empty rule set")
    rule = rules[step % len(rules)]
    return Txn().remove(rule.rule_id).insert(rule).delta()


def _cmd_classify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigurationError(f"worker count must be positive, got {args.workers}")
    if args.churn < 0:
        raise ConfigurationError(f"churn count must be non-negative, got {args.churn}")
    ruleset = _load_workload(args)
    trace_stats = None
    if args.trace:
        trace, trace_stats = _load_trace_file(args)
    elif args.flows:
        # A flow-structured trace (repeating 5-tuples, Zipf or uniform
        # popularity with flow churn) — the workload the exact-match flow
        # cache serves.
        trace = generate_flow_churn_trace(
            ruleset,
            count=args.packets,
            seed=args.seed + 1,
            flows=args.flows,
            popularity=args.flow_popularity,
            churn=args.flow_churn_rate,
        )
    else:
        trace = generate_trace(ruleset, count=args.packets, seed=args.seed + 1)
    # With churn the trace is cut into churn+1 segments and one transactional
    # update (remove + reinsert of an installed rule) commits between
    # consecutive segments — classification under live rule churn.
    segments = _split_segments(trace, args.churn + 1) if args.churn else [trace]
    updates_applied = 0
    details = {}
    # An explicit transport is honoured even with one worker — never a
    # silent no-op (a 1-worker process pool is a real isolation choice).
    parallel = args.workers > 1 or args.transport != "auto"
    if parallel:
        from repro.perf import ParallelSession, ReplicaSpec

        spec = ReplicaSpec(
            args.classifier, ruleset, _classifier_options(args.classifier, args, True)
        )
        with ParallelSession.from_factory(
            spec,
            workers=args.workers,
            chunk_size=args.chunk_size,
            transport=args.transport,
        ) as session:
            for index, segment in enumerate(segments):
                stats = session.run(segment)
                if index < len(segments) - 1:
                    session.apply(_churn_delta(ruleset, index))
                    updates_applied += 1
            details = session.replica_details()
            flow = session.flow_cache_stats()
            transport = session.transport
    else:
        classifier = _build_classifier(args.classifier, ruleset, args)
        runner = ClassificationSession(classifier, chunk_size=args.chunk_size)
        for index, segment in enumerate(segments):
            stats = runner.run(segment)
            if index < len(segments) - 1:
                classifier.control.begin().extend(_churn_delta(ruleset, index)).commit()
                updates_applied += 1
        details = classifier.stats().details
        flow_cache = getattr(classifier, "flow_cache", None)
        flow = flow_cache.stats() if flow_cache is not None else None
    report = {
        "Rule set": f"{ruleset.name} ({len(ruleset)} rules)",
        "Classifier": stats.classifier,
        "Packets classified": stats.packets,
        "Chunks streamed": stats.chunks,
        "Hit ratio": f"{stats.hit_ratio:.3f}",
        "Avg memory accesses / packet": f"{stats.average_memory_accesses:.1f}",
        "Structure memory": f"{stats.memory_megabits:.2f} Mbit",
    }
    if trace_stats is not None:
        report["Trace file"] = _describe_trace(args.trace, trace_stats)
    if parallel:
        report["Worker replicas"] = args.workers
        report["Chunk transport"] = transport
    if updates_applied:
        report["Churn updates applied"] = updates_applied
    if args.flows:
        report["Flow trace"] = (
            f"{args.flows} flows, {args.flow_popularity} popularity, "
            f"churn {args.flow_churn_rate:g}"
        )
    if flow and flow["lookups"]:
        report["Flow cache hit rate"] = f"{flow['hit_rate']:.3f}"
        if flow["evictions"]:
            report["Flow cache evictions"] = flow["evictions"]
    if stats.average_latency_cycles is not None:
        report["Avg latency (cycles)"] = f"{stats.average_latency_cycles:.1f}"
    if stats.truncated_lookups:
        report["Truncated lookups (!)"] = stats.truncated_lookups
    if "ip_algorithm" in details:
        report["IP algorithm"] = str(details["ip_algorithm"]).upper()
        report["Combiner mode"] = details["combiner_mode"]
        fast_state = "off"
        if details.get("fast_path"):
            fast_state = "on (vectorized)" if details.get("fast_path_vectorized") else "on"
        report["Batch fast path"] = fast_state
        if details.get("flow_cache"):
            report["Flow cache"] = f"on ({details['flow_cache_policy']} policy)"
        report["Model throughput (40B packets)"] = f"{details['throughput_gbps']:.2f} Gbps"
        report["Rule capacity"] = details["rule_capacity"]
    print(format_kv(report, title="Classification run"))
    return 0


def _fabric_churn_victims(ruleset, count: int) -> List:
    """Rules to churn through the fabric: prefer overlap-free singletons.

    A singleton rule is its own placement component, so removing and
    reinserting it moves exactly one rule on exactly its host switches —
    churn measures the fabric update path, not a placement reshuffle.
    """
    from repro.analysis.depindex import DependencyIndex

    rules = ruleset.rules()
    if not rules:
        raise ConfigurationError("cannot churn an empty rule set")
    index = DependencyIndex(rules)
    singles = [rule for rule in rules if not index.overlapping(rule)]
    pool = singles or rules
    return [pool[i % len(pool)] for i in range(count)]


def _cmd_fabric(args: argparse.Namespace) -> int:
    """Simulate a multi-switch fabric serving an ingress-tagged flow trace."""
    from dataclasses import replace

    from repro.controller.fabric import FabricController, Topology
    from repro.core.config import ClassifierConfig
    from repro.rules.trace import generate_fabric_trace

    if args.churn < 0:
        raise ConfigurationError(f"churn count must be non-negative, got {args.churn}")
    ruleset = _load_workload(args)
    if args.topology == "line":
        topology = Topology.line(args.switches)
    else:
        topology = Topology.fattree(args.switches)
    config = ClassifierConfig().with_ip_algorithm(IpAlgorithm(args.ip_algorithm))
    config = replace(config, combiner_mode=CombinerMode(args.combiner))
    fabric = FabricController(
        topology, config, fast=args.fast, vectorized=args.vectorized
    )
    fabric.install(ruleset)
    plan = fabric.plan
    trace_stats = None
    if args.trace:
        # Real captures carry no ingress tags; serve() assigns each header a
        # deterministic, flow-affine ingress (assign_ingresses).
        trace, trace_stats = _load_trace_file(args)
    else:
        trace = generate_fabric_trace(
            ruleset,
            topology.ingresses(),
            count=args.packets,
            seed=args.seed + 1,
            flows=args.flows or 64,
            popularity=args.flow_popularity,
            churn=args.flow_churn_rate,
        )
    # Fabric churn commits in *pairs* (remove in one commit, reinsert in the
    # next): a remove+reinsert staged in a single transaction diffs to empty
    # per-switch deltas, since per-switch programs are content-compared.
    segments = _split_segments(trace, args.churn + 1) if args.churn else [trace]
    victims = _fabric_churn_victims(ruleset, (args.churn + 1) // 2)
    packets = matched = hop_lookups = updates_applied = 0
    for index, segment in enumerate(segments):
        result = fabric.serve(segment)
        packets += result.packets
        matched += result.matched
        hop_lookups += result.hop_lookups
        if index < len(segments) - 1:
            victim = victims[index // 2]
            txn = fabric.begin()
            if index % 2 == 0:
                txn.remove(victim.rule_id)
            else:
                txn.insert(victim)
            txn.commit()
            updates_applied += 1
    report = {
        "Rule set": f"{ruleset.name} ({len(ruleset)} rules)",
        "Topology": f"{topology.name} ({len(topology.switches)} switches, "
                    f"{len(topology.ingresses())} ingresses)",
        "Placement buckets (k)": plan.k,
        "Rule slots installed": f"{plan.total_rule_slots} "
                                f"(full replication: {len(ruleset) * len(topology.switches)})",
        "Replication factor": f"{plan.replication_factor:.2f}",
        "Largest switch program": plan.max_switch_rules,
        "Packets served": packets,
        "Hit ratio": f"{matched / packets:.3f}" if packets else "n/a",
        "Per-hop lookups": hop_lookups,
        "Fabric commits": fabric.commits,
        "Rolled-back commits": fabric.rolled_back_commits,
    }
    if trace_stats is not None:
        report["Trace file"] = _describe_trace(args.trace, trace_stats)
    if updates_applied:
        report["Churn updates applied"] = updates_applied
    if args.fast or args.vectorized:
        report["Batch fast path"] = "on (vectorized)" if args.vectorized else "on"
    print(format_kv(report, title="Fabric simulation"))
    rows = []
    for switch in fabric.switches():
        rows.append(
            {
                "Switch": f"dp{switch.datapath_id}",
                "Rules": switch.classifier.installed_rules,
                "Lookups": switch.stats.packets_classified,
                "Hits": switch.stats.packets_matched,
                "Hit ratio": switch.stats.match_ratio,
                "Version": switch.classifier.control.version,
            }
        )
    print(format_table(rows, title="Per-switch accounting"))
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    """Apply a rule-delta file through the transactional control plane."""
    from repro.api.control import load_delta_file

    ruleset = _load_workload(args)
    classifier = _build_classifier(args.classifier, ruleset, args)
    plane = classifier.control
    before = plane.program()
    delta = load_delta_file(args.delta, before)
    if not delta.ops:
        print(f"{args.delta}: no operations staged; nothing to commit.")
        return 0
    commit = plane.begin().extend(delta).commit()
    after = plane.program()
    report = {
        "Rule set": f"{ruleset.name} ({len(before.rules)} rules before)",
        "Delta file": args.delta,
        "Ops committed": len(commit.delta),
        "Program version": f"{before.version} -> {after.version}",
        "Commit epoch": commit.epoch,
        "Structural update": "yes" if commit.structural else "no",
        "Update cycles": commit.update_cycles,
        "Rules installed": len(after.rules),
    }
    print(format_kv(report, title="Control-plane commit (all-or-nothing)"))
    for line in commit.delta.describe():
        print(f"  * {line}")
    if args.packets:
        trace = generate_trace(ruleset, count=args.packets, seed=args.seed + 1)
        stats = ClassificationSession(classifier, chunk_size=args.chunk_size).run(trace)
        print()
        print(
            format_kv(
                {
                    "Packets classified": stats.packets,
                    "Hit ratio": f"{stats.hit_ratio:.3f}",
                    "Avg memory accesses / packet": f"{stats.average_memory_accesses:.1f}",
                },
                title="Post-commit classification",
            )
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static ruleset analyzer; exit 0 clean / 1 findings / 2 error."""
    from repro.analysis.lint import LINT_CATEGORIES, analyze_ruleset

    if args.fail_on:
        fail_on = {name.strip() for name in args.fail_on.split(",") if name.strip()}
        unknown = fail_on - set(LINT_CATEGORIES)
        if unknown:
            raise ConfigurationError(
                f"unknown lint categories: {', '.join(sorted(unknown))} "
                f"(known: {', '.join(LINT_CATEGORIES)})"
            )
    else:
        fail_on = set(LINT_CATEGORIES)
    ruleset = _load_workload(args)
    report = analyze_ruleset(ruleset, max_witnesses=args.max_witnesses)
    print(report.to_json() if args.json else report.render_text())
    failing = sum(1 for finding in report.findings if finding.category in fail_on)
    return 1 if failing else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    ruleset = _load_workload(args)
    trace = generate_trace(ruleset, count=args.packets, seed=args.seed + 1)
    names = (
        [name.strip() for name in args.classifiers.split(",") if name.strip()]
        if args.classifiers
        else list(available_classifiers())
    )
    # Fail fast on typos before the (potentially expensive) build loop.
    validate_classifier_names(names)
    rows = []
    for name in names:
        classifier = _build_classifier(name, ruleset, args, strict_fast=False)
        stats = ClassificationSession(classifier, chunk_size=args.chunk_size).run(trace)
        rows.append(
            {
                "Classifier": name,
                "Avg accesses": stats.average_memory_accesses,
                "Worst accesses": stats.worst_memory_accesses,
                "Memory Mbit": stats.memory_megabits,
                "Hit ratio": stats.hit_ratio,
            }
        )
    title = (
        f"Classifier sweep on {ruleset.name} "
        f"({len(ruleset)} rules, {len(trace)} packets)"
    )
    print(format_table(rows, title=title))
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    """Translate an iptables-save dump into a ClassBench filter file."""
    from repro.io.iptables import load_iptables_file

    ruleset = load_iptables_file(args.input)
    lines = dump_classbench_file(ruleset, args.output, include_action=True)
    tagged = sum(
        1 for rule in ruleset.rules() if "source_rule_id" in rule.metadata
    )
    report = {
        "Input": args.input,
        "Rules imported": len(ruleset),
        "Lines written": f"{len(lines)} -> {args.output}",
        "rid-tagged rules": tagged,
    }
    print(format_kv(report, title="iptables import"))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Render a filter file / synthetic workload as loadable iptables-save."""
    from repro.io.iptables import dump_iptables_file

    ruleset = _load_workload(args)
    export = dump_iptables_file(
        ruleset, args.output, chain=args.chain, mode=args.mode
    )
    report = {
        "Rule set": f"{ruleset.name} ({export.rules_in} rules)",
        "Output": f"{args.output} (chain {args.chain})",
        "iptables rules written": export.lines_out,
        "Expanded rules": len(export.expanded),
        "Fidelity": (
            "exact over realizable packets"
            if export.exact
            else f"{len(export.notes)} semantic note(s) below"
        ),
    }
    print(format_kv(report, title="iptables export"))
    for note in export.notes:
        print(f"  * rule {note.rule_id} [{note.category}]: {note.detail}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Stream a pcap capture through a classifier on the packed-chunk path."""
    from repro.io.pcap import PcapStats, read_pcap_packed
    from repro.perf import ParallelSession, ReplicaSpec

    if args.workers < 1:
        raise ConfigurationError(f"worker count must be positive, got {args.workers}")
    ruleset = _load_workload(args)
    spec = ReplicaSpec(
        args.classifier, ruleset, _classifier_options(args.classifier, args, True)
    )
    trace_stats = PcapStats()
    # The zero-allocation path: 5-tuples pack straight into 104-bit chunk
    # words; workers are the first place a PacketHeader exists.
    chunks = read_pcap_packed(
        args.trace,
        chunk_size=args.chunk_size,
        ports=args.trace_ports,
        stats=trace_stats,
    )
    with ParallelSession.from_factory(
        spec,
        workers=args.workers,
        chunk_size=args.chunk_size,
        transport=args.transport,
    ) as session:
        stats = session.run(chunks)
        transport = session.transport
    report = {
        "Rule set": f"{ruleset.name} ({len(ruleset)} rules)",
        "Trace file": _describe_trace(args.trace, trace_stats),
        "Port extraction": args.trace_ports,
        "Classifier": stats.classifier,
        "Packets classified": stats.packets,
        "Chunks streamed": stats.chunks,
        "Hit ratio": f"{stats.hit_ratio:.3f}",
        "Avg memory accesses / packet": f"{stats.average_memory_accesses:.1f}",
        "Worker replicas": args.workers,
        "Chunk transport": transport,
    }
    print(format_kv(report, title="Capture replay"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the SOCC 2014 configurable packet classification architecture",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, (_, description) in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=description)
        sub.set_defaults(func=_cmd_experiment, experiment=name)

    sub_all = subparsers.add_parser("all", help="run every experiment")
    sub_all.add_argument("--output-dir", default=None, help="directory for rendered tables")
    sub_all.set_defaults(func=_cmd_all)

    sub_generate = subparsers.add_parser("generate", help="generate a synthetic filter set")
    sub_generate.add_argument("--flavor", choices=[f.value for f in FilterFlavor], default="acl")
    sub_generate.add_argument("--size", type=int, default=1000)
    sub_generate.add_argument("--seed", type=int, default=2014)
    sub_generate.add_argument("--output", required=True)
    sub_generate.set_defaults(func=_cmd_generate)

    def add_workload_arguments(
        sub: argparse.ArgumentParser, packets: bool = True
    ) -> None:
        sub.add_argument("--rules", default=None, help="ClassBench filter file (optional)")
        sub.add_argument("--flavor", choices=[f.value for f in FilterFlavor], default="acl")
        sub.add_argument("--size", type=int, default=1000)
        sub.add_argument("--seed", type=int, default=2014)
        if packets:
            sub.add_argument("--packets", type=int, default=200)
        sub.add_argument(
            "--fast", action="store_true",
            help="enable the repro.perf batch fast path (configurable classifier only)",
        )
        sub.add_argument(
            "--vectorized", action="store_true",
            help="enable the vectorized cold path of the fast path "
                 "(implies --fast; configurable classifier only)",
        )
        sub.add_argument(
            "--ip-algorithm", choices=[a.value for a in IpAlgorithm], default="mbt",
            help="IPalg_s position (configurable classifier only)",
        )
        sub.add_argument(
            "--combiner", choices=[m.value for m in CombinerMode], default="cross_product",
            help="label combination mode (configurable classifier only)",
        )

    def add_trace_port_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-ports", choices=["transport", "word"], default="transport",
            dest="trace_ports",
            help="pcap port extraction: real L4 ports for port-bearing "
                 "protocols (transport) or the first 4 bytes after the IP "
                 "header unconditionally (word, hardware-extractor "
                 "semantics)",
        )

    def add_trace_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace", default=None,
            help="serve a pcap capture file instead of a generated trace "
                 "(--packets and --flows do not apply; the capture fixes "
                 "the workload)",
        )
        add_trace_port_argument(sub)

    sub_classify = subparsers.add_parser(
        "classify", help="classify a trace with any registered classifier"
    )
    sub_classify.add_argument(
        "--classifier", choices=available_classifiers(), default="configurable",
        help="registered classification engine",
    )
    sub_classify.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard the trace across (ParallelSession); "
             "more than one runs the process pool",
    )
    sub_classify.add_argument(
        "--transport", choices=["auto", "packed", "pickle"], default="auto",
        help="process-pool chunk transport: packed 104-bit header words in "
             "a shared-memory ring (zero-copy) or pickled object chunks; "
             "auto prefers packed when shared memory is available; a "
             "non-default transport runs the pool even with one worker",
    )
    sub_classify.add_argument(
        "--churn", type=int, default=0,
        help="interleave N transactional rule updates (remove + reinsert) "
             "into the run, spread evenly across the trace — classification "
             "under live rule churn",
    )
    sub_classify.add_argument(
        "--flow-cache", action="store_true", dest="flow_cache",
        help="front the lookup path with the exact-match flow cache "
             "(repro.perf.flowcache; configurable classifier only)",
    )
    sub_classify.add_argument(
        "--flow-policy", choices=list(FLOW_POLICIES), default="idle",
        help="flow-cache eviction policy: idle / hard timeout or the "
             "HQTimer-style hybrid timer scheme",
    )
    sub_classify.add_argument(
        "--flow-capacity", type=int, default=None,
        help="flow-cache capacity in entries (default %d)" % DEFAULT_FLOW_CAPACITY,
    )
    sub_classify.add_argument(
        "--flow-predictor", choices=["frequency", "recency"], default=None,
        help="predictor scoring which entries stay resident under capacity "
             "pressure (default: plain LRU)",
    )
    sub_classify.add_argument(
        "--flows", type=int, default=0,
        help="generate a flow-structured trace of N repeating flows instead "
             "of independent headers (the workload a flow cache serves)",
    )
    sub_classify.add_argument(
        "--flow-popularity", choices=["zipf", "uniform"], default="zipf",
        help="flow popularity distribution of the --flows trace",
    )
    sub_classify.add_argument(
        "--flow-churn-rate", type=float, default=0.0,
        help="per-packet probability that one live flow of the --flows "
             "trace dies and a fresh flow replaces it",
    )
    add_workload_arguments(sub_classify)
    add_trace_arguments(sub_classify)
    sub_classify.set_defaults(func=_cmd_classify)

    sub_update = subparsers.add_parser(
        "update",
        help="apply a rule-delta file through the transactional control plane",
    )
    sub_update.add_argument(
        "--classifier", choices=available_classifiers(), default="configurable",
        help="registered classification engine to build and update",
    )
    sub_update.add_argument(
        "--delta", required=True,
        help="rule-delta file: '- <rule_id>' removes, '+ @<classbench line>' "
             "inserts, '! ip_algorithm=<mbt|bst>' / '! combiner=<mode>' "
             "reconfigures; the whole file commits as one transaction",
    )
    add_workload_arguments(sub_update)
    sub_update.set_defaults(func=_cmd_update)

    sub_lint = subparsers.add_parser(
        "lint",
        help="statically analyze a rule set: shadowed / redundant / "
             "conflicting / unreachable rules and coverage statistics",
    )
    sub_lint.add_argument("--rules", default=None, help="ClassBench filter file (optional)")
    sub_lint.add_argument("--flavor", choices=[f.value for f in FilterFlavor], default="acl")
    sub_lint.add_argument("--size", type=int, default=1000)
    sub_lint.add_argument("--seed", type=int, default=2014)
    sub_lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report instead of text",
    )
    sub_lint.add_argument(
        "--fail-on", default=None, dest="fail_on",
        help="comma-separated categories that fail the run with exit code 1 "
             "(default: all of shadowed,redundant,conflict,unreachable)",
    )
    sub_lint.add_argument(
        "--max-witnesses", type=int, default=4096, dest="max_witnesses",
        help="witness-grid budget of the exact unreachability check; rules "
             "exceeding it are skipped (reported, never guessed)",
    )
    sub_lint.set_defaults(func=_cmd_lint)

    sub_sweep = subparsers.add_parser(
        "sweep", help="compare registered classifiers on one workload"
    )
    sub_sweep.add_argument(
        "--classifiers", default=None,
        help="comma-separated registry names (default: all registered)",
    )
    add_workload_arguments(sub_sweep)
    sub_sweep.set_defaults(func=_cmd_sweep)

    sub_fabric = subparsers.add_parser(
        "fabric",
        help="simulate a multi-switch fabric: partitioned rule placement, "
             "topology-wide transactional updates, per-switch serving",
    )
    sub_fabric.add_argument(
        "--switches", type=int, default=4,
        help="number of switches in the fabric",
    )
    sub_fabric.add_argument(
        "--topology", choices=["line", "fattree"], default="line",
        help="fabric shape: a linear chain, or a tiny 2-level fat-tree "
             "(1 core + 2 aggregation + N-3 edge switches, needs N >= 5)",
    )
    sub_fabric.add_argument(
        "--churn", type=int, default=0,
        help="interleave N topology-wide transactional commits (paired "
             "remove / reinsert of an installed rule) into the run",
    )
    sub_fabric.add_argument(
        "--flows", type=int, default=0,
        help="live flows of the ingress-tagged trace (default 64)",
    )
    sub_fabric.add_argument(
        "--flow-popularity", choices=["zipf", "uniform"], default="zipf",
        help="flow popularity distribution of the fabric trace",
    )
    sub_fabric.add_argument(
        "--flow-churn-rate", type=float, default=0.0,
        help="per-packet probability that one live flow dies and a fresh "
             "flow (possibly at a different ingress) replaces it",
    )
    add_workload_arguments(sub_fabric)
    add_trace_arguments(sub_fabric)
    sub_fabric.set_defaults(func=_cmd_fabric)

    sub_import = subparsers.add_parser(
        "import",
        help="translate an iptables-save dump into a ClassBench filter file",
    )
    sub_import.add_argument(
        "input",
        help="iptables-save dump (the output of `iptables-save`); only the "
             "filter table is supported, unsupported matches are "
             "line-numbered errors",
    )
    sub_import.add_argument(
        "--output", required=True,
        help="ClassBench filter file to write (action=<name> columns "
             "preserve the iptables targets)",
    )
    sub_import.set_defaults(func=_cmd_import)

    sub_export = subparsers.add_parser(
        "export",
        help="render a filter file or synthetic workload as a loadable "
             "iptables-save dump",
    )
    sub_export.add_argument("--output", required=True, help="iptables-save file to write")
    sub_export.add_argument(
        "--chain", default="FORWARD",
        help="chain the exported rules append to (default FORWARD)",
    )
    sub_export.add_argument(
        "--mode", choices=["expand", "strict"], default="expand",
        help="what to do with rules iptables cannot express 1:1: rewrite "
             "them exactly over realizable packets and report (expand), or "
             "fail (strict)",
    )
    add_workload_arguments(sub_export, packets=False)
    sub_export.set_defaults(func=_cmd_export)

    sub_replay = subparsers.add_parser(
        "replay",
        help="stream a pcap capture through a classifier on the "
             "zero-allocation packed-chunk path",
    )
    sub_replay.add_argument("trace", help="classic pcap capture file to replay")
    add_trace_port_argument(sub_replay)
    sub_replay.add_argument(
        "--classifier", choices=available_classifiers(), default="configurable",
        help="registered classification engine",
    )
    sub_replay.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard the capture across (ParallelSession)",
    )
    sub_replay.add_argument(
        "--transport", choices=["auto", "packed", "pickle"], default="auto",
        help="process-pool chunk transport; packed ships the capture's "
             "chunk words through shared memory verbatim",
    )
    add_workload_arguments(sub_replay, packets=False)
    sub_replay.set_defaults(func=_cmd_replay)

    for sub in (sub_classify, sub_update, sub_sweep, sub_replay):
        sub.add_argument("--chunk-size", type=int, default=256,
                         help="streaming session chunk size")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro sweep | head`) closed the pipe.
        return 0


if __name__ == "__main__":
    sys.exit(main())
