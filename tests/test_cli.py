"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tcam"])

    def test_generate_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])


class TestExperimentCommands:
    def test_table4_runs(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "B, C, A" in out

    def test_table5_runs(self, capsys):
        assert main(["table5"]) == 0
        assert "Stratix V" in capsys.readouterr().out

    def test_table7_runs(self, capsys):
        assert main(["table7"]) == 0
        assert "Our system with MBT" in capsys.readouterr().out

    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        assert "Initiation interval" in capsys.readouterr().out

    def test_fig5_runs(self, capsys):
        assert main(["fig5"]) == 0
        assert "memory sharing" in capsys.readouterr().out


class TestWorkloadCommands:
    def test_generate_writes_classbench_file(self, tmp_path, capsys):
        output = tmp_path / "acl.rules"
        assert main(["generate", "--size", "300", "--output", str(output)]) == 0
        assert output.exists()
        lines = output.read_text().strip().splitlines()
        assert len(lines) > 200
        assert lines[0].startswith("@")
        assert "Wrote" in capsys.readouterr().out

    def test_classify_synthetic_workload(self, capsys):
        assert main(["classify", "--size", "300", "--packets", "40"]) == 0
        out = capsys.readouterr().out
        assert "Classification run" in out
        assert "Hit ratio" in out
        assert "MBT" in out

    def test_classify_bst_configuration(self, capsys):
        assert main(["classify", "--size", "300", "--packets", "20", "--ip-algorithm", "bst"]) == 0
        assert "BST" in capsys.readouterr().out

    def test_classify_from_generated_file(self, tmp_path, capsys):
        rules_file = tmp_path / "fw.rules"
        main(["generate", "--flavor", "fw", "--size", "300", "--output", str(rules_file)])
        capsys.readouterr()
        assert main(["classify", "--rules", str(rules_file), "--packets", "20"]) == 0
        assert "Classification run" in capsys.readouterr().out

    def test_classify_registered_baseline(self, capsys):
        assert main(["classify", "--classifier", "hypercuts", "--size", "300",
                     "--packets", "20"]) == 0
        out = capsys.readouterr().out
        assert "hypercuts" in out
        assert "Hit ratio" in out

    def test_classify_unknown_classifier_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "--classifier", "tcam"])

    def test_classify_fast_path(self, capsys):
        assert main(["classify", "--size", "300", "--packets", "40", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Batch fast path                : on" in out

    def test_classify_parallel_workers(self, capsys):
        assert main(["classify", "--size", "300", "--packets", "40", "--fast",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "configurablex2" in out
        assert "Worker replicas" in out
        assert "Worker backend" not in out

    def test_classify_vectorized(self, capsys):
        assert main(["classify", "--size", "300", "--packets", "40",
                     "--vectorized"]) == 0
        assert "on (vectorized)" in capsys.readouterr().out

    def test_classify_process_backend(self, capsys):
        # Two workers run the process pool over the resolved transport.
        assert main(["classify", "--size", "200", "--packets", "30", "--fast",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "configurablex2" in out
        assert any(
            line.startswith("Chunk transport") and line.split()[-1] in ("packed", "pickle")
            for line in out.splitlines()
        )

    def test_backend_and_async_feed_flags_removed(self, capsys):
        for flags in (["--backend", "process"], ["--async-feed"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["classify", *flags])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "x.pcap", "--backend", "process"])

    def test_classify_packed_transport(self, capsys):
        from repro.perf import shared_memory_available

        if not shared_memory_available():
            pytest.skip("platform grants no shared memory")
        assert main(["classify", "--size", "200", "--packets", "30", "--fast",
                     "--workers", "2", "--transport", "packed"]) == 0
        out = capsys.readouterr().out
        assert any(
            line.startswith("Chunk transport") and line.endswith("packed")
            for line in out.splitlines()
        )

    def test_classify_pickle_transport_honoured_with_one_worker(self, capsys):
        # An explicit transport is never a silent no-op: one worker still
        # runs through a process pool over the requested transport.
        assert main(["classify", "--size", "200", "--packets", "30", "--fast",
                     "--workers", "1", "--transport", "pickle"]) == 0
        out = capsys.readouterr().out
        assert any(
            line.startswith("Chunk transport") and line.endswith("pickle")
            for line in out.splitlines()
        )

    def test_classify_fast_baseline_rejected(self, capsys):
        assert main(["classify", "--classifier", "hypercuts", "--size", "200",
                     "--packets", "10", "--fast"]) == 2
        err = capsys.readouterr().err
        assert "--fast is only supported by the 'configurable' classifier" in err

    def test_classify_vectorized_baseline_rejected(self, capsys):
        assert main(["classify", "--classifier", "linear_search", "--size", "150",
                     "--packets", "5", "--vectorized"]) == 2
        assert "--vectorized" in capsys.readouterr().err

    def test_sweep_fast_baseline_warns(self, capsys):
        assert main(["sweep", "--size", "150", "--packets", "10", "--fast",
                     "--classifiers", "configurable,linear_search"]) == 0
        captured = capsys.readouterr()
        assert "linear_search" in captured.out
        assert "warning: --fast is only supported" in captured.err

    def test_classify_invalid_worker_count(self, capsys):
        assert main(["classify", "--size", "150", "--packets", "5",
                     "--workers", "0"]) == 2
        assert "worker count must be positive" in capsys.readouterr().err

    def test_sweep_fast_flag(self, capsys):
        assert main(["sweep", "--size", "150", "--packets", "10", "--fast",
                     "--classifiers", "configurable,linear_search"]) == 0
        out = capsys.readouterr().out
        assert "configurable" in out and "linear_search" in out

    def test_sweep_bogus_name_clean_error(self, capsys):
        assert main(["sweep", "--size", "150", "--packets", "10",
                     "--classifiers", "tcam"]) == 2
        err = capsys.readouterr().err
        assert "'tcam'" in err and "unknown classifier" in err
        assert "registered:" in err

    def test_sweep_selected_classifiers(self, capsys):
        assert main(["sweep", "--size", "200", "--packets", "20",
                     "--classifiers", "linear_search,hypercuts,configurable"]) == 0
        out = capsys.readouterr().out
        assert "Classifier sweep" in out
        for name in ("linear_search", "hypercuts", "configurable"):
            assert name in out


class TestIngestCommands:
    """The real-workload interchange subcommands (repro.io)."""

    @pytest.fixture()
    def workload_files(self, tmp_path):
        """A generated filter file plus a capture of its synthetic trace."""
        from repro.io.pcap import write_pcap
        from repro.rules.parser import load_classbench_file
        from repro.rules.trace import generate_trace

        rules_file = tmp_path / "acl.rules"
        assert main(["generate", "--size", "150", "--seed", "7",
                     "--output", str(rules_file)]) == 0
        ruleset = load_classbench_file(rules_file)
        capture = tmp_path / "trace.pcap"
        write_pcap(str(capture), generate_trace(ruleset, count=300, seed=8), seed=9)
        return rules_file, capture

    def test_export_then_import_round_trip(self, tmp_path, workload_files, capsys):
        rules_file, _ = workload_files
        dump = tmp_path / "acl.iptables"
        capsys.readouterr()
        assert main(["export", "--rules", str(rules_file),
                     "--output", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "iptables export" in out and "Fidelity" in out
        assert dump.read_text().startswith("*filter\n")

        back = tmp_path / "back.rules"
        assert main(["import", str(dump), "--output", str(back)]) == 0
        out = capsys.readouterr().out
        assert "iptables import" in out
        assert main(["classify", "--rules", str(back), "--packets", "20"]) == 0

    def test_export_strict_mode_fails_on_inexpressible_rules(self, capsys):
        # Synthetic ACLs carry wildcard-protocol rules with port constraints,
        # which strict mode refuses to rewrite.
        assert main(["export", "--size", "200", "--seed", "1",
                     "--mode", "strict", "--output", "/dev/null"]) == 2
        assert "strict mode" in capsys.readouterr().err

    def test_import_reports_line_numbered_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.iptables"
        bad.write_text("-A FORWARD -i eth0 -j ACCEPT\n")
        assert main(["import", str(bad), "--output", str(tmp_path / "o")]) == 2
        assert "line 1:" in capsys.readouterr().err

    def test_replay_reports_capture_accounting(self, workload_files, capsys):
        rules_file, capture = workload_files
        capsys.readouterr()
        assert main(["replay", str(capture), "--rules", str(rules_file),
                     "--trace-ports", "word", "--fast", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Capture replay" in out
        assert "300 packets, 0 non-IP skipped, 0 truncated" in out
        assert "configurablex2" in out

    def test_replay_missing_capture_clean_error(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "no.pcap"), "--size", "100"]) == 2
        assert "no.pcap" in capsys.readouterr().err

    def test_classify_trace_matches_replay(self, workload_files, capsys):
        rules_file, capture = workload_files
        capsys.readouterr()
        assert main(["classify", "--rules", str(rules_file), "--trace",
                     str(capture), "--trace-ports", "word"]) == 0
        out = capsys.readouterr().out
        assert "Trace file" in out and "Packets classified" in out
        assert "300 packets" in out

    def test_classify_trace_conflicts_with_flows(self, workload_files, capsys):
        rules_file, capture = workload_files
        capsys.readouterr()
        assert main(["classify", "--rules", str(rules_file), "--trace",
                     str(capture), "--flows", "8"]) == 2
        assert "--flows" in capsys.readouterr().err

    def test_fabric_serves_a_capture(self, workload_files, capsys):
        rules_file, capture = workload_files
        capsys.readouterr()
        assert main(["fabric", "--switches", "4", "--rules", str(rules_file),
                     "--trace", str(capture), "--trace-ports", "word"]) == 0
        out = capsys.readouterr().out
        assert "Fabric simulation" in out and "Trace file" in out
        assert "Per-switch accounting" in out
