"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A small trace CSV written via the CLI itself."""
    path = tmp_path_factory.mktemp("cli") / "trace.csv.gz"
    assert main(["trace", "--scale", "0.008", "--out", str(path)]) == 0
    return path


class TestGenerate:
    def test_generates_csv_rows(self, capsys):
        assert main(["generate", "--date", "2010-09-01", "--hosts", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("cores,")
        assert len(out) == 6

    def test_accepts_year_date(self, capsys):
        assert main(["generate", "--date", "2012", "--hosts", "2"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_summary_flag(self, capsys):
        assert main(["generate", "--hosts", "3", "--summary"]) == 0
        captured = capsys.readouterr()
        assert "resource" in captured.err

    def test_deterministic_with_seed(self, capsys):
        main(["generate", "--hosts", "4", "--seed", "7"])
        first = capsys.readouterr().out
        main(["generate", "--hosts", "4", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second


class TestFleet:
    def test_fleet_summary(self, capsys):
        assert main(["fleet", "--size", "5000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "5000 hosts" in out
        assert "resource" in out

    def test_fleet_correlation_and_digest(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--size",
                    "5000",
                    "--shards",
                    "2",
                    "--correlation",
                    "--digest",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table VIII" in out
        assert "fleet sha256:" in out

    def test_fleet_csv_out_matches_size(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.csv"
        assert (
            main(
                [
                    "fleet",
                    "--size",
                    "1000",
                    "--chunk-size",
                    "300",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("cores,")
        assert len(lines) == 1001

    def test_fleet_summary_subcommand_equals_bare_fleet(self, capsys):
        assert main(["fleet", "summary", "--size", "5000", "--seed", "3"]) == 0
        summary_out = capsys.readouterr().out
        assert main(["fleet", "--size", "5000", "--seed", "3"]) == 0
        bare_out = capsys.readouterr().out
        # Identical apart from the timing line.
        assert summary_out.splitlines()[1:] == bare_out.splitlines()[1:]

    def test_fleet_flags_before_subcommand_survive(self, capsys):
        # Pre-3.13 argparse copies the sub-namespace over the parent's; the
        # SUPPRESS defaults on the nested parsers keep early flags alive.
        assert main(["fleet", "--size", "4000", "--quantiles", "summary"]) == 0
        out = capsys.readouterr().out
        assert "4000 hosts" in out
        assert "median" in out

    def test_fleet_zero_size_with_quantiles_is_graceful(self, capsys):
        assert main(["fleet", "--size", "0", "--quantiles"]) == 0
        out = capsys.readouterr().out
        assert "0 hosts" in out
        assert "nan" in out

    def test_fleet_summary_quantiles(self, capsys):
        assert (
            main(["fleet", "summary", "--size", "9000", "--seed", "3", "--quantiles"])
            == 0
        )
        out = capsys.readouterr().out
        assert "median" in out
        assert "Streamed deciles" in out
        assert "p90" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--size", "100", "--shards", "0"],
            ["fleet", "--size", "100", "--shards", "-2"],
            ["fleet", "--size", "100", "--chunk-size", "0"],
            ["fleet", "summary", "--size", "100", "--chunk-size", "-1"],
            ["fleet", "--size", "-5"],
        ],
    )
    def test_fleet_rejects_non_positive_integers(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "must be" in err
        assert "Traceback" not in err


class TestFleetExportVerify:
    def test_export_then_verify_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "export"
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--size",
                    "9000",
                    "--shards",
                    "2",
                    "--out-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 csv shard segment(s)" in out
        assert (out_dir / "manifest.json").exists()
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, tmp_path, capsys):
        out_dir = tmp_path / "corrupt"
        main(
            [
                "fleet",
                "export",
                "--size",
                "5000",
                "--shards",
                "2",
                "--out-dir",
                str(out_dir),
            ]
        )
        capsys.readouterr()
        segment = next(out_dir.glob("segment-*.csv"))
        segment.write_bytes(b"0" + segment.read_bytes()[1:])
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_verify_truncated_segment_names_the_file(self, tmp_path, capsys):
        """Partial files exit 1 with a path-specific truncation message."""
        out_dir = tmp_path / "trunc"
        main(["fleet", "export", "--size", "5000", "--shards", "2",
              "--out-dir", str(out_dir)])
        capsys.readouterr()
        segment = sorted(out_dir.glob("segment-*.csv"))[1]
        segment.write_bytes(segment.read_bytes()[:100])
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert segment.name in out
        assert "truncated" in out

    def test_verify_missing_manifest_exits_cleanly(self, tmp_path, capsys):
        assert main(["fleet", "verify", str(tmp_path / "absent.json")]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "cannot read" in out

    def test_export_rejects_bad_shards(self, tmp_path, capsys):
        assert (
            main(
                [
                    "fleet",
                    "export",
                    "--size",
                    "100",
                    "--shards",
                    "0",
                    "--out-dir",
                    str(tmp_path / "x"),
                ]
            )
            == 2
        )
        assert "must be" in capsys.readouterr().err


class TestFleetResumableExport:
    def test_checkpointed_export_then_compact(self, tmp_path, capsys):
        out_dir = tmp_path / "blocks"
        assert (
            main(["fleet", "export", "--size", "9000", "--out-dir", str(out_dir),
                  "--checkpoint-every", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "3 csv block segment(s)" in out
        assert "checkpoint every 2 block(s)" in out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0
        capsys.readouterr()
        compact_dir = tmp_path / "compacted"
        assert (
            main(["fleet", "compact", str(out_dir / "manifest.json"),
                  "--out-dir", str(compact_dir), "--shards", "2"])
            == 0
        )
        assert "2 csv segment(s)" in capsys.readouterr().out
        assert main(["fleet", "verify", str(compact_dir / "manifest.json")]) == 0

    def test_interrupt_then_resume_roundtrip(self, tmp_path, capsys):
        out_dir = tmp_path / "resume"
        assert (
            main(["fleet", "export", "--size", "9000", "--out-dir", str(out_dir),
                  "--checkpoint-every", "1", "--fault-after", "1"])
            == 1
        )
        assert capsys.readouterr().err == (
            "fleet export: injected fault at writer.block.done — the partial "
            f"layout in {out_dir} resumes with --resume\n"
        )
        assert not (out_dir / "manifest.json").exists()
        assert (
            main(["fleet", "export", "--resume", "--out-dir", str(out_dir)]) == 0
        )
        out = capsys.readouterr().out
        assert "resumed: 1 block(s) restored" in out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    def test_resume_without_partial_export_fails_cleanly(self, tmp_path, capsys):
        assert (
            main(["fleet", "export", "--resume", "--out-dir", str(tmp_path)]) == 1
        )
        assert "nothing to resume" in capsys.readouterr().err

    def test_resume_of_finished_export_is_noop(self, tmp_path, capsys):
        out_dir = tmp_path / "done"
        main(["fleet", "export", "--size", "5000", "--out-dir", str(out_dir),
              "--checkpoint-every", "1"])
        capsys.readouterr()
        assert (
            main(["fleet", "export", "--resume", "--out-dir", str(out_dir)]) == 0
        )
        assert "already finalised" in capsys.readouterr().out

    def test_compact_rejects_shard_layout(self, tmp_path, capsys):
        out_dir = tmp_path / "shardlay"
        main(["fleet", "export", "--size", "5000", "--out-dir", str(out_dir)])
        capsys.readouterr()
        assert (
            main(["fleet", "compact", str(out_dir / "manifest.json"),
                  "--out-dir", str(tmp_path / "c")])
            == 1
        )
        assert "block-layout" in capsys.readouterr().err

    def test_chunk_size_reaches_the_block_export_plan(self, tmp_path, capsys):
        """--chunk-size is part of the determinism envelope; it must not be
        silently dropped by the checkpointed path."""
        import json

        out_dir = tmp_path / "chunked"
        assert (
            main(["fleet", "export", "--size", "9000", "--out-dir", str(out_dir),
                  "--checkpoint-every", "1", "--chunk-size", "4321",
                  "--fault-after", "1"])
            == 1
        )
        capsys.readouterr()
        plan = json.loads((out_dir / "manifest.partial.json").read_text())
        assert plan["chunk_size"] == 4321

    def test_export_rejects_negative_checkpoint_every(self, tmp_path, capsys):
        assert (
            main(["fleet", "export", "--size", "100", "--out-dir",
                  str(tmp_path / "x"), "--checkpoint-every", "-1"])
            == 2
        )
        assert "checkpoint-every" in capsys.readouterr().err


class TestFleetExportForce:
    def test_export_into_non_empty_dir_refused(self, tmp_path, capsys):
        out_dir = tmp_path / "reuse"
        assert main(["fleet", "export", "--size", "5000",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["fleet", "export", "--size", "9000",
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "not empty" in err and "--force" in err
        # the stale export was not touched
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    def test_force_overwrites(self, tmp_path, capsys):
        out_dir = tmp_path / "forced"
        assert main(["fleet", "export", "--size", "5000",
                     "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["fleet", "export", "--size", "5000",
                     "--out-dir", str(out_dir), "--force"]) == 0
        capsys.readouterr()
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0

    def test_resume_does_not_need_force(self, tmp_path, capsys):
        out_dir = tmp_path / "resumable"
        assert (
            main(["fleet", "export", "--size", "9000", "--out-dir", str(out_dir),
                  "--checkpoint-every", "1", "--fault-after", "1"])
            == 1
        )
        assert "injected fault" in capsys.readouterr().err
        assert main(["fleet", "export", "--resume",
                     "--out-dir", str(out_dir)]) == 0


class TestFaultAliases:
    """The hidden ``--fault-after`` / ``--coordinator-fault-after`` flags
    are aliases of ``--fault-spec`` plans (README § Fault injection)."""

    @pytest.mark.parametrize(
        "command",
        [["fleet", "export"], ["fleet", "scenario", "run", "availability"]],
        ids=["fleet-export", "scenario-run"],
    )
    def test_fault_after_equals_its_block_done_plan(
        self, tmp_path, capsys, command
    ):
        from repro.faults import FIRING_LOG_NAME, read_firings

        def crash(name, *flags):
            out_dir = tmp_path / name
            assert main([*command, "--size", "40960", "--shards", "2",
                         "--checkpoint-every", "2", "--out-dir", str(out_dir),
                         *flags]) == 1
            err = capsys.readouterr().err
            assert "injected fault at writer.block.done" in err
            assert err.count("\n") == 1
            layout = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            log = tmp_path / f"{name}.faults" / FIRING_LOG_NAME
            firings = sorted(
                (f["site"], f["kind"], f["invocation"], f["spec"])
                for f in read_firings(str(log))
            )
            return layout, firings

        alias = crash("alias", "--fault-after", "3")
        spelled = crash(
            "spelled", "--fault-spec", "writer.block.done:kind=raise,after=3"
        )
        assert alias == spelled
        assert "manifest.partial.json" in alias[0]
        assert alias[1] == [("writer.block.done", "raise", 3, 0)] * 2


class TestFleetStartMethodEnv:
    def test_invalid_env_value_fails_fast(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_START_METHOD", "forkserverr")
        assert main(["fleet", "summary", "--size", "100"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "fleet: unsupported multiprocessing start method 'forkserverr' "
            "(from REPRO_START_METHOD); this platform supports "
            "fork, spawn, forkserver\n"
        )

    def test_invalid_env_value_fails_export_too(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_START_METHOD", "frobnicate")
        assert main(["fleet", "export", "--size", "100",
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unsupported multiprocessing start method" in err
        assert err.count("\n") == 1  # one line, not a traceback


class TestFleetExportNonEmptyListing:
    def test_refusal_lists_offending_entries(self, tmp_path, capsys):
        out_dir = tmp_path / "occupied"
        out_dir.mkdir()
        for name in ("stale-a.csv", "stale-b.csv", "unrelated.txt"):
            (out_dir / name).write_text("x")
        assert main(["fleet", "export", "--size", "100",
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "not empty" in err and "--force" in err
        assert "stale-a.csv" in err
        assert "stale-b.csv" in err
        assert "unrelated.txt" in err

    def test_refusal_truncates_long_listings(self, tmp_path, capsys):
        out_dir = tmp_path / "crowded"
        out_dir.mkdir()
        for index in range(9):
            (out_dir / f"seg-{index}.csv").write_text("x")
        assert main(["fleet", "export", "--size", "100",
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "seg-0.csv" in err
        assert "5 more" in err


class TestFleetColumnarCli:
    def test_columnar_export_then_verify(self, tmp_path, capsys):
        out_dir = tmp_path / "columnar"
        assert main(["fleet", "export", "--size", "5000", "--shards", "2",
                     "--out-dir", str(out_dir),
                     "--format", "npz-columnar"]) == 0
        out = capsys.readouterr().out
        assert "npz-columnar" in out and "columnar" in out
        assert main(["fleet", "verify", str(out_dir / "manifest.json")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_columnar_rejects_checkpointing(self, tmp_path, capsys):
        assert main(["fleet", "export", "--size", "5000",
                     "--out-dir", str(tmp_path / "x"),
                     "--format", "npz-columnar",
                     "--checkpoint-every", "2"]) == 2
        err = capsys.readouterr().err
        assert "npz-columnar" in err and "--checkpoint-every" in err

    def test_columnar_rejected_by_distributed_backend(self, tmp_path, capsys):
        assert main(["fleet", "export", "--size", "5000",
                     "--out-dir", str(tmp_path / "x"),
                     "--format", "npz-columnar",
                     "--backend", "distributed", "--workers", "2"]) == 2
        err = capsys.readouterr().err
        assert "csv segments only" in err


class TestFleetDistributedCli:
    def test_distributed_export_matches_single_process(self, tmp_path, capsys):
        single_dir = tmp_path / "single"
        dist_dir = tmp_path / "dist"
        assert main(["fleet", "export", "--size", "9000", "--seed", "7",
                     "--out-dir", str(single_dir)]) == 0
        capsys.readouterr()
        assert main(["fleet", "export", "--size", "9000", "--seed", "7",
                     "--out-dir", str(dist_dir),
                     "--backend", "distributed", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "distributed: 2 worker(s)" in out
        assert main(["fleet", "verify", str(dist_dir / "manifest.json")]) == 0
        single = json.loads((single_dir / "manifest.json").read_text())
        dist = json.loads((dist_dir / "manifest.json").read_text())
        assert dist["payload_sha256"] == single["payload_sha256"]
        assert dist["fleet_sha256"] == single["fleet_sha256"]

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["--backend", "distributed", "--workers", "-1"], "--workers"),
            (["--backend", "distributed", "--lease-blocks", "0"],
             "--lease-blocks"),
            (["--backend", "distributed", "--workers", "0"], "--connect"),
            (["--backend", "distributed", "--connect", "nohost"], "endpoint"),
            (["--backend", "distributed", "--connect", "host:0"], "endpoint"),
            (["--backend", "distributed", "--format", "npz"], "csv"),
            (["--backend", "distributed", "--lease-depth", "0"],
             "--lease-depth"),
            (["--backend", "distributed", "--checkpoint-every", "2"],
             "--checkpoint-every"),
            (["--connect", "host:1"], "--backend"),
            (["--token-file", "fleet.token"], "--token-file"),
            (["--metrics", "metrics.json"], "--metrics"),
            (["--lease-depth", "2"], "--lease-depth"),
            (["--checkpoint-every", "-1"], "--checkpoint-every"),
            (["--date", "2010-13-45"], "'2010-13-45'"),
            (["--backend", "distributed", "--coordinator-fault-after", "0"],
             "--coordinator-fault-after"),
            (["--fault-after", "1"], "per-shard layout"),
            (["--coordinator-fault-after", "1"], "--backend distributed"),
        ],
    )
    def test_distributed_flag_validation_exits_2(self, tmp_path, capsys, argv, match):
        base = ["fleet", "export", "--size", "100",
                "--out-dir", str(tmp_path / "x")]
        assert main(base + argv) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["fleet", "serve-worker", "--port", "-7"], "--port"),
            (["fleet", "serve-worker", "--port", "70000"], "--port"),
            (["fleet", "serve-worker", "--port", "7070", "--max-jobs", "0"],
             "--max-jobs"),
            (["fleet", "serve-worker", "--port", "7070", "--drain-after", "0"],
             "--drain-after"),
        ],
    )
    def test_serve_worker_validation_exits_2(self, capsys, argv, match):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert match in err and "must be" in err

    def test_distributed_resume_without_plan_exits_1(self, tmp_path, capsys):
        assert main(["fleet", "export", "--size", "100",
                     "--out-dir", str(tmp_path / "x"),
                     "--backend", "distributed", "--workers", "1",
                     "--resume"]) == 1
        err = capsys.readouterr().err
        assert "nothing to resume" in err
        assert "Traceback" not in err

    def test_bad_token_file_exits_2(self, tmp_path, capsys):
        assert main(["fleet", "export", "--size", "100",
                     "--out-dir", str(tmp_path / "x"),
                     "--backend", "distributed", "--workers", "1",
                     "--token-file", str(tmp_path / "absent.token")]) == 2
        err = capsys.readouterr().err
        assert "token" in err
        assert "Traceback" not in err


class TestFleetValidate:
    """Exit-code contract (documented in README "Statistical validation"):
    0 = every probe passed, 1 = probe failure, 2 = usage error."""

    def test_single_probe_passes_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "validate.json"
        assert main(["fleet", "validate", "--probe", "pin/moments",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS  pin/moments" in out
        payload = json.loads(report_path.read_text())
        assert payload["report"] == "fleet-validate"
        assert payload["ok"] is True
        assert payload["canonical"] is True
        assert [p["name"] for p in payload["probes"]] == ["pin/moments"]

    def test_probe_failure_exits_1(self, monkeypatch, capsys):
        from repro.validation import CheckResult, Probe

        failing = Probe(
            name="pin/always-fails",
            family="paper_pin",
            tier="fast",
            scenario="paper",
            check=lambda ctx: [CheckResult("x", 1.0, "[2, 3]", False)],
            description="synthetic failing probe",
        )
        monkeypatch.setattr(
            "repro.validation.probes.PROBES", {failing.name: failing}
        )
        assert main(["fleet", "validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  pin/always-fails" in out
        assert "observed 1" in out and "[2, 3]" in out

    def test_untripped_control_exits_1(self, monkeypatch, capsys):
        # a control whose checks PASS (perturbation no longer trips the
        # pin) must fail the run, not silently succeed
        from repro.validation import CheckResult, Probe

        pin = Probe(
            name="pin/target",
            family="paper_pin",
            tier="fast",
            scenario="paper",
            check=lambda ctx: [CheckResult("x", 1.0, "[0, 2]", True)],
            description="target",
        )
        toothless = Probe(
            name="control/toothless",
            family="control",
            tier="fast",
            scenario="decoupled",
            check=lambda ctx: [CheckResult("x", 1.0, "[0, 2]", True)],
            expect="fail",
            control_of="pin/target",
            description="control that no longer trips",
        )
        monkeypatch.setattr(
            "repro.validation.probes.PROBES",
            {pin.name: pin, toothless.name: toothless},
        )
        assert main(["fleet", "validate"]) == 1
        assert "FAILED TO TRIP" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["fleet", "validate", "--size", "0"], "--size"),
            (["fleet", "validate", "--size", "-3"], "--size"),
            (["fleet", "validate", "--probe", "no/such-probe"],
             "unknown probe"),
            (["fleet", "validate", "--probe",
              "determinism/distributed-digest"], "unknown probe"),
            (["fleet", "validate", "--seed", "-1"], "seed"),
            (["fleet", "validate", "--date", "not-a-date"], "date"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, match):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err

    def test_bad_tier_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "validate", "--tier", "ludicrous"])
        assert excinfo.value.code == 2

    def test_list_probes(self, capsys):
        assert main(["fleet", "validate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "pin/moments" in out
        assert "control of pin/moments" in out
        # full-tier-only probes are absent from the default fast listing
        assert "distributed" not in out
        assert main(["fleet", "validate", "--list", "--tier", "full"]) == 0
        assert "determinism/distributed-digest" in capsys.readouterr().out


class TestTraceAndFit:
    def test_trace_file_written(self, trace_file):
        assert trace_file.exists()

    def test_fit_prints_table_x(self, trace_file, capsys, tmp_path):
        out_path = tmp_path / "params.json"
        assert main(["fit", "--trace", str(trace_file), "--out", str(out_path)]) == 0
        captured = capsys.readouterr().out
        assert "Relative Ratio" in captured
        payload = json.loads(out_path.read_text())
        assert "core_chain" in payload

    def test_generate_with_fitted_params(self, trace_file, tmp_path, capsys):
        out_path = tmp_path / "params.json"
        main(["fit", "--trace", str(trace_file), "--out", str(out_path)])
        capsys.readouterr()
        assert main(
            ["generate", "--params", str(out_path), "--hosts", "3"]
        ) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4


class TestPredict:
    def test_2014_scalars_printed(self, capsys):
        assert main(["predict", "--year", "2014"]) == 0
        out = capsys.readouterr().out
        assert "mean cores" in out
        assert "8100" in out  # Dhrystone 2014 mean
        assert "Multicore forecast" in out


class TestValidateAndSimulate:
    def test_validate(self, trace_file, capsys):
        assert main(["validate", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "mu_act" in out
        assert "Table VIII" in out

    def test_simulate(self, trace_file, capsys):
        assert main(["simulate", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Fig 15" in out
        assert "P2P" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestLegacyCommandValidation:
    """The legacy commands share the fleet validation path and wording."""

    @pytest.mark.parametrize(
        "argv, match",
        [
            (["trace", "--scale", "-1", "--out", "x.csv"],
             "trace: --scale must be positive (got -1.0)"),
            (["trace", "--scale", "0", "--out", "x.csv"],
             "trace: --scale must be positive (got 0.0)"),
            (["trace", "--seed", "-5", "--out", "x.csv"],
             "trace: --seed must be non-negative (got -5)"),
            (["predict", "--year", "-2014"],
             "predict: --year must be positive (got -2014.0)"),
            (["validate", "--seed", "-1", "--trace", "x.csv"],
             "validate: --seed must be non-negative (got -1)"),
            (["simulate", "--seed", "-1", "--trace", "x.csv"],
             "simulate: --seed must be non-negative (got -1)"),
            (["generate", "--hosts", "0"],
             "generate: --hosts must be a positive integer (got 0)"),
            (["generate", "--hosts", "-3"],
             "generate: --hosts must be a positive integer (got -3)"),
            (["generate", "--seed", "-1"],
             "generate: --seed must be non-negative (got -1)"),
            (["fleet", "validate", "--seed", "-1"],
             "fleet validate: --seed must be non-negative (got -1)"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, match):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert match in err
        assert "Traceback" not in err

    def test_validation_runs_before_any_file_io(self, tmp_path, capsys):
        # a bad integer must not leave a partial output file behind
        out = tmp_path / "trace.csv"
        assert main(["trace", "--scale", "-1", "--out", str(out)]) == 2
        assert not out.exists()
