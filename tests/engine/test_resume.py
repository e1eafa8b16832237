"""Crash-injection tests for the resumable block-layout fleet export.

The contract under test: an export interrupted after *k* blocks and then
resumed produces a manifest, a CSV payload concatenation and reduced
statistics **identical** to an uninterrupted run of the same parameters.
Interruption is injected three ways — a ``writer.block.done`` fault
plan, a monkeypatched block writer that dies mid-file (leaving a
truncated segment behind), and a real ``SIGKILL`` of a CLI subprocess.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.engine.writer as writer
from repro.engine import (
    StateError,
    compact_export,
    export_fleet,
    export_fleet_blocks,
    fleet_digest,
    resume_export,
    verify_manifest,
)
from repro.timeutil import parse_date, year_fraction

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 20_000  # five RNG blocks
CHECKPOINT_EVERY = 2


def crash_after(blocks: int) -> str:
    """The fault spec that stops a block export after ``blocks`` blocks."""
    return f"writer.block.done:kind=raise,after={blocks}"


def _log_lines(path) -> "list[dict]":
    """The parsed lines of a checkpoint log."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_log_lines(path, lines) -> None:
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def _payload_bytes(out_dir, manifest) -> bytes:
    payload = b""
    for segment in manifest.segments:
        with open(os.path.join(str(out_dir), segment.path), "rb") as handle:
            payload += handle.read()
    return payload


def _assert_identical_runs(golden_dir, golden, resumed_dir, resumed) -> None:
    """Manifest JSON, payload bytes and statistics must match exactly."""
    assert resumed.manifest.to_json() == golden.manifest.to_json()
    assert _payload_bytes(resumed_dir, resumed.manifest) == _payload_bytes(
        golden_dir, golden.manifest
    )
    golden_stats, resumed_stats = golden.statistics, resumed.statistics
    assert resumed_stats.moments.means() == golden_stats.moments.means()
    assert resumed_stats.moments.stds() == golden_stats.moments.stds()
    np.testing.assert_array_equal(
        resumed_stats.correlation.matrix().values,
        golden_stats.correlation.matrix().values,
    )
    if golden_stats.quantiles is not None:
        assert resumed_stats.medians() == golden_stats.medians()
        assert (
            resumed_stats.quantiles.to_state() == golden_stats.quantiles.to_state()
        )


@pytest.fixture(scope="module")
def golden(tmp_path_factory, paper_generator):
    """The uninterrupted reference run every crash variant must reproduce."""
    out = tmp_path_factory.mktemp("golden")
    result = export_fleet_blocks(
        paper_generator,
        SEPT_2010,
        SIZE,
        SEED,
        str(out),
        shards=1,
        checkpoint_every=CHECKPOINT_EVERY,
        quantiles=True,
    )
    return out, result


class TestInjectedFault:
    @pytest.mark.parametrize("blocks", [1, 3, 4])
    def test_interrupt_then_resume_equals_uninterrupted(
        self, blocks, tmp_path, fault_plan, paper_generator, golden
    ):
        """Kill after k blocks (before/after/on a checkpoint boundary)."""
        golden_dir, golden_result = golden
        out = tmp_path / "interrupted"
        with (
            fault_plan(crash_after(blocks)),
            pytest.raises(RuntimeError, match="injected fault"),
        ):
            export_fleet_blocks(
                paper_generator,
                SEPT_2010,
                SIZE,
                SEED,
                str(out),
                shards=1,
                checkpoint_every=CHECKPOINT_EVERY,
                quantiles=True,
            )
        assert (out / writer.PLAN_NAME).exists()
        assert not (out / "manifest.json").exists()
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        expected_restored = (blocks // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
        assert resumed.resumed_blocks == expected_restored
        assert verify_manifest(str(out / "manifest.json")).ok
        assert not (out / writer.PLAN_NAME).exists()
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_multiprocess_interrupt_then_resume(
        self, tmp_path, fault_plan, paper_generator
    ):
        golden_dir = tmp_path / "golden2"
        golden_result = export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(golden_dir),
            shards=2, checkpoint_every=1, quantiles=True,
        )
        out = tmp_path / "interrupted2"
        with (
            fault_plan(crash_after(1)),
            pytest.raises(RuntimeError, match="injected fault"),
        ):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=2, checkpoint_every=1, quantiles=True,
            )
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks >= 1
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_fleet_digest_survives_resume(self, golden, paper_generator):
        _, golden_result = golden
        assert golden_result.manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, SIZE, SEED
        )


class TestMonkeypatchedWriterFault:
    def test_truncated_block_beyond_checkpoint_is_rewritten(
        self, tmp_path, paper_generator, golden
    ):
        """Die mid-write, leaving a corrupt segment the checkpoint never saw."""
        golden_dir, golden_result = golden
        out = tmp_path / "torn"
        real = writer._write_block_file

        with pytest.MonkeyPatch.context() as patch:
            calls = {"n": 0}

            def torn_write(path, block, fmt):
                if calls["n"] == 3:
                    with open(path, "wb") as handle:
                        handle.write(b"torn mid-write")
                    raise OSError("disk vanished")
                calls["n"] += 1
                return real(path, block, fmt)

            patch.setattr(writer, "_write_block_file", torn_write)
            with pytest.raises(OSError, match="disk vanished"):
                export_fleet_blocks(
                    paper_generator,
                    SEPT_2010,
                    SIZE,
                    SEED,
                    str(out),
                    shards=1,
                    checkpoint_every=CHECKPOINT_EVERY,
                    quantiles=True,
                )
        # the torn file is on disk but absent from any checkpoint
        assert (out / "block-000003.csv").read_bytes() == b"torn mid-write"
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert resumed.resumed_blocks == 2
        _assert_identical_runs(golden_dir, golden_result, out, resumed)

    def test_checkpointed_block_tampered_on_disk_is_regenerated(
        self, tmp_path, fault_plan, paper_generator, golden
    ):
        """Corruption of an already-checkpointed block file heals on resume."""
        golden_dir, golden_result = golden
        out = tmp_path / "tampered"
        with (
            fault_plan(crash_after(3)),
            pytest.raises(RuntimeError, match="injected fault"),
        ):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
            )
        target = out / "block-000000.csv"
        target.write_bytes(b"flipped" + target.read_bytes()[7:])
        resumed = resume_export(paper_generator, str(out), quantiles=True)
        assert verify_manifest(str(out / "manifest.json")).ok
        _assert_identical_runs(golden_dir, golden_result, out, resumed)


class TestResumeRejections:
    def test_nothing_to_resume(self, tmp_path, paper_generator):
        with pytest.raises(StateError, match="nothing to resume"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_finalised_manifest_rejected(self, tmp_path, paper_generator):
        """The already-finalised branch maps read errors to StateError too."""
        (tmp_path / "manifest.json").write_text("{ not json")
        with pytest.raises(StateError, match="cannot read"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_plan_rejected(self, tmp_path, paper_generator):
        (tmp_path / writer.PLAN_NAME).write_text("{ not json")
        with pytest.raises(StateError, match="cannot read"):
            resume_export(paper_generator, str(tmp_path))

    def test_wrong_plan_version_rejected(self, tmp_path, fault_plan, paper_generator):
        with fault_plan(crash_after(1)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["state_version"] = 999
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match="state_version"):
            resume_export(paper_generator, str(tmp_path))

    def test_corrupt_checkpoint_rejected(self, tmp_path, fault_plan, paper_generator):
        with fault_plan(crash_after(2)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        # A gap between lines: the first line (block 0) is lost, so the
        # second no longer continues its shard's chain.
        log_path = tmp_path / "checkpoint-0000.jsonl"
        _write_log_lines(log_path, _log_lines(log_path)[1:])
        with pytest.raises(StateError, match="checkpoint"):
            resume_export(paper_generator, str(tmp_path))

    def test_generator_parameter_mismatch_rejected(
        self, tmp_path, fault_plan, paper_generator
    ):
        """Resuming with different model parameters must not splice fleets."""
        import dataclasses

        from repro.core.generator import CorrelatedHostGenerator
        from repro.core.laws import ExponentialLaw
        from repro.core.parameters import ModelParameters

        with fault_plan(crash_after(2)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        other_params = dataclasses.replace(
            ModelParameters.paper_reference(),
            disk_mean=ExponentialLaw(99.0, 0.1, r=0.5),
        )
        with pytest.raises(StateError, match="parameter"):
            resume_export(CorrelatedHostGenerator(other_params), str(tmp_path))
        # the matching generator still resumes fine afterwards
        resumed = resume_export(paper_generator, str(tmp_path))
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert resumed.resumed_blocks == 2

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda plan: plan.__setitem__("size", "9000"), "size"),
            (lambda plan: plan.__setitem__("format", "parquet"), "format"),
            (lambda plan: plan.__setitem__("when", "sept"), "when"),
            (lambda plan: plan.__setitem__("manifest_name", "../evil.json"), "manifest_name"),
        ],
    )
    def test_corrupt_plan_fields_raise_state_error(
        self, tmp_path, fault_plan, paper_generator, mutate, match
    ):
        """Every plan corruption mode is a StateError, never a raw TypeError."""
        with fault_plan(crash_after(1)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        plan_path = tmp_path / writer.PLAN_NAME
        plan = json.loads(plan_path.read_text())
        mutate(plan)
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match=match):
            resume_export(paper_generator, str(tmp_path))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines: lines[1].pop("reducers"),
            lambda lines: lines[0]["blocks"][0].__setitem__("digest", "zz-not-hex"),
            lambda lines: lines[0]["blocks"][0].pop("sha256"),
            # a block entry naming the wrong block index
            lambda lines: lines[0]["blocks"][0].__setitem__("index", 7),
            # duplicated entry: block 0 listed twice (and block 1 dropped)
            # must not splice a wrong-but-verifiable fleet together
            lambda lines: lines[0]["blocks"].__setitem__(1, lines[0]["blocks"][0]),
            # shuffled entries are equally invalid
            lambda lines: lines[0]["blocks"].reverse(),
        ],
    )
    def test_corrupt_checkpoint_fields_raise_state_error(
        self, tmp_path, fault_plan, paper_generator, mutate
    ):
        with fault_plan(crash_after(4)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=2,
            )
        log_path = tmp_path / "checkpoint-0000.jsonl"
        lines = _log_lines(log_path)
        assert [len(line["blocks"]) for line in lines] == [2, 2]
        mutate(lines)
        _write_log_lines(log_path, lines)
        with pytest.raises(StateError, match="checkpoint"):
            resume_export(paper_generator, str(tmp_path))

    def test_reducer_mismatch_rejected(self, tmp_path, fault_plan, paper_generator):
        with fault_plan(crash_after(1)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1, quantiles=True,
            )
        with pytest.raises(StateError, match="reducer"):
            resume_export(paper_generator, str(tmp_path), quantiles=False)

    def test_non_reproducing_generator_fails_on_torn_block(
        self, tmp_path, fault_plan, paper_generator
    ):
        """A torn checkpointed file + a fleet that no longer reproduces it
        must fail fast, not finish with a self-contradictory manifest.

        (Simulates resuming in an environment whose RNG stream differs;
        here the recorded digest is forged instead.)
        """
        with fault_plan(crash_after(2)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1,
            )
        # tear block 0 on disk and forge its checkpointed digests so the
        # (correct) regeneration cannot match them
        (tmp_path / "block-000000.csv").write_bytes(b"torn")
        log_path = tmp_path / "checkpoint-0000.jsonl"
        lines = _log_lines(log_path)
        lines[0]["blocks"][0].update(digest="ab" * 32, sha256="cd" * 32)
        _write_log_lines(log_path, lines)
        with pytest.raises(StateError, match="does not reproduce"):
            resume_export(paper_generator, str(tmp_path))

    def test_npz_torn_checkpointed_block_heals_with_fresh_record(
        self, tmp_path, fault_plan, paper_generator
    ):
        """An npz rewrite records the bytes actually on disk (zip metadata
        is not byte-stable), so the healed export still verifies."""
        with fault_plan(crash_after(3)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, fmt="npz", checkpoint_every=1,
            )
        (tmp_path / "block-000001.npz").unlink()
        resumed = resume_export(paper_generator, str(tmp_path))
        assert resumed.resumed_blocks == 3
        assert verify_manifest(str(tmp_path / "manifest.json")).ok

    def test_unrestorable_reducer_set_fails_before_exporting(
        self, tmp_path, paper_generator
    ):
        """Checkpoints that could never be restored must be refused upfront."""
        import numpy as np

        from repro.engine import HistogramReducer

        factories = {
            "hist": lambda: HistogramReducer(
                "disk_gb", [0.0, 10.0, 100.0, 1000.0], transform=np.log10
            )
        }
        with pytest.raises(ValueError, match="cannot be checkpointed"):
            export_fleet_blocks(
                paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
                shards=1, checkpoint_every=1, reducers=factories,
            )
        assert not (tmp_path / "block-000000.csv").exists()
        # without checkpoints the same set exports fine (nothing to restore)
        result = export_fleet_blocks(
            paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
            shards=1, checkpoint_every=0, reducers=factories,
        )
        assert verify_manifest(str(tmp_path / "manifest.json")).ok
        assert result.statistics.reducers["hist"].count == 5_000

    def test_resume_of_finished_export_is_noop(self, tmp_path, paper_generator):
        export_fleet_blocks(
            paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path),
            shards=1, checkpoint_every=1,
        )
        before = (tmp_path / "manifest.json").read_text()
        result = resume_export(paper_generator, str(tmp_path))
        assert result.statistics is None and result.resumed_blocks == 0
        assert (tmp_path / "manifest.json").read_text() == before


class TestCheckpointLog:
    def test_each_line_lists_only_the_blocks_since_the_previous_line(
        self, tmp_path, fault_plan, paper_generator
    ):
        """Appends, not rewrites: checkpoint cost is linear in block count."""
        with fault_plan(crash_after(5)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=1, checkpoint_every=1, quantiles=True,
            )
        lines = _log_lines(tmp_path / "checkpoint-0000.jsonl")
        assert [line["kind"] for line in lines] == ["FleetLeaseCheckpoint"] * 5
        for index, line in enumerate(lines):
            assert line["state_lo"] == 0
            assert (line["block_lo"], line["block_hi"]) == (index, index + 1)
            assert [entry["index"] for entry in line["blocks"]] == [index]

    @pytest.mark.parametrize("second", ["distributed", "blocks-2-shards"])
    def test_fresh_export_clears_every_earlier_resume_state(
        self, second, tmp_path, fault_plan, paper_generator
    ):
        """A stale plan or log must not survive a fresh export and later
        hijack --resume, whatever backend or shard count wrote it."""
        from repro.engine import export_fleet_distributed

        with fault_plan(crash_after(2)), pytest.raises(RuntimeError):
            export_fleet_blocks(
                paper_generator, SEPT_2010, 40_000, SEED, str(tmp_path),
                shards=4, checkpoint_every=1,
            )
        assert (tmp_path / "checkpoint-0003.jsonl").exists()
        if second == "distributed":
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), workers=1
            )
        else:
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                shards=2, checkpoint_every=1,
            )
        leftovers = sorted(
            name for name in os.listdir(tmp_path)
            if name.endswith(".jsonl") or "plan" in name or "partial" in name
        )
        assert leftovers == []
        before = (tmp_path / "manifest.json").read_bytes()
        result = resume_export(paper_generator, str(tmp_path))
        assert result.statistics is None and result.resumed_blocks == 0
        assert (tmp_path / "manifest.json").read_bytes() == before
        assert verify_manifest(str(tmp_path / "manifest.json")).ok


class TestCompaction:
    def test_compacted_layout_matches_direct_shard_export(
        self, tmp_path, paper_generator
    ):
        block_dir = tmp_path / "blocks"
        export_fleet_blocks(
            paper_generator, SEPT_2010, SIZE, SEED, str(block_dir),
            shards=2, checkpoint_every=2,
        )
        direct_dir = tmp_path / "direct"
        direct = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(direct_dir), shards=2
        )
        compact_dir = tmp_path / "compacted"
        compacted = compact_export(
            str(block_dir / "manifest.json"), str(compact_dir), shards=2
        )
        assert (compact_dir / "manifest.json").read_bytes() == (
            direct_dir / "manifest.json"
        ).read_bytes()
        for segment in direct.segments:
            assert (compact_dir / segment.path).read_bytes() == (
                direct_dir / segment.path
            ).read_bytes()
        assert verify_manifest(str(compact_dir / "manifest.json")).ok
        assert compacted.payload_sha256 == direct.payload_sha256

    def test_compaction_refuses_shard_layout(self, tmp_path, paper_generator):
        export_fleet(paper_generator, SEPT_2010, 5_000, SEED, str(tmp_path), shards=1)
        with pytest.raises(ValueError, match="block-layout"):
            compact_export(
                str(tmp_path / "manifest.json"), str(tmp_path / "out"), shards=1
            )

    def test_compaction_detects_corrupt_blocks(self, tmp_path, paper_generator):
        block_dir = tmp_path / "blocks"
        export_fleet_blocks(
            paper_generator, SEPT_2010, 9_000, SEED, str(block_dir),
            shards=1, checkpoint_every=1,
        )
        target = block_dir / "block-000001.csv"
        target.write_bytes(b"0" + target.read_bytes()[1:])
        with pytest.raises(ValueError, match="sha256 mismatch"):
            compact_export(
                str(block_dir / "manifest.json"), str(tmp_path / "out"), shards=1
            )


def _cli_env() -> dict:
    src = os.path.join(os.path.dirname(writer.__file__), "..", "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


class TestSigkillSubprocess:
    def test_torn_checkpoint_append_keeps_the_earlier_lines(
        self, tmp_path, paper_generator
    ):
        """A torn-write at the 2nd checkpoint tears only that line's tail."""
        out = tmp_path / "torn"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "fleet", "export",
                "--size", str(SIZE), "--seed", str(SEED),
                "--out-dir", str(out), "--checkpoint-every", "2",
                "--fault-spec", "writer.checkpoint.write:kind=torn-write,after=2",
            ],
            env=_cli_env(), capture_output=True, timeout=300,
        )
        assert completed.returncode == -signal.SIGKILL
        data = (out / "checkpoint-0000.jsonl").read_bytes()
        first, torn = data.split(b"\n", 1)
        assert json.loads(first)["block_hi"] == 2
        assert torn and b"\n" not in torn
        resumed = resume_export(paper_generator, str(out))
        assert resumed.resumed_blocks == 2
        assert verify_manifest(str(out / "manifest.json")).ok
        assert sorted(os.listdir(out)) == sorted(
            ["manifest.json"] + [s.path for s in resumed.manifest.segments]
        )

    def test_sigkill_mid_export_then_cli_resume(self, tmp_path, paper_generator):
        """A real SIGKILL: no atexit handlers, no cleanup, torn files allowed."""
        out = tmp_path / "killed"
        size = 163_840  # 40 blocks — enough runway to land the kill mid-run
        env = _cli_env()
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet", "export",
                "--size", str(size), "--seed", str(SEED),
                "--out-dir", str(out), "--checkpoint-every", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        log_path = out / "checkpoint-0000.jsonl"
        deadline = time.monotonic() + 120
        while (
            time.monotonic() < deadline
            and process.poll() is None
            and not (log_path.exists() and b"\n" in log_path.read_bytes())
        ):
            time.sleep(0.005)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=120)

        when = year_fraction(parse_date("2010-09-01"))
        golden_dir = tmp_path / "golden"
        golden = export_fleet_blocks(
            paper_generator, when, size, SEED, str(golden_dir),
            shards=1, checkpoint_every=1,
        )
        resumed = resume_export(paper_generator, str(out))
        assert verify_manifest(str(out / "manifest.json")).ok
        assert resumed.manifest.to_json() == golden.manifest.to_json()
        assert _payload_bytes(out, resumed.manifest) == _payload_bytes(
            golden_dir, golden.manifest
        )
        if resumed.statistics is not None:  # killed mid-run (the usual case)
            assert (
                resumed.statistics.moments.means()
                == golden.statistics.moments.means()
            )
