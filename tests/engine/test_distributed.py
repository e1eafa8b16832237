"""Tests for the distributed coordinator/worker export backend.

Three layers, mirroring the discipline of ``test_resume.py``:

* protocol-level unit tests of the length-prefixed JSON framing (torn
  frame, oversized frame, empty frame, non-JSON body);
* fake-worker tests that speak the wire protocol by hand to exercise the
  coordinator's failure handling (version-mismatched reducer state,
  garbage frames, death mid-block);
* end-to-end byte-identity: the distributed export must equal the
  single-process export exactly — including after a worker SIGKILLs
  itself mid-run and its leases are reassigned, through a real
  ``serve-worker`` TCP attachment, under token auth, after a graceful
  drain, and across a coordinator SIGKILL + resume.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    AuthenticationError,
    ProtocolError,
    RNG_BLOCK_SIZE,
    StateError,
    export_fleet,
    export_fleet_blocks,
    export_fleet_distributed,
    fleet_digest,
    parse_endpoint,
    resolve_fleet_token,
    resume_export,
    resume_fleet_distributed,
    serve_worker,
    verify_manifest,
)
from repro.engine.distributed import (
    DISTRIBUTED_LEASE_LOG,
    DISTRIBUTED_PLAN_NAME,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)

SEPT_2010 = 2010.667
SEED = 20110611
SIZE = 20_000  # five RNG blocks
#: One worker (whichever first finishes a block) SIGKILLs itself.
WORKER_SIGKILL = "distributed.worker.block:kind=sigkill,after=1,once=true"


@pytest.fixture(scope="module")
def golden(tmp_path_factory, paper_generator):
    """The single-process block-layout export every distributed run must equal."""
    out = tmp_path_factory.mktemp("golden-dist")
    result = export_fleet_blocks(
        paper_generator, SEPT_2010, SIZE, SEED, str(out),
        shards=1, checkpoint_every=0, quantiles=True,
    )
    return out, result


def _payload_bytes(out_dir, manifest) -> bytes:
    payload = b""
    for segment in manifest.segments:
        with open(os.path.join(str(out_dir), segment.path), "rb") as handle:
            payload += handle.read()
    return payload


class TestFraming:
    def test_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"type": "hello", "n": 7})
            assert recv_frame(b) == {"type": "hello", "n": 7}

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_torn_header_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(ProtocolError, match="torn frame"):
                recv_frame(b)

    def test_torn_body_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 100) + b'{"type":')
            a.close()
            with pytest.raises(ProtocolError, match="torn frame"):
                recv_frame(b)

    def test_oversized_frame_rejected_without_reading_it(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="oversized"):
                recv_frame(b)

    def test_zero_length_frame_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(ProtocolError, match="empty frame"):
                recv_frame(b)

    def test_non_json_body_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 4) + b"port")
            with pytest.raises(ProtocolError, match="not valid JSON"):
                recv_frame(b)

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 2) + b"[]")
            with pytest.raises(ProtocolError, match="JSON object"):
                recv_frame(b)

    def test_send_refuses_oversized_payload(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(ProtocolError, match="oversized"):
                send_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestParseEndpoint:
    def test_valid(self):
        assert parse_endpoint("worker-3.example:7070") == ("worker-3.example", 7070)

    @pytest.mark.parametrize(
        "spec", ["nohost", ":9", "host:", "host:zero", "host:0", "host:70000"]
    )
    def test_invalid(self, spec):
        with pytest.raises(ValueError, match="endpoint"):
            parse_endpoint(spec)


class TestDistributedByteIdentity:
    def test_matches_single_process_exports(self, tmp_path, paper_generator, golden):
        golden_dir, golden_result = golden
        out = tmp_path / "dist"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=2, quantiles=True,
        )
        # manifest byte-identical to the single-process block layout
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok
        # payload/fleet digests equal the classic per-shard export too
        shard_dir = tmp_path / "shard"
        shard_manifest = export_fleet(
            paper_generator, SEPT_2010, SIZE, SEED, str(shard_dir), shards=1
        )
        assert result.manifest.payload_sha256 == shard_manifest.payload_sha256
        assert result.manifest.fleet_sha256 == shard_manifest.fleet_sha256
        assert result.manifest.fleet_sha256 == fleet_digest(
            paper_generator, SEPT_2010, SIZE, SEED
        )
        assert result.workers == 2

    def test_statistics_bit_identical_across_worker_counts(
        self, tmp_path, paper_generator
    ):
        """Lease partitioning, not worker placement, fixes the merge order."""
        runs = []
        for workers in (1, 3):
            out = tmp_path / f"w{workers}"
            runs.append(
                export_fleet_distributed(
                    paper_generator, SEPT_2010, SIZE, SEED, str(out),
                    workers=workers, lease_blocks=2, quantiles=True,
                )
            )
        first, second = (run.statistics for run in runs)
        assert first.moments.means() == second.moments.means()
        assert first.moments.stds() == second.moments.stds()
        np.testing.assert_array_equal(
            first.correlation.matrix().values, second.correlation.matrix().values
        )
        assert first.quantiles.to_state() == second.quantiles.to_state()

    def test_statistics_agree_with_sharded_reduction(self, tmp_path, paper_generator):
        from repro.engine import generate_sharded

        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path / "d"), workers=2
        )
        sharded = generate_sharded(paper_generator, SEPT_2010, SIZE, SEED, shards=1)
        for label, mean in result.statistics.moments.means().items():
            assert mean == pytest.approx(sharded.moments.means()[label], rel=1e-9)
        delta = result.statistics.correlation.matrix().max_abs_difference(
            sharded.correlation.matrix()
        )
        assert delta < 1e-9

    def test_empty_fleet(self, tmp_path, paper_generator):
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, 0, SEED, str(tmp_path), workers=2
        )
        assert result.manifest.segments == ()
        assert verify_manifest(str(tmp_path / "manifest.json")).ok


class TestWorkerFailure:
    def test_sigkilled_worker_blocks_are_reassigned(
        self, tmp_path, fault_plan, paper_generator, golden
    ):
        """One worker SIGKILLs itself mid-run; the export must not change."""
        golden_dir, golden_result = golden
        out = tmp_path / "killed"
        with fault_plan(WORKER_SIGKILL):
            result = export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                workers=2, lease_blocks=1, quantiles=True,
            )
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok

    def test_lone_worker_death_fails_loudly(
        self, tmp_path, fault_plan, paper_generator
    ):
        with (
            fault_plan(WORKER_SIGKILL),
            pytest.raises(RuntimeError, match="workers died"),
        ):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                workers=1, lease_blocks=1,
            )
        assert not (tmp_path / "manifest.json").exists()


def _fake_worker(listener, behaviour):
    """Accept one coordinator connection and run ``behaviour(sock, job)``."""
    conn, _ = listener.accept()
    try:
        send_frame(conn, {"type": "hello", "protocol": PROTOCOL_VERSION})
        job = recv_frame(conn)
        behaviour(conn, job)
    finally:
        conn.close()


def _serving(behaviour):
    """A listening fake worker; returns ``(port, thread)``."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        try:
            _fake_worker(listener, behaviour)
        finally:
            listener.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, thread


class TestProtocolFailureHandling:
    def _export(self, paper_generator, tmp_path, port):
        return export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
            workers=0, connect=[("127.0.0.1", port)],
            lease_blocks=2, worker_timeout=30.0,
        )

    def test_version_mismatched_reducer_state_retires_the_worker(
        self, tmp_path, paper_generator
    ):
        """A result whose ReducerSet payload has the wrong state_version is
        rejected through from_state and the worker is dropped."""

        def behaviour(conn, job):
            import hashlib

            send_frame(conn, {"type": "ready"})
            assign = recv_frame(conn)
            lo, hi = assign["block_lo"], assign["block_hi"]
            # Self-consistent (empty) block entries, so validation gets all
            # the way to ReducerSet.from_state before anything is rejected.
            empty_sha = hashlib.sha256(b"").hexdigest()
            send_frame(
                conn,
                {
                    "type": "result",
                    "block_lo": lo,
                    "block_hi": hi,
                    "blocks": [
                        {"index": i, "sha256": empty_sha, "bytes": 0,
                         "digest": "00" * 32, "data": ""}
                        for i in range(lo, hi)
                    ],
                    "reducers": {
                        "kind": "ReducerSet",
                        "state_version": 999,
                        "reducers": {},
                    },
                },
            )
            recv_frame(conn)  # wait for the coordinator to act

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="state version|workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=10)

    def test_rejected_result_requeues_lease_to_healthy_workers(
        self, tmp_path, paper_generator, golden
    ):
        """A bad result must give its lease back: with a healthy worker
        still alive, the export completes (regression: clearing the lease
        before validation leaked it and hung the coordinator forever)."""
        golden_dir, golden_result = golden

        def behaviour(conn, job):
            import hashlib

            send_frame(conn, {"type": "ready"})
            assign = recv_frame(conn)
            lo, hi = assign["block_lo"], assign["block_hi"]
            empty_sha = hashlib.sha256(b"").hexdigest()
            send_frame(
                conn,
                {
                    "type": "result",
                    "block_lo": lo,
                    "block_hi": hi,
                    "blocks": [
                        {"index": i, "sha256": empty_sha, "bytes": 0,
                         "digest": "00" * 32, "data": ""}
                        for i in range(lo, hi)
                    ],
                    "reducers": {"kind": "ReducerSet", "state_version": 999,
                                 "reducers": {}},
                },
            )
            recv_frame(conn)

        port, thread = _serving(behaviour)
        out = tmp_path / "healed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True,
        )
        thread.join(timeout=10)
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_worker_dying_mid_block_requeues(self, tmp_path, paper_generator):
        """Connection loss right after an assign must not hang the export."""

        def behaviour(conn, job):
            send_frame(conn, {"type": "ready"})
            recv_frame(conn)  # take the assign, then die without a result

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=10)

    def test_garbage_frame_retires_the_worker(self, tmp_path, paper_generator):
        def behaviour(conn, job):
            conn.sendall(struct.pack(">I", 3) + b"zzz")  # not JSON

        port, thread = _serving(behaviour)
        with pytest.raises(RuntimeError, match="workers died"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=10)

    def test_wrong_protocol_version_hello_is_refused(
        self, tmp_path, paper_generator
    ):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            try:
                send_frame(conn, {"type": "hello", "protocol": 999})
                recv_frame(conn)
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="protocol"):
            self._export(paper_generator, tmp_path, port)
        thread.join(timeout=10)


class TestServeWorker:
    def test_tcp_attached_worker_produces_identical_export(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        ports: "queue.Queue[int]" = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "on_bound": ports.put, "max_jobs": 1},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "attached"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=0, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True,
        )
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok

    def test_mixed_local_and_attached_workers(self, tmp_path, paper_generator, golden):
        _, golden_result = golden
        ports: "queue.Queue[int]" = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "on_bound": ports.put, "max_jobs": 1},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert result.workers == 2


def _make_coordinator(leases, size=16_384, lease_depth=1):
    from repro.engine.distributed import _Coordinator

    return _Coordinator(
        job={"type": "job"}, leases=leases, out_dir=".",
        factories={}, size=size, worker_timeout=60.0, lease_depth=lease_depth,
    )


class TestWorkStealing:
    def test_idle_worker_steals_the_oldest_straggler_lease(self):
        """Scheduler unit: queue empty + aged straggler → speculative assign."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        straggler_sock, _straggler_peer = socket.socketpair()
        idle_sock, idle_peer = socket.socketpair()
        with straggler_sock, _straggler_peer, idle_sock, idle_peer:
            straggler = _Remote(straggler_sock, "slow", local=True)
            straggler.state = "active"
            straggler.leases = {(0, 2): 0.0}  # ancient — well past STEAL_AFTER
            idle = _Remote(idle_sock, "fast", local=True)
            idle.state = "active"
            idle.credits = 1
            coordinator.remotes.extend([straggler, idle])
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            assert (0, 2) in idle.leases
            assert coordinator.stolen == 1
            assert coordinator.worker_metrics["fast"]["stolen_leases"] == 1
            assert recv_frame(idle_peer) == {
                "type": "assign", "block_lo": 0, "block_hi": 2,
            }

    def test_steal_spreads_idle_workers_across_distinct_stragglers(self):
        """One pass must not pile every idle worker onto the oldest lease."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        socks = [socket.socketpair() for _ in range(4)]
        try:
            stragglers = []
            for i, lease in enumerate([(0, 2), (2, 4)]):
                remote = _Remote(socks[i][0], f"slow-{i}", local=True)
                remote.state = "active"
                remote.leases = {lease: float(i)}  # (0,2) is the oldest
                stragglers.append(remote)
            idlers = []
            for i in range(2, 4):
                remote = _Remote(socks[i][0], f"fast-{i}", local=True)
                remote.state = "active"
                remote.credits = 1
                idlers.append(remote)
            coordinator.remotes.extend(stragglers + idlers)
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            stolen = set()
            for idler in idlers:
                stolen.update(idler.leases)
            assert stolen == {(0, 2), (2, 4)}
            assert coordinator.stolen == 2
        finally:
            for a, b in socks:
                a.close()
                b.close()

    def test_worker_holding_a_lease_does_not_steal(self):
        """Speculation must never compete with a worker's own real work."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 2), (2, 4)])
        socks = [socket.socketpair() for _ in range(2)]
        try:
            straggler = _Remote(socks[0][0], "slow", local=True)
            straggler.state = "active"
            straggler.leases = {(0, 2): 0.0}
            busy = _Remote(socks[1][0], "busy", local=True)
            busy.state = "active"
            busy.credits = 1
            busy.leases = {(2, 4): time.monotonic()}  # pipelining, not idle
            coordinator.remotes.extend([straggler, busy])
            coordinator.pending.clear()

            coordinator._steal(time.monotonic())
            assert (0, 2) not in busy.leases
            assert coordinator.stolen == 0
        finally:
            for a, b in socks:
                a.close()
                b.close()

    def test_duplicate_result_is_discarded(self):
        """First result for a lease wins; a speculative duplicate is dropped."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 1)], size=4_096)
        sock, peer = socket.socketpair()
        with sock, peer:
            remote = _Remote(sock, "dup", local=True)
            remote.state = "active"
            remote.leases = {(0, 1): 0.0}
            coordinator.remotes.append(remote)
            coordinator.completed[(0, 1)] = {"records": [], "digests": [],
                                             "reducers": None}
            coordinator._handle_result(
                remote, {"type": "result", "block_lo": 0, "block_hi": 1,
                         "blocks": [], "reducers": {}},
            )
            # discarded without touching the stored result, worker kept alive
            assert coordinator.completed[(0, 1)]["reducers"] is None
            assert remote.alive and not remote.leases


class TestLeaseDepth:
    def test_ready_beyond_the_cap_retires_the_worker(self):
        """Backpressure unit: credits past lease_depth are a protocol error."""
        from repro.engine.distributed import _Remote

        coordinator = _make_coordinator([(0, 1)], lease_depth=1)
        coordinator.pending.clear()  # nothing assignable: credits accumulate
        sock, _peer = socket.socketpair()
        with sock, _peer:
            remote = _Remote(sock, "greedy", local=True)
            remote.state = "active"
            coordinator.remotes.append(remote)
            coordinator._handle_frame(remote, {"type": "ready"})
            assert remote.alive and remote.credits == 1
            coordinator._handle_frame(remote, {"type": "ready"})
            assert not remote.alive
            assert "in-flight lease cap" in str(coordinator.last_error)

    def test_pipelined_export_is_byte_identical(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        out = tmp_path / "deep"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, lease_depth=2, quantiles=True,
        )
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )


class TestArgumentValidation:
    def test_rejects_zero_workers_without_connect(self, tmp_path, paper_generator):
        with pytest.raises(ValueError, match="at least one worker"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path), workers=0
            )

    def test_rejects_unserialisable_generator(self, tmp_path):
        class Opaque:
            pass

        with pytest.raises(ValueError, match="parameters"):
            export_fleet_distributed(
                Opaque(), SEPT_2010, SIZE, SEED, str(tmp_path), workers=1
            )

    def test_rejects_unregistered_wire_reducer(self, tmp_path, paper_generator):
        from repro.engine import HistogramReducer

        factories = {"hist": lambda: HistogramReducer("disk_gb", [0.0, 1.0])}
        with pytest.raises(ValueError, match="cannot travel the wire"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                workers=1, reducers=factories,
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_blocks": 0},
            {"lease_depth": 0},
            {"chunk_size": 0},
            {"workers": -1},
            {"worker_timeout": 0.0},
        ],
    )
    def test_rejects_bad_numbers(self, tmp_path, paper_generator, kwargs):
        with pytest.raises(ValueError):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                **{"workers": 1, **kwargs},
            )


class TestCliSubprocessCrashInjection:
    def test_cli_distributed_export_survives_worker_sigkill(self, tmp_path):
        """Mirror of test_resume's SIGKILL test: run the real CLI, have one
        worker process die by SIGKILL mid-run, and demand a verified export
        whose digests equal the single-process CLI export."""
        import subprocess
        import sys

        import repro.engine.writer as writer

        src = os.path.abspath(
            os.path.join(os.path.dirname(writer.__file__), "..", "..")
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        single = tmp_path / "single"
        dist = tmp_path / "dist"
        subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(single)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--lease-blocks", "1", "--fault-after", "1"],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        assert "reassigned" in completed.stdout
        verify = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "verify",
             str(dist / "manifest.json")],
            env=env, check=True, capture_output=True, timeout=300,
        )
        assert b"OK" in verify.stdout
        single_manifest = json.loads((single / "manifest.json").read_text())
        dist_manifest = json.loads((dist / "manifest.json").read_text())
        assert dist_manifest["payload_sha256"] == single_manifest["payload_sha256"]
        assert dist_manifest["fleet_sha256"] == single_manifest["fleet_sha256"]

    def test_cli_coordinator_sigkill_then_resume(self, tmp_path):
        """The CI smoke sequence in miniature: a token-authed run whose
        coordinator is SIGKILLed after two lease checkpoints, then
        ``--resume`` with ``--metrics``, ending byte-identical to the
        single-process CLI export."""
        env = _cli_env()
        token_file = tmp_path / "fleet.token"
        token_file.write_text("cli-resume-secret\n")
        single = tmp_path / "single"
        dist = tmp_path / "dist"
        metrics = tmp_path / "metrics.json"
        subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(single)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        crashed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--lease-blocks", "1",
             "--token-file", str(token_file),
             "--coordinator-fault-after", "2"],
            env=env, capture_output=True, timeout=300,
        )
        assert crashed.returncode == -signal.SIGKILL
        assert (dist / DISTRIBUTED_PLAN_NAME).exists()
        # The alias kills the coordinator with exactly N lease lines logged.
        assert len((dist / DISTRIBUTED_LEASE_LOG).read_text().splitlines()) == 2
        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "fleet", "export",
             "--size", str(SIZE), "--seed", str(SEED),
             "--out-dir", str(dist), "--backend", "distributed",
             "--workers", "2", "--resume",
             "--token-file", str(token_file),
             "--metrics", str(metrics)],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        assert "restored from checkpoints" in resumed.stdout
        single_manifest = json.loads((single / "manifest.json").read_text())
        dist_manifest = json.loads((dist / "manifest.json").read_text())
        assert dist_manifest["payload_sha256"] == single_manifest["payload_sha256"]
        assert dist_manifest["fleet_sha256"] == single_manifest["fleet_sha256"]
        doc = json.loads(metrics.read_text())
        assert doc["kind"] == "FleetDistributedMetrics"
        assert doc["resumed_leases"] >= 1
        assert not (dist / DISTRIBUTED_PLAN_NAME).exists()


def _cli_env():
    """Subprocess environment with ``src`` importable and no ambient token."""
    import repro.engine.writer as writer

    src = os.path.abspath(
        os.path.join(os.path.dirname(writer.__file__), "..", "..")
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FLEET_TOKEN", None)
    return env


class TestServeWorkerCliSignals:
    """S3 regression: signals must stop ``--forever`` cleanly, not traceback."""

    def _spawn(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "serve-worker",
             "--port", "0", "--forever"],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        line = proc.stdout.readline()
        assert "serving fleet worker on" in line
        return proc

    def test_ctrl_c_exits_cleanly_with_a_summary(self):
        proc = self._spawn()
        time.sleep(0.2)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in out
        assert "served 0 job(s)" in out

    def test_sigterm_drains_and_exits_zero(self):
        proc = self._spawn()
        time.sleep(0.2)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "served 0 job(s)" in out


class TestResolveFleetToken:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLEET_TOKEN", raising=False)
        assert resolve_fleet_token() is None

    def test_env_token_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "  secret\n")
        assert resolve_fleet_token() == "secret"

    def test_blank_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "   ")
        with pytest.raises(ValueError, match="blank"):
            resolve_fleet_token()

    def test_token_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_TOKEN", "env-secret")
        path = tmp_path / "token"
        path.write_text("file-secret\n")
        assert resolve_fleet_token(str(path)) == "file-secret"

    def test_empty_token_file_raises(self, tmp_path):
        path = tmp_path / "token"
        path.write_text(" \n")
        with pytest.raises(ValueError, match="empty"):
            resolve_fleet_token(str(path))

    def test_missing_token_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            resolve_fleet_token(str(tmp_path / "absent"))


class TestAuthentication:
    def test_token_round_trip_is_byte_identical(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        ports = queue.Queue()
        thread = threading.Thread(
            target=serve_worker,
            kwargs={"port": 0, "max_jobs": 1, "on_bound": ports.put,
                    "token": "fleet-secret"},
            daemon=True,
        )
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "authed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=2, quantiles=True, token="fleet-secret",
        )
        thread.join(timeout=30)
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )

    def test_wrong_worker_token_fails_authentication(
        self, tmp_path, paper_generator
    ):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def run():
            conn, _ = listener.accept()
            try:
                send_frame(conn, {
                    "type": "hello", "protocol": PROTOCOL_VERSION,
                    "token": "not-the-secret",
                })
                recv_frame(conn)
            except (ProtocolError, OSError):
                pass
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(RuntimeError, match="failed authentication"):
            export_fleet_distributed(
                paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                workers=0, connect=[("127.0.0.1", port)],
                worker_timeout=5.0, token="the-secret",
            )
        thread.join(timeout=10)

    def test_token_holding_worker_refuses_a_tokenless_coordinator(
        self, tmp_path, paper_generator
    ):
        ports = queue.Queue()
        served = {}
        drain = threading.Event()

        def run():
            served["jobs"] = serve_worker(
                port=0, max_jobs=1, on_bound=ports.put,
                token="fleet-secret", drain_event=drain,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = ports.get(timeout=30)
        try:
            with pytest.raises(RuntimeError, match="workers died"):
                export_fleet_distributed(
                    paper_generator, SEPT_2010, SIZE, SEED, str(tmp_path),
                    workers=0, connect=[("127.0.0.1", port)],
                    worker_timeout=5.0,
                )
        finally:
            drain.set()
            thread.join(timeout=30)
        # an unauthenticated coordinator must not consume the job slot
        assert served["jobs"] == 0


class TestWorkerReadDeadline:
    def test_worker_abandons_a_coordinator_that_goes_silent(self, paper_params):
        """S1 regression: after accepting a job the worker must enforce a
        read deadline instead of trusting a silent coordinator forever."""
        from repro.engine.distributed import _worker_loop

        # A real TCP pair: the worker loop sets TCP_NODELAY, which AF_UNIX
        # socketpairs reject.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        ours = socket.create_connection(listener.getsockname())
        theirs, _ = listener.accept()
        listener.close()
        failures = []

        def run():
            try:
                _worker_loop(theirs)
            except ProtocolError as error:
                failures.append(error)
            finally:
                theirs.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        hello = recv_frame(ours)
        assert hello["type"] == "hello"
        root = np.random.SeedSequence(SEED)
        send_frame(ours, {
            "type": "job", "protocol": PROTOCOL_VERSION,
            "params": paper_params.to_json(), "when": SEPT_2010,
            "size": RNG_BLOCK_SIZE, "chunk_size": RNG_BLOCK_SIZE,
            "entropy": str(root.entropy), "spawn_key": [],
            "block_size": RNG_BLOCK_SIZE, "format": "csv", "reducers": [],
            "worker_timeout": 1.0, "lease_depth": 1,
        })
        frame = recv_frame(ours)
        while frame is not None and frame["type"] == "heartbeat":
            frame = recv_frame(ours)
        assert frame is not None and frame["type"] == "ready"
        # ...then say nothing: the worker must give up after ~1 s
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert failures
        assert "presuming it dead" in str(failures[0])
        ours.close()


class TestStallDiagnostics:
    """S2 regression: the stall error must say whether any work happened."""

    class _Alive:
        def is_alive(self):
            return True

    def test_reports_when_no_worker_ever_connected(self):
        coordinator = _make_coordinator([(0, 1)])
        coordinator.worker_timeout = 0.2
        coordinator.processes.append(self._Alive())
        with pytest.raises(RuntimeError, match="no worker connected within"):
            coordinator.run()

    def test_reports_progress_made_before_the_fleet_went_silent(self):
        coordinator = _make_coordinator([(0, 1), (1, 2)])
        coordinator.worker_timeout = 0.2
        coordinator.processes.append(self._Alive())
        coordinator.workers_seen = 1
        coordinator.completed[(0, 1)] = {}
        with pytest.raises(
            RuntimeError, match=r"went silent after completing 1/2 leases"
        ):
            coordinator.run()


class TestGracefulDrain:
    def test_drained_worker_deregisters_cleanly(
        self, tmp_path, paper_generator, golden
    ):
        golden_dir, golden_result = golden
        ports = queue.Queue()
        served = {}

        def run():
            served["jobs"] = serve_worker(
                port=0, max_jobs=1, on_bound=ports.put, drain_after=1,
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        port = ports.get(timeout=30)
        out = tmp_path / "drained"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert served["jobs"] == 1
        assert result.metrics["drained_workers"] == 1
        # drain is a completion, not a death: nothing gets requeued
        assert result.metrics["requeued_leases"] == 0
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )


class TestMetricsDocument:
    def test_embedded_and_written_metrics_agree(self, tmp_path, paper_generator):
        out = tmp_path / "out"
        metrics_path = tmp_path / "metrics.json"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, metrics_path=str(metrics_path),
        )
        doc = json.loads(metrics_path.read_text())
        assert doc == json.loads(json.dumps(result.metrics))
        assert doc["kind"] == "FleetDistributedMetrics"
        assert doc["state_version"] == 1
        assert doc["leases_total"] == 5
        assert doc["leases_run"] == 5
        assert doc["resumed_leases"] == 0
        events = doc["leases"]
        assert sorted((e["block_lo"], e["block_hi"]) for e in events) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)
        ]
        assert all(e["seconds"] >= 0.0 for e in events)
        assert all(e["worker"] in doc["workers"] for e in events)
        assert doc["workers_seen"] == result.workers
        assert doc["requeued_leases"] == 0
        assert doc["stolen_leases"] == 0
        assert doc["drained_workers"] == 0
        assert len(doc["heartbeat_gap_bucket_seconds"]) == 7
        for entry in doc["workers"].values():
            # every observed inter-frame gap lands in exactly one bucket
            assert len(entry["heartbeat_gap_histogram"]) == 8
            assert sum(entry["heartbeat_gap_histogram"]) == entry["frames"]
        assert sum(
            e["leases_completed"] for e in doc["workers"].values()
        ) == 5


class TestPooledWorkerHandle:
    """S4: the process-shaped adapter over pool AsyncResults."""

    def test_join_swallows_timeouts_and_worker_errors(self):
        from repro.engine.distributed import _PooledWorkerHandle

        class Timeouting:
            def ready(self):
                return False

            def get(self, timeout=None):
                raise multiprocessing.TimeoutError()

        handle = _PooledWorkerHandle(pool=None, result=Timeouting())
        assert handle.is_alive()
        handle.join(timeout=0.01)  # must not raise

        class Raising:
            def ready(self):
                return True

            def get(self, timeout=None):
                raise RuntimeError("worker blew up")

        handle = _PooledWorkerHandle(pool=None, result=Raising())
        assert not handle.is_alive()
        handle.join()  # errors surface through lease reassignment, not join

    def test_terminate_discards_the_pool(self):
        from repro.engine.distributed import _PooledWorkerHandle
        from repro.engine.pool import get_pool, persistence_enabled, pools_spawned

        if not persistence_enabled():
            pytest.skip("persistent pools disabled in this environment")
        pool = get_pool(1)
        before = pools_spawned()
        _PooledWorkerHandle(pool, result=None).terminate()
        rebuilt = get_pool(1)
        assert rebuilt is not pool
        assert pools_spawned() == before + 1

    def test_pooled_worker_completes_a_reassigned_lease(
        self, tmp_path, paper_generator, golden
    ):
        """A remote worker takes a lease and dies; the pooled local worker
        must absorb the requeue and the export must stay byte-identical."""
        from repro.engine.pool import persistence_enabled

        if not persistence_enabled():
            pytest.skip("persistent pools disabled in this environment")
        golden_dir, golden_result = golden

        def take_and_die(conn, job):
            send_frame(conn, {"type": "ready"})
            frame = recv_frame(conn)
            while frame is not None and frame["type"] == "heartbeat":
                frame = recv_frame(conn)
            assert frame is not None and frame["type"] == "assign"

        port, thread = _serving(take_and_die)
        out = tmp_path / "healed"
        result = export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=1, connect=[("127.0.0.1", port)],
            lease_blocks=1, quantiles=True,
        )
        thread.join(timeout=30)
        assert result.reassigned_leases >= 1
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )


def _coordinator_crash_main(out_dir):
    """Child body for the fork-based coordinator SIGKILL tests: the export
    SIGKILLs its own process after the second lease checkpoint."""
    from repro.core.generator import CorrelatedHostGenerator
    from repro.core.parameters import ModelParameters
    from repro.faults import arm_process, plan_from_cli_arg

    arm_process(
        plan_from_cli_arg("distributed.coordinator.checkpoint:kind=sigkill,after=3"),
        state_dir=out_dir + ".faults",
    )
    export_fleet_distributed(
        CorrelatedHostGenerator(ModelParameters.paper_reference()),
        SEPT_2010, SIZE, SEED, out_dir,
        workers=2, lease_blocks=1, quantiles=True,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/proc/self/fd"),
    reason="needs the fork start method and /proc/<pid>/fd",
)
def test_forked_workers_do_not_inherit_the_lease_log(
    tmp_path, fault_plan, paper_generator, monkeypatch
):
    """An armed plan keeps raw forked workers; none may hold the log open."""
    import repro.engine.distributed as distributed

    out = tmp_path / "out"
    log = str(out / DISTRIBUTED_LEASE_LOG)
    inspected, leaks = set(), set()
    real = distributed._append_checkpoint

    def inspecting(*args):
        for child in multiprocessing.active_children():
            fd_dir = f"/proc/{child.pid}/fd"
            for fd in os.listdir(fd_dir):
                try:
                    if os.readlink(os.path.join(fd_dir, fd)) == log:
                        leaks.add(child.pid)
                except OSError:
                    pass
            inspected.add(child.pid)
        return real(*args)

    monkeypatch.setattr(distributed, "_append_checkpoint", inspecting)
    with fault_plan("distributed.heartbeat:kind=delay,after=999999"):
        export_fleet_distributed(
            paper_generator, SEPT_2010, SIZE, SEED, str(out),
            workers=2, lease_blocks=1, start_method="fork",
        )
    assert len(inspected) >= 2
    assert not leaks


def _resumed_coordinator_crash_main(out_dir):
    """Child body: resume a crashed export and SIGKILL after one new lease."""
    from repro.core.generator import CorrelatedHostGenerator
    from repro.core.parameters import ModelParameters
    from repro.faults import arm_process, plan_from_cli_arg

    arm_process(
        plan_from_cli_arg("distributed.coordinator.checkpoint:kind=sigkill,after=2"),
        state_dir=out_dir + ".faults",
    )
    resume_fleet_distributed(
        CorrelatedHostGenerator(ModelParameters.paper_reference()),
        out_dir, workers=2,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="coordinator SIGKILL injection needs the fork start method",
)
class TestCoordinatorCrashResume:
    @pytest.fixture(scope="class")
    def crashed_template(self, tmp_path_factory):
        """One real coordinator crash, copied per test so each can tamper."""
        out = tmp_path_factory.mktemp("crash-template") / "run"
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_coordinator_crash_main, args=(str(out),))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL
        assert (out / DISTRIBUTED_PLAN_NAME).exists()
        assert (out / DISTRIBUTED_LEASE_LOG).exists()
        return out

    @pytest.fixture
    def crashed(self, crashed_template, tmp_path):
        out = tmp_path / "crashed"
        shutil.copytree(crashed_template, out)
        return out

    @pytest.fixture(params=["distributed", "block"])
    def interrupted(self, request, tmp_path, fault_plan, paper_generator):
        """Two checkpointed lines of either layout's log: ``(layout, dir,
        log path, resume() -> (result, restored count))``."""
        if request.param == "distributed":
            out = request.getfixturevalue("crashed")

            def resume():
                result = resume_fleet_distributed(
                    paper_generator, str(out), workers=2
                )
                return result, result.resumed_leases

            return request.param, out, out / DISTRIBUTED_LEASE_LOG, resume
        out = tmp_path / "blocks"
        with (
            fault_plan("writer.block.done:kind=raise,after=2"),
            pytest.raises(RuntimeError),
        ):
            export_fleet_blocks(
                paper_generator, SEPT_2010, SIZE, SEED, str(out),
                shards=1, checkpoint_every=1, quantiles=True,
            )

        def resume():
            result = resume_export(paper_generator, str(out), quantiles=True)
            return result, result.resumed_blocks

        return request.param, out, out / "checkpoint-0000.jsonl", resume

    def _assert_byte_identical(self, out, result, golden):
        golden_dir, golden_result = golden
        assert result.manifest.to_json() == golden_result.manifest.to_json()
        assert _payload_bytes(out, result.manifest) == _payload_bytes(
            golden_dir, golden_result.manifest
        )
        assert verify_manifest(str(out / "manifest.json")).ok
        assert not (out / DISTRIBUTED_PLAN_NAME).exists()
        assert not (out / DISTRIBUTED_LEASE_LOG).exists()

    def test_resume_is_byte_identical(self, crashed, paper_generator, golden):
        result = resume_fleet_distributed(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 2
        self._assert_byte_identical(crashed, result, golden)

    def test_resume_tolerates_a_torn_final_checkpoint_line(
        self, interrupted, golden
    ):
        layout, out, log, resume = interrupted
        with open(log, "a") as handle:
            handle.write('{"kind": "FleetLeaseChec')  # torn mid-write tail
        result, restored = resume()
        assert restored == 2
        if layout == "distributed":
            self._assert_byte_identical(out, result, golden)
        else:
            assert result.manifest.payload_sha256 == golden[1].manifest.payload_sha256
            assert verify_manifest(str(out / "manifest.json")).ok
        assert sorted(os.listdir(out)) == sorted(
            ["manifest.json"] + [s.path for s in result.manifest.segments]
        )

    def test_corrupt_interior_checkpoint_line_raises(self, interrupted):
        _, _, log, resume = interrupted
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == 2
        log.write_text('{"broken\n' + lines[1])
        with pytest.raises(StateError, match="not valid JSON"):
            resume()

    def test_missing_checkpointed_block_regenerates_the_lease(
        self, crashed, paper_generator, golden
    ):
        first = json.loads(
            (crashed / DISTRIBUTED_LEASE_LOG).read_text().splitlines()[0]
        )
        (crashed / f"block-{first['block_lo']:06d}.csv").unlink()
        result = resume_fleet_distributed(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 1  # the gutted lease re-ran
        self._assert_byte_identical(crashed, result, golden)

    def test_torn_tail_is_trimmed_so_a_second_resume_still_reads_the_log(
        self, crashed, paper_generator, golden
    ):
        """Lines appended after a dropped torn tail must not make it an
        interior corruption: kill the resumed coordinator too, resume again."""
        log = crashed / DISTRIBUTED_LEASE_LOG
        with open(log, "a") as handle:
            handle.write('{"kind": "FleetLeaseChec')
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_resumed_coordinator_crash_main, args=(str(crashed),))
        proc.start()
        proc.join(180)
        assert proc.exitcode == -signal.SIGKILL
        assert len(log.read_bytes().splitlines()) == 3
        result = resume_fleet_distributed(paper_generator, str(crashed), workers=2)
        assert result.resumed_leases == 3
        self._assert_byte_identical(crashed, result, golden)

    def test_resume_without_a_plan_raises(self, tmp_path, paper_generator):
        with pytest.raises(StateError, match="nothing to resume"):
            resume_fleet_distributed(paper_generator, str(tmp_path), workers=1)

    def test_resume_refuses_a_mismatched_generator(self, crashed, paper_generator):
        plan_path = crashed / DISTRIBUTED_PLAN_NAME
        plan = json.loads(plan_path.read_text())
        plan["generator_sha256"] = "0" * 64
        plan_path.write_text(json.dumps(plan))
        with pytest.raises(StateError, match="do not match the interrupted export"):
            resume_fleet_distributed(paper_generator, str(crashed), workers=1)
