"""Distributed fleet export: a coordinator/worker reduction backend.

``generate_sharded`` and the writer fan work out to processes on one
machine; this module crosses the machine boundary.  A coordinator owns
the export: it partitions the RNG-block space into *leases*, hands them
to workers over a length-prefixed JSON protocol, and folds the results
back through the ``to_state()``/``from_state()`` serialization contract
(:mod:`repro.stats.state`) — exactly the payloads the checkpoint layer
persists to disk, now travelling a socket instead.

Topology
--------
Workers speak the same protocol whichever way the TCP connection was
established:

* ``export_fleet_distributed(..., workers=N)`` spawns N local worker
  processes (``multiprocessing``, honouring the engine's start-method
  override) that dial the coordinator's loopback listener and write
  their block segments straight into ``out_dir``.
* ``serve_worker(host, port)`` (CLI: ``fleet serve-worker``) listens for
  a coordinator; ``export_fleet_distributed(..., connect=[(host, port)])``
  dials it.  Attached workers ship segment bytes inline (base64) because
  they cannot assume a shared filesystem.

Protocol
--------
Frames are ``>I`` length-prefixed UTF-8 JSON objects capped at
:data:`MAX_FRAME_BYTES`; a connection that closes mid-header or mid-body
is a *torn frame* and raises :class:`ProtocolError`, as do oversized,
empty, non-JSON and non-object frames.  The worker speaks first::

    worker → hello {protocol, token?}   coordinator → job {params, seed, token?, ...}
    worker → ready                      coordinator → assign {block_lo, block_hi}
    worker → result {blocks, reducers}     ... repeat ...
    worker → heartbeat (background thread, any time)
    worker → drain (finish held leases, deregister cleanly)
                                        coordinator → heartbeat (liveness beacon)
                                        coordinator → shutdown

Authentication
--------------
When a shared token is configured (:func:`resolve_fleet_token`:
``--token-file`` beats the ``REPRO_FLEET_TOKEN`` environment variable)
both directions check it with a constant-time compare: the coordinator
drops a ``hello`` whose token is wrong or missing
(:class:`AuthenticationError`), and a token-holding worker refuses a
``job`` frame that fails the same check — without telling the
unauthenticated coordinator why.  The token travels the wire in clear
text; deploy on trusted networks or behind a TLS tunnel.

Backpressure and drain
----------------------
Each worker holds at most ``lease_depth`` leases in flight (``ready``
frames are credits; the coordinator never assigns beyond them).  A
draining worker (``serve_worker(drain_event=...)``, SIGTERM on the CLI)
finishes the leases it holds, sends ``drain`` instead of the next
``ready``, and deregisters without tripping failure reassignment.

Failure semantics
-----------------
The coordinator tracks per-worker liveness (last frame seen).  A dropped
connection, a protocol violation, an authentication failure, a reducer
payload that fails ``ReducerSet.from_state`` (corrupt or
version-mismatched state) or a heartbeat gap beyond ``worker_timeout``
retires the worker and requeues its outstanding leases.  Workers apply
the same deadline in reverse: the job frame carries ``worker_timeout``,
the coordinator heartbeats every :data:`HEARTBEAT_INTERVAL` seconds, and
a worker that sees no frame for ``worker_timeout`` declares the
coordinator dead and abandons the job instead of wedging forever.  When
the lease queue drains while stragglers still hold leases, idle workers
steal the oldest outstanding lease (speculative re-execution); the
determinism contract makes duplicates byte-identical, so the first
result wins and later ones are discarded.  The run fails only when *no*
workers remain.

Resumable runs
--------------
Before any worker spawns the coordinator writes a plan
(:data:`DISTRIBUTED_PLAN_NAME`, kind ``FleetDistributedPlan``) pinning
the run parameters, then appends one fsynced ``FleetLeaseCheckpoint``
line to :data:`DISTRIBUTED_LEASE_LOG` per completed lease — the record
the block layout's shard logs hold, written, read and finalised by the
same :mod:`~repro.engine.writer` functions.
:func:`resume_fleet_distributed` (CLI: ``fleet export --backend
distributed --resume``) validates the plan against the generator,
re-verifies every checkpointed block file on disk, restores the reducer
states, and re-leases only the incomplete ranges; a torn final log line
(the coordinator died mid-append) is dropped and its lease re-run.
Both files are removed when the manifest is finalised.

Observability
-------------
The coordinator collects per-lease timings, per-worker frame/lease
counters, heartbeat-gap histograms and requeue/steal/drain counts into a
``FleetDistributedMetrics`` JSON document, embedded in
:class:`DistributedExportResult` and optionally written to
``metrics_path`` (CLI: ``--metrics PATH``) for a future ``fleet serve``
scraper.

Byte identity
-------------
Every block's bytes are a pure function of ``(parameters, when, size,
seed)``, so worker placement, crashes, steals, drains and resumes cannot
change the export: the manifest is byte-identical to
``export_fleet_blocks(shards=1, checkpoint_every=0)`` and the CSV
concatenation (hence ``payload_sha256`` and ``fleet_sha256``) to the
single-process ``export_fleet`` of the same fleet.  Statistics merge
lease states in block order, so they are bit-identical across worker
counts and failure schedules too.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import hmac
import json
import os
import socket
import struct
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from queue import Empty, Queue

import numpy as np

from repro.engine.accumulate import CorrelationAccumulator, MomentAccumulator
from repro.engine.pool import discard_pool, get_pool, persistence_enabled
from repro.engine.retry import (
    DIAL_RETRY,
    RECONNECT_RETRY,
    WORKER_RECONNECT_ATTEMPTS,
    RetryError,
)
from repro.engine.reduce import ChunkedFold, QuantileReducer, ReducerSet
from repro.engine.sharding import FleetStatistics, _pool_context, _resolve_factories
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RNG_BLOCK_SIZE,
    as_seed_sequence,
    block_count,
    block_seeds,
    population_digest,
)
from repro.engine.csvfmt import encode_csv_rows
from repro.engine.table import block_schema
from repro.engine.writer import (
    DISTRIBUTED_LEASE_LOG,
    DISTRIBUTED_PLAN_NAME,
    FleetManifest,
    _append_checkpoint,
    _block_name,
    _BlockRun,
    _build_plan,
    _clear_resume_state,
    _decode_block_entries,
    _finalise_blocks,
    _load_plan,
    _read_checkpoint_log,
    _write_json_atomic,
)
from repro.faults.injector import fire as _fire
from repro.faults.injector import plan_is_active
from repro.faults.sites import (
    KIND_FRAME_CORRUPT,
    KIND_FRAME_DROP,
    KIND_HEARTBEAT_STALL,
    SITE_CONNECT_DIAL,
    SITE_COORDINATOR_CHECKPOINT,
    SITE_FRAME_RECV,
    SITE_FRAME_SEND,
    SITE_HEARTBEAT,
    SITE_WORKER_BLOCK,
    SITE_WORKER_DIAL,
)
from repro.stats.state import StateError, make_envelope

#: Wire protocol schema version; hello/job frames carry and check it.
#: v2 added token auth, coordinator heartbeats, worker read deadlines,
#: lease-depth credits and the drain frame.
PROTOCOL_VERSION = 2

#: Frame length prefix: 4-byte big-endian unsigned length.
_FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's JSON body.  A lease result with inline
#: segment data is ~200 KiB per block, so the default 8-block lease stays
#: three orders of magnitude under this; anything larger is a corrupt or
#: hostile length prefix, not a real message.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Blocks per lease — the scheduling granule.  Smaller leases rebalance
#: stragglers faster; larger leases amortise protocol round trips.
DEFAULT_LEASE_BLOCKS = 4

#: Leases a worker may hold in flight (its backpressure bound).  1 keeps
#: the strict ready→assign→result lockstep; 2 lets the coordinator
#: pipeline the next assign while the worker generates.
DEFAULT_LEASE_DEPTH = 1

#: Seconds of frame silence after which a peer is declared dead — applied
#: by the coordinator to workers and (since the job frame carries it) by
#: workers to the coordinator.
DEFAULT_WORKER_TIMEOUT = 60.0

#: Cadence of the background heartbeat beacons (both directions).
HEARTBEAT_INTERVAL = 2.0

#: Age an outstanding lease must reach before an idle worker steals it.
STEAL_AFTER = 5.0

#: Environment variable supplying the shared fleet token.
FLEET_TOKEN_ENV = "REPRO_FLEET_TOKEN"

#: Envelope kinds of the distributed plan and metrics payloads (the plan
#: file and lease log names live in :mod:`~repro.engine.writer`, which
#: owns the resume protocol both layouts share).
DISTRIBUTED_PLAN_KIND = "FleetDistributedPlan"
DISTRIBUTED_METRICS_KIND = "FleetDistributedMetrics"

#: Schema version of the distributed metrics envelope.
DISTRIBUTED_STATE_VERSION = 1

#: Plan fields the job frame forwards to workers verbatim.
_JOB_FIELDS = (
    "generator", "when", "size", "entropy", "spawn_key", "block_size",
    "format", "chunk_size", "reducers", "reducer_args",
)

#: Upper edges (seconds) of the heartbeat-gap histogram buckets; the
#: final bucket is open-ended.  Gaps land left of the first edge when the
#: fleet is healthy (heartbeats every :data:`HEARTBEAT_INTERVAL` s).
HEARTBEAT_GAP_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: Reducers that may travel the wire by *name* (the job frame carries
#: names, never callables — workers instantiate from this registry, so a
#: coordinator cannot make a worker run arbitrary code).
WIRE_REDUCER_FACTORIES = {
    "moments": MomentAccumulator,
    "correlation": CorrelationAccumulator,
    "quantiles": QuantileReducer,
}

#: Generators that may travel the wire by *name*: ``{wire_name:
#: builder(params_json) -> generator}``.  Populated by
#: :func:`register_wire_generator` (the scenario registry registers its
#: generators on import); the host-resource default is resolved lazily in
#: :func:`_resolve_wire_generator` so the engine package stays importable
#: without the model layer.
WIRE_GENERATOR_BUILDERS: "dict[str, object]" = {}


def register_wire_generator(name: str, builder) -> None:
    """Allow a generator family onto the wire under ``name``.

    ``builder`` takes the job's ``params`` JSON string and returns a
    generator.  Like reducers, generators travel by name — a coordinator
    can only select from what the worker has registered, never ship code.
    """
    existing = WIRE_GENERATOR_BUILDERS.get(name)
    if existing is not None and existing is not builder:
        raise ValueError(f"wire generator {name!r} is already registered")
    WIRE_GENERATOR_BUILDERS[name] = builder


def _build_host_generator(params_json: str):
    # Imported lazily: the engine package must stay importable without
    # dragging the model layer in, and only workers rebuild generators.
    from repro.core.generator import CorrelatedHostGenerator
    from repro.core.parameters import ModelParameters

    return CorrelatedHostGenerator(ModelParameters.from_json(params_json))


def _resolve_wire_generator(name):
    """The builder for a wire generator name, or ``None`` if unknown.

    Unknown names trigger one lazy import of :mod:`repro.scenarios` (whose
    import registers the scenario generators) before giving up.
    """
    if name == "CorrelatedHostGenerator":
        return _build_host_generator
    builder = WIRE_GENERATOR_BUILDERS.get(name)
    if builder is None:
        try:
            import repro.scenarios  # noqa: F401  (registers on import)
        except ImportError:
            return None
        builder = WIRE_GENERATOR_BUILDERS.get(name)
    return builder


def _wire_reducer_spec(name: str, factory) -> "list":
    """Encode one reducer factory's constructor arguments for the wire.

    A factory is either a :data:`WIRE_REDUCER_FACTORIES` class itself
    (``[]``) or a ``functools.partial`` of one whose positional arguments
    are label tuples or numeric scalars (the scenario profiles).  Anything
    else cannot travel a JSON wire and raises :class:`ValueError`.
    """
    base = factory
    args: "tuple" = ()
    if isinstance(base, functools.partial):
        if base.keywords:
            raise ValueError(
                f"reducer {name!r} cannot travel the wire: partial keywords "
                "are not supported"
            )
        args = base.args
        base = base.func
    if WIRE_REDUCER_FACTORIES.get(name) is not base:
        raise ValueError(
            f"reducer {name!r} cannot travel the wire; the distributed "
            f"backend ships names from {sorted(WIRE_REDUCER_FACTORIES)}"
        )
    encoded: "list" = []
    for arg in args:
        if isinstance(arg, (list, tuple)) and all(
            isinstance(item, str) for item in arg
        ):
            encoded.append(list(arg))
        elif isinstance(arg, (int, float)) and not isinstance(arg, bool):
            encoded.append(arg)
        else:
            raise ValueError(
                f"reducer {name!r} argument {arg!r} cannot travel the wire "
                "(label lists and numeric scalars only)"
            )
    return encoded


def _wire_factories(names, reducer_args) -> dict:
    """Rebuild reducer factories from a job's or plan's ``reducers`` names
    and ``reducer_args`` (:func:`_wire_reducer_spec` forms).

    ``None``/``[]`` mean the bare registry class; label lists come back as
    tuples.  Unknown names and malformed payloads raise :class:`ValueError`.
    """
    if not isinstance(reducer_args, dict):
        raise ValueError("reducer_args must be an object")
    factories = {}
    for name in names:
        cls = WIRE_REDUCER_FACTORIES.get(name)
        if cls is None:
            raise ValueError(
                f"unknown wire reducer {name!r}; this engine knows "
                f"{sorted(WIRE_REDUCER_FACTORIES)}"
            )
        raw = reducer_args.get(name)
        if not isinstance(raw, (list, type(None))):
            raise ValueError(f"reducer argument payload must be a list, got {raw!r}")
        args: "list" = []
        for item in raw or ():
            if isinstance(item, list) and all(isinstance(v, str) for v in item):
                args.append(tuple(item))
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                args.append(item)
            else:
                raise ValueError(f"malformed wire reducer argument {item!r}")
        factories[name] = functools.partial(cls, *args) if args else cls
    return factories


def _wire_reducer_args(factories: dict) -> "dict[str, list]":
    """The job/plan ``reducer_args`` field for a validated factory dict."""
    return {
        name: _wire_reducer_spec(name, factory)
        for name, factory in sorted(factories.items())
    }


class ProtocolError(RuntimeError):
    """A frame violated the length-prefixed JSON wire protocol."""


class AuthenticationError(ProtocolError):
    """A peer failed the shared-token check."""


def resolve_fleet_token(token_file: "str | None" = None) -> "str | None":
    """The shared fleet token, or ``None`` when auth is not configured.

    ``token_file`` (CLI ``--token-file``) wins over the
    :data:`FLEET_TOKEN_ENV` environment variable; surrounding whitespace
    is stripped so a trailing newline in the file is harmless.  An
    unreadable file raises :class:`OSError`; a file or variable that is
    set but blank raises :class:`ValueError` — silently running
    unauthenticated when the operator configured a token would be worse
    than failing.
    """
    if token_file is not None:
        with open(token_file, "r", encoding="utf-8") as handle:
            token = handle.read().strip()
        if not token:
            raise ValueError(f"token file {token_file} is empty")
        return token
    raw = os.environ.get(FLEET_TOKEN_ENV)
    if raw is None:
        return None
    token = raw.strip()
    if not token:
        raise ValueError(f"{FLEET_TOKEN_ENV} is set but blank")
    return token


def _token_matches(expected: str, supplied) -> bool:
    """Constant-time token comparison (False for non-string payloads)."""
    if not isinstance(supplied, str):
        return False
    return hmac.compare_digest(
        supplied.encode("utf-8"), expected.encode("utf-8")
    )


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialise one protocol message and write it to the socket."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send an oversized frame ({len(body)} bytes > "
            f"{MAX_FRAME_BYTES})"
        )
    firing = _fire(SITE_FRAME_SEND)
    if firing is not None:
        if firing.kind == KIND_FRAME_DROP:
            # A frame lost with the connection still healthy could wedge
            # the lease protocol forever (a dropped ``ready`` starves the
            # coordinator of credits).  Real networks do not lose one
            # frame from an otherwise-ordered TCP stream either — they
            # lose the connection.  Model that: drop the frame *and* the
            # socket, so both peers' failure detection converges.
            sock.close()
            raise OSError("fault injection: frame dropped, connection torn down")
        if firing.kind == KIND_FRAME_CORRUPT:
            body = bytes([body[0] ^ 0xFF]) + body[1:]
    sock.sendall(_FRAME_HEADER.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> "dict | None":
    """Read one protocol message; ``None`` on a clean EOF between frames.

    A connection that closes *inside* a frame (torn header or body), a
    length prefix of zero or beyond :data:`MAX_FRAME_BYTES`, or a body
    that is not a JSON object all raise :class:`ProtocolError`.
    """
    _fire(SITE_FRAME_RECV)
    header = _recv_exact(sock, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("empty frame (zero-length prefix)")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"oversized frame: length prefix {length} exceeds "
            f"{MAX_FRAME_BYTES} bytes"
        )
    body = _recv_exact(sock, length, allow_eof=False)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}")
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool) -> "bytes | None":
    """Read exactly ``n`` bytes; torn reads raise, clean EOF may return None."""
    pieces: "list[bytes]" = []
    remaining = n
    while remaining:
        piece = sock.recv(min(remaining, 1 << 20))
        if not piece:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"torn frame: connection closed with {remaining} of {n} "
                "bytes outstanding"
            )
        pieces.append(piece)
        remaining -= len(piece)
    return b"".join(pieces)


def parse_endpoint(spec: str) -> "tuple[str, int]":
    """Parse a ``HOST:PORT`` worker endpoint, validating the port range."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"worker endpoint {spec!r} is not of the form HOST:PORT")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"worker endpoint {spec!r} has a non-integer port")
    if not 1 <= port <= 65535:
        raise ValueError(
            f"worker endpoint {spec!r} port must be in [1, 65535], got {port}"
        )
    return host, port


# -- worker ------------------------------------------------------------------


def _render_block_csv(block) -> bytes:
    """A block's CSV rows, byte-identical to every other export path."""
    return encode_csv_rows(block.to_matrix(), block_schema(block).csv_fmt)


def _heartbeat_loop(send, stop: threading.Event, interval: float) -> None:
    while not stop.wait(interval):
        firing = _fire(SITE_HEARTBEAT)
        if firing is not None and firing.kind == KIND_HEARTBEAT_STALL:
            # The beacon thread dies silently; the peer's worker_timeout
            # failure detector is what is under test.
            return
        try:
            send({"type": "heartbeat"})
        except OSError:
            return


def _worker_loop(
    sock: socket.socket,
    token: "str | None" = None,
    drain_event: "threading.Event | None" = None,
    drain_after: "int | None" = None,
) -> None:
    """Serve one coordinator over an established connection.

    Sends ``hello`` (carrying ``token`` when auth is configured),
    receives the job, then pipelines up to the job's ``lease_depth``
    leases: each ``ready`` is a credit the coordinator answers with an
    ``assign``, and results flow back as leases finish.  A background
    thread heartbeats every :data:`HEARTBEAT_INTERVAL` seconds so slow
    block generation never reads as death; symmetrically, the job's
    ``worker_timeout`` bounds how long a silent coordinator is trusted
    before the worker abandons the job (:class:`ProtocolError`).  Job
    problems (protocol/block-size/reducer-name mismatches) are reported
    with an ``error`` frame rather than silence; a job that fails the
    token check raises :class:`AuthenticationError` without explaining
    itself to the unauthenticated coordinator.

    When ``drain_event`` fires (or ``drain_after`` completed leases are
    reached) the worker finishes the leases it holds, sends ``drain``
    and returns — a clean deregistration, not a failure.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()

    def send(message: dict) -> None:
        with send_lock:
            send_frame(sock, message)

    # A connection that never sends the job (port scanner, half-open
    # leftover of a crashed coordinator) must not wedge this worker
    # forever: bound the handshake with the default deadline, then switch
    # to the job's worker_timeout for the rest of the session.
    sock.settimeout(DEFAULT_WORKER_TIMEOUT)
    hello = {"type": "hello", "protocol": PROTOCOL_VERSION, "pid": os.getpid()}
    if token is not None:
        hello["token"] = token
    send(hello)
    job = recv_frame(sock)
    if job is None:
        return
    if job.get("type") != "job":
        raise ProtocolError(f"expected a job frame, got {job.get('type')!r}")
    if token is not None and not _token_matches(token, job.get("token")):
        raise AuthenticationError(
            "coordinator failed the shared-token check; refusing its job"
        )

    def refuse(message: str) -> None:
        send({"type": "error", "message": message})

    if job.get("protocol") != PROTOCOL_VERSION:
        return refuse(
            f"coordinator speaks protocol {job.get('protocol')!r}; this "
            f"worker speaks {PROTOCOL_VERSION}"
        )
    if job.get("block_size") != RNG_BLOCK_SIZE:
        return refuse(
            f"coordinator fleet uses RNG block size {job.get('block_size')!r}; "
            f"this worker generates {RNG_BLOCK_SIZE} and would corrupt the export"
        )
    if job.get("format") != "csv":
        return refuse(f"unsupported segment format {job.get('format')!r}")
    generator_name = job.get("generator", "CorrelatedHostGenerator")
    builder = _resolve_wire_generator(generator_name)
    if builder is None:
        return refuse(
            f"unknown wire generator {generator_name!r}; this worker only "
            "builds registered generator families"
        )
    try:
        factories = _wire_factories(
            job.get("reducers", []), job.get("reducer_args", {})
        )
        generator = builder(job["params"])
        size = int(job["size"])
        when = float(job["when"])
        chunk_size = int(job["chunk_size"])
        worker_timeout = float(job.get("worker_timeout", DEFAULT_WORKER_TIMEOUT))
        lease_depth = int(job.get("lease_depth", DEFAULT_LEASE_DEPTH))
        root = np.random.SeedSequence(
            entropy=int(job["entropy"]),
            spawn_key=tuple(int(k) for k in job["spawn_key"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        return refuse(f"malformed job: {error}")
    if not worker_timeout > 0:
        return refuse(f"malformed job: worker_timeout must be positive")
    if lease_depth < 1:
        return refuse(f"malformed job: lease_depth must be at least 1")
    # The coordinator beacons every HEARTBEAT_INTERVAL, so a worker that
    # sees nothing for worker_timeout is orphaned (dead or partitioned
    # coordinator) and must exit rather than wedge a serve-worker slot.
    sock.settimeout(worker_timeout)
    seeds = block_seeds(root, size)
    out_dir = job.get("out_dir")

    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop, args=(send, stop, HEARTBEAT_INTERVAL), daemon=True
    )
    heartbeat.start()
    leases_done = 0
    credits = 0
    assigned: "deque[tuple[int, int]]" = deque()
    try:
        while True:
            draining = (drain_event is not None and drain_event.is_set()) or (
                drain_after is not None and leases_done >= drain_after
            )
            if draining and not assigned:
                send({"type": "drain"})
                return
            while not draining and credits + len(assigned) < lease_depth:
                send({"type": "ready"})
                credits += 1
            if not assigned:
                try:
                    message = recv_frame(sock)
                except TimeoutError:
                    raise ProtocolError(
                        f"coordinator sent no frame for {worker_timeout:.0f} s; "
                        "presuming it dead and abandoning the job"
                    )
                if message is None or message.get("type") == "shutdown":
                    return
                if message.get("type") == "heartbeat":
                    continue
                if message.get("type") != "assign":
                    raise ProtocolError(
                        f"expected assign/heartbeat/shutdown, got "
                        f"{message.get('type')!r}"
                    )
                credits -= 1
                assigned.append(
                    (int(message["block_lo"]), int(message["block_hi"]))
                )
                continue
            lo, hi = assigned.popleft()
            reducers = ReducerSet.from_factories(factories)
            fold = ChunkedFold(reducers, chunk_size)
            blocks: "list[dict]" = []
            for index in range(lo, hi):
                row_lo = index * RNG_BLOCK_SIZE
                block = generator.generate(
                    when,
                    min(RNG_BLOCK_SIZE, size - row_lo),
                    np.random.default_rng(seeds[index]),
                )
                data = _render_block_csv(block)
                entry = {
                    "index": index,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                    "digest": population_digest(block),
                }
                if out_dir:
                    with open(
                        os.path.join(out_dir, _block_name(index, "csv")), "wb"
                    ) as handle:
                        handle.write(data)
                else:
                    entry["data"] = base64.b64encode(data).decode("ascii")
                blocks.append(entry)
                fold.add(block)
                _fire(SITE_WORKER_BLOCK)
            fold.flush()
            send(
                {
                    "type": "result",
                    "block_lo": lo,
                    "block_hi": hi,
                    "blocks": blocks,
                    "reducers": reducers.to_state(),
                }
            )
            leases_done += 1
    finally:
        stop.set()


def _dial(host: str, port: int, site: str, timeout: "float | None" = None):
    """One coordinator/worker dial under :data:`DIAL_RETRY`.

    The fault site fires *inside* each attempt, so a ``count``-limited
    ``dial-refuse`` spec exercises the retry policy end to end: the
    injected refusals burn attempts, then the real dial goes through.
    """

    def attempt() -> socket.socket:
        _fire(site)
        return socket.create_connection((host, port), timeout=timeout)

    return DIAL_RETRY.call(
        attempt,
        retry_on=(ConnectionError, TimeoutError),
        describe=f"dialling {host}:{port}",
    )


def _local_worker_main(
    host: str, port: int, token: "str | None" = None, listener=None
) -> None:
    """Entry point of a spawned local worker process (module-level so it
    pickles under every multiprocessing start method).

    ``listener`` is the coordinator's listening socket as a fork child
    inherits it.  It is closed first: a worker orphaned by a dead
    coordinator must have its reconnects refused, not queued in a
    listener the worker itself keeps open.

    The dial retries under :data:`DIAL_RETRY` — a worker that comes up
    before its coordinator listens must not die on the first
    ``ConnectionRefusedError``.  A connection lost *mid-job* gets a
    bounded reconnect window (:data:`WORKER_RECONNECT_ATTEMPTS` fresh
    dials under :data:`RECONNECT_RETRY`); the determinism contract makes
    the replayed leases byte-identical, so rejoining is always safe.
    """
    if listener is not None:
        listener.close()
    attempts = 1 + WORKER_RECONNECT_ATTEMPTS
    for attempt in range(attempts):
        try:
            if attempt == 0:
                sock = _dial(host, port, SITE_WORKER_DIAL)
            else:
                sock = RECONNECT_RETRY.call(
                    lambda: socket.create_connection((host, port)),
                    retry_on=(ConnectionError, TimeoutError),
                    describe=f"reconnecting to coordinator {host}:{port}",
                )
        except RetryError:
            return  # the coordinator tracks worker death through the socket
        try:
            _worker_loop(sock, token=token)
            return
        except (ProtocolError, OSError):
            continue  # lost the coordinator mid-job: try one fresh session
        finally:
            sock.close()


class _PooledWorkerHandle:
    """Process-shaped view of a local worker running inside the persistent
    pool, so the coordinator's liveness/teardown code needs no branches.

    ``is_alive`` maps to the task not having completed, ``join`` waits on
    the ``AsyncResult``, and ``terminate`` discards the whole pool — a
    single pool task cannot be killed, and a worker a caller wants dead is
    a worker the pool should not hand to the next fan-out anyway.
    """

    def __init__(self, pool, result):
        self._pool = pool
        self._result = result

    def is_alive(self) -> bool:
        return not self._result.ready()

    def join(self, timeout: "float | None" = None) -> None:
        try:
            self._result.get(timeout=timeout)
        except Exception:  # timeouts and worker errors surface elsewhere
            pass

    def terminate(self) -> None:
        discard_pool(self._pool)


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    max_jobs: "int | None" = 1,
    on_bound=None,
    token: "str | None" = None,
    drain_event: "threading.Event | None" = None,
    drain_after: "int | None" = None,
) -> int:
    """Listen for a coordinator and serve jobs (CLI: ``fleet serve-worker``).

    Serves ``max_jobs`` coordinator connections (``None`` = forever) and
    returns the number served.  ``on_bound`` (tests, supervisors) is
    called with the bound port once listening — useful with ``port=0``.
    A failed job (protocol violation, coordinator death) is logged to
    stderr and does not stop the next job; an unauthenticated coordinator
    (``token`` set, :class:`AuthenticationError`) is rejected without
    consuming a job slot.  ``drain_event`` (the CLI arms it on SIGTERM)
    drains the in-progress job gracefully and stops accepting;
    KeyboardInterrupt (Ctrl-C) stops the loop cleanly so the caller can
    print its served summary instead of a traceback.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    served = 0
    try:
        listener.bind((host, port))
        listener.listen(1)
        # Poll the listener so a drain request arriving between jobs is
        # honoured promptly instead of after the next coordinator dials.
        listener.settimeout(0.5)
        if on_bound is not None:
            on_bound(listener.getsockname()[1])
        while max_jobs is None or served < max_jobs:
            if drain_event is not None and drain_event.is_set():
                break
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            try:
                _worker_loop(
                    conn,
                    token=token,
                    drain_event=drain_event,
                    drain_after=drain_after,
                )
            except AuthenticationError as error:
                import sys

                sys.stderr.write(
                    f"serve-worker: rejected unauthenticated coordinator: "
                    f"{error}\n"
                )
                continue
            except (ProtocolError, StateError, OSError) as error:
                import sys

                sys.stderr.write(f"serve-worker: job failed: {error}\n")
            finally:
                conn.close()
            served += 1
    except KeyboardInterrupt:
        pass  # Ctrl-C: stop accepting; the caller prints the served summary
    finally:
        listener.close()
    return served


# -- coordinator -------------------------------------------------------------


@dataclass
class DistributedExportResult:
    """Outcome of a distributed fleet export.

    ``workers`` counts connections that completed the handshake;
    ``reassigned_leases`` counts leases requeued after a worker died plus
    leases stolen from stragglers by idle workers (graceful drains do not
    contribute).  ``metrics`` is the run's ``FleetDistributedMetrics``
    document (per-lease timings, heartbeat-gap histograms, per-worker
    counters); ``resumed_leases`` counts leases restored from the
    checkpoint log rather than re-run.
    """

    manifest: FleetManifest
    statistics: FleetStatistics
    workers: int
    reassigned_leases: int
    metrics: dict = field(default_factory=dict)
    resumed_leases: int = 0


class _Remote:
    """Coordinator-side state of one worker connection."""

    def __init__(self, sock: socket.socket, name: str, local: bool):
        self.sock = sock
        self.name = name
        self.local = local
        self.state = "hello"
        #: Outstanding leases held by this worker → monotonic assign time.
        self.leases: "dict[tuple[int, int], float]" = {}
        #: Unconsumed ``ready`` credits (assignable without overrunning
        #: the worker's in-flight cap).
        self.credits = 0
        self.last_seen = time.monotonic()
        self.idle = False
        self.alive = True


def _lease_ranges(n_blocks: int, lease_blocks: int) -> "list[tuple[int, int]]":
    return [
        (lo, min(lo + lease_blocks, n_blocks))
        for lo in range(0, n_blocks, lease_blocks)
    ]


class _Coordinator:
    """Single-threaded scheduler over reader-thread-fed worker events."""

    def __init__(
        self,
        job: dict,
        leases: "list[tuple[int, int]]",
        out_dir: str,
        factories: dict,
        size: int,
        worker_timeout: float,
        token: "str | None" = None,
        lease_depth: int = DEFAULT_LEASE_DEPTH,
        completed: "dict | None" = None,
    ):
        self.job = job
        self.leases = leases
        self.out_dir = out_dir
        self.factories = factories
        self.size = size
        self.worker_timeout = worker_timeout
        self.token = token
        self.lease_depth = lease_depth
        #: The lease log, opened "ab" once the local workers exist.
        self.checkpoint_log = None
        self.events: Queue = Queue()
        self.remotes: "list[_Remote]" = []
        self.completed: "dict[tuple[int, int], dict]" = dict(completed or {})
        self.pending: "deque[tuple[int, int]]" = deque(
            lease for lease in leases if lease not in self.completed
        )
        self.requeued = 0
        self.stolen = 0
        self.drained = 0
        self.workers_seen = 0
        self.last_progress = time.monotonic()
        self.last_error: "BaseException | None" = None
        self.processes: "list" = []
        self.lease_events: "list[dict]" = []
        self.worker_metrics: "dict[str, dict]" = {}

    # -- connection plumbing -------------------------------------------------

    def attach(self, sock: socket.socket, name: str, local: bool) -> None:
        """Register an established connection and start its reader thread."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        remote = _Remote(sock, name, local)
        self.remotes.append(remote)
        threading.Thread(
            target=self._reader, args=(remote,), daemon=True
        ).start()

    def _reader(self, remote: _Remote) -> None:
        try:
            while True:
                message = recv_frame(remote.sock)
                if message is None:
                    self.events.put(("close", remote, None))
                    return
                self.events.put(("frame", remote, message))
        except (ProtocolError, OSError) as error:
            self.events.put(("close", remote, error))

    def _accept_loop(self, listener: socket.socket) -> None:
        try:
            while True:
                sock, _ = listener.accept()
                self.events.put(("connect", sock))
        except OSError:
            return  # listener closed — coordinator shutting down

    # -- scheduling ----------------------------------------------------------

    def _send(self, remote: _Remote, message: dict) -> bool:
        try:
            send_frame(remote.sock, message)
            return True
        except OSError as error:
            self._drop(remote, error)
            return False

    def _drop(self, remote: _Remote, error: "BaseException | str | None") -> None:
        """Retire a failed worker, recording its error and requeueing."""
        if not remote.alive:
            return
        if error is not None:
            self.last_error = (
                error if isinstance(error, BaseException) else RuntimeError(error)
            )
        self._release(remote)

    def _release(self, remote: _Remote) -> None:
        """Deregister a worker and requeue its outstanding leases.

        Shared by failure drops and graceful drains; a cleanly draining
        worker holds no leases by protocol, so the drain path normally
        requeues nothing (the cap race at ``lease_depth > 1`` — an assign
        in flight when the drain frame was sent — is the exception).
        """
        remote.alive = False
        remote.idle = False
        remote.credits = 0
        try:
            # Shut down first: this remote's reader thread is still blocked
            # in recv on the socket, and a bare close() then sends no FIN,
            # leaving a refused or dropped peer waiting out its timeout.
            remote.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            remote.sock.close()
        except OSError:
            pass
        outstanding = list(remote.leases)
        remote.leases.clear()
        requeued = False
        for lease in outstanding:
            if lease in self.completed:
                continue
            if any(r.alive and lease in r.leases for r in self.remotes):
                continue
            self.pending.appendleft(lease)
            self.requeued += 1
            requeued = True
        if requeued:
            for other in self.remotes:
                if other.alive and other.credits > 0:
                    self._offer(other)

    def _assign(self, remote: _Remote, lease: "tuple[int, int]") -> None:
        remote.credits -= 1
        remote.idle = remote.credits > 0
        remote.leases[lease] = time.monotonic()
        self._send(
            remote,
            {"type": "assign", "block_lo": lease[0], "block_hi": lease[1]},
        )

    def _offer(self, remote: _Remote) -> None:
        while remote.credits > 0 and self.pending:
            self._assign(remote, self.pending.popleft())
        remote.idle = remote.alive and remote.credits > 0

    def _steal(self, now: float) -> None:
        """Give fully idle workers the oldest outstanding straggler leases.

        Each pass spreads the idle workers across *distinct* stragglers
        (oldest first) — duplicating one straggler's lease onto every
        idle worker would triplicate its blocks while the other
        stragglers got no help at all.  Only workers holding no lease of
        their own steal, so speculation never competes with real work.
        """
        if self.pending:
            return
        taken: "set[tuple[int, int]]" = set()
        for remote in self.remotes:
            if not (
                remote.alive
                and remote.state == "active"
                and remote.credits > 0
                and not remote.leases
            ):
                continue
            candidates = [
                (started, lease)
                for other in self.remotes
                if other.alive and other is not remote
                for lease, started in other.leases.items()
                if lease not in self.completed
                and lease not in taken
                and now - started > STEAL_AFTER
            ]
            if not candidates:
                return
            started, lease = min(candidates)
            taken.add(lease)
            self.stolen += 1
            self._worker_entry(remote)["stolen_leases"] += 1
            self._assign(remote, lease)

    # -- metrics -------------------------------------------------------------

    def _worker_entry(self, remote: _Remote) -> dict:
        entry = self.worker_metrics.get(remote.name)
        if entry is None:
            entry = self.worker_metrics[remote.name] = {
                "local": remote.local,
                "frames": 0,
                "leases_completed": 0,
                "blocks_completed": 0,
                "stolen_leases": 0,
                "drained": False,
                "heartbeat_gap_histogram": [0] * (len(HEARTBEAT_GAP_BUCKETS) + 1),
                "max_frame_gap_seconds": 0.0,
            }
        return entry

    # -- frame handling ------------------------------------------------------

    def _handle_frame(self, remote: _Remote, message: dict) -> None:
        if not remote.alive:
            return
        now = time.monotonic()
        if remote.state == "active":
            gap = now - remote.last_seen
            entry = self._worker_entry(remote)
            entry["frames"] += 1
            entry["heartbeat_gap_histogram"][
                bisect_right(HEARTBEAT_GAP_BUCKETS, gap)
            ] += 1
            if gap > entry["max_frame_gap_seconds"]:
                entry["max_frame_gap_seconds"] = gap
        remote.last_seen = now
        self.last_progress = now
        kind = message.get("type")
        if kind == "hello":
            if remote.state != "hello":
                return self._drop(remote, f"{remote.name} sent a second hello")
            if message.get("protocol") != PROTOCOL_VERSION:
                return self._drop(
                    remote,
                    f"{remote.name} speaks protocol "
                    f"{message.get('protocol')!r}, not {PROTOCOL_VERSION}",
                )
            if self.token is not None and not _token_matches(
                self.token, message.get("token")
            ):
                return self._drop(
                    remote,
                    AuthenticationError(
                        f"{remote.name} failed authentication (bad or "
                        "missing worker token)"
                    ),
                )
            remote.state = "active"
            self.workers_seen += 1
            self._worker_entry(remote)
            job = dict(self.job)
            job["out_dir"] = self.out_dir if remote.local else None
            self._send(remote, job)
        elif kind == "ready":
            if remote.state != "active":
                return self._drop(remote, f"{remote.name} sent ready before hello")
            remote.credits += 1
            if remote.credits + len(remote.leases) > self.lease_depth:
                return self._drop(
                    remote,
                    f"{remote.name} exceeded the in-flight lease cap "
                    f"({self.lease_depth})",
                )
            self._offer(remote)
        elif kind == "heartbeat":
            pass
        elif kind == "result":
            self._handle_result(remote, message)
        elif kind == "drain":
            if remote.state != "active":
                return self._drop(remote, f"{remote.name} sent drain before hello")
            self.drained += 1
            self._worker_entry(remote)["drained"] = True
            self._release(remote)
        elif kind == "error":
            self._drop(
                remote,
                f"worker {remote.name} refused the job: {message.get('message')}",
            )
        else:
            self._drop(remote, f"{remote.name} sent unknown frame type {kind!r}")

    def _handle_result(self, remote: _Remote, message: dict) -> None:
        lease = (message.get("block_lo"), message.get("block_hi"))
        if lease not in remote.leases:
            return self._drop(
                remote, f"{remote.name} sent a result for a lease it does not hold"
            )
        if lease in self.completed:
            del remote.leases[lease]
            return  # a speculative duplicate lost the race; first result won
        try:
            run, writes = self._validate_result(remote, lease, message)
        except (ValueError, TypeError, KeyError) as error:
            # The lease is still attached to the remote here, so _drop
            # requeues it — clearing it first would leak the lease and
            # hang the export once the healthy workers drain the queue.
            return self._drop(
                remote, f"rejected result from {remote.name}: {error}"
            )
        started = remote.leases.pop(lease)
        for index, data in writes:
            with open(
                os.path.join(self.out_dir, _block_name(index, "csv")), "wb"
            ) as handle:
                handle.write(data)
        self.completed[lease] = run
        now = time.monotonic()
        self.last_progress = now
        self.lease_events.append(
            {
                "block_lo": lease[0],
                "block_hi": lease[1],
                "worker": remote.name,
                "seconds": now - started,
            }
        )
        stats = self._worker_entry(remote)
        stats["leases_completed"] += 1
        stats["blocks_completed"] += lease[1] - lease[0]
        if self.checkpoint_log is not None:
            _append_checkpoint(
                self.checkpoint_log, SITE_COORDINATOR_CHECKPOINT, lease[0],
                run.records, run.digests, run.reducers,
            )

    def _validate_result(
        self, remote: _Remote, lease: "tuple[int, int]", message: dict
    ) -> "tuple[_BlockRun, list[tuple[int, bytes]]]":
        """Decode one lease result, mapping any malformed piece to an error.

        Returns the lease's run (segment records, block digests, restored
        reducer set) and, for inline transport, the decoded file bytes to
        write.  The reducer payload goes through
        :meth:`ReducerSet.from_state` here, so a corrupt or
        version-mismatched state is caught while we can still retire the
        worker and requeue its lease.
        """
        records, digests, writes = _decode_block_entries(
            message.get("blocks"), *lease, self.size, inline=not remote.local
        )
        restored = ReducerSet.from_state(message["reducers"])
        if set(restored.names()) != set(self.factories):
            raise StateError(
                f"result reducers {sorted(restored.names())} do not match the "
                f"job's {sorted(self.factories)}"
            )
        return _BlockRun(*lease, records, digests, restored), writes

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        self.last_progress = time.monotonic()
        last_beat = self.last_progress
        while len(self.completed) < len(self.leases):
            try:
                event = self.events.get(timeout=0.2)
            except Empty:
                event = None
            if event is not None:
                if event[0] == "connect":
                    self.attach(event[1], f"local-{len(self.remotes)}", local=True)
                    self.last_progress = time.monotonic()
                elif event[0] == "frame":
                    self._handle_frame(event[1], event[2])
                elif event[0] == "close":
                    self._drop(event[1], event[2])
            now = time.monotonic()
            if now - last_beat >= HEARTBEAT_INTERVAL:
                # The reverse beacon: workers reset their read deadline on
                # any frame, so this is what keeps an idle (credit-holding)
                # worker from declaring a healthy coordinator dead.
                last_beat = now
                for remote in list(self.remotes):
                    if remote.alive and remote.state == "active":
                        self._send(remote, {"type": "heartbeat"})
            for remote in self.remotes:
                if remote.alive and now - remote.last_seen > self.worker_timeout:
                    self._drop(remote, f"{remote.name} heartbeat timeout")
            self._steal(now)
            if not any(remote.alive for remote in self.remotes):
                if any(process.is_alive() for process in self.processes):
                    if now - self.last_progress > self.worker_timeout:
                        if self.workers_seen == 0:
                            raise RuntimeError(
                                "distributed export stalled: no worker "
                                f"connected within {self.worker_timeout:.0f} s"
                            )
                        raise RuntimeError(
                            "distributed export stalled: workers went silent "
                            f"after completing {len(self.completed)}/"
                            f"{len(self.leases)} leases"
                        )
                    continue
                detail = f" (last error: {self.last_error})" if self.last_error else ""
                raise RuntimeError(
                    "all distributed workers died before completing the "
                    f"export{detail}"
                )
        for remote in self.remotes:
            if remote.alive:
                self._send(remote, {"type": "shutdown"})


# -- entry points ------------------------------------------------------------


def export_fleet_distributed(
    generator,
    when,
    size: int,
    rng,
    out_dir: str,
    workers: int = 2,
    connect: "list[tuple[str, int]] | tuple" = (),
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    reducers: "dict | None" = None,
    quantiles: bool = False,
    lease_blocks: int = DEFAULT_LEASE_BLOCKS,
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    manifest_name: str = "manifest.json",
    start_method: "str | None" = None,
    lease_depth: int = DEFAULT_LEASE_DEPTH,
    token: "str | None" = None,
    metrics_path: "str | None" = None,
) -> DistributedExportResult:
    """Export a fleet through coordinator-scheduled distributed workers.

    Spawns ``workers`` local worker processes and/or dials the
    ``connect`` list of ``(host, port)`` :func:`serve_worker` endpoints,
    leases them RNG-block ranges of ``lease_blocks`` blocks (at most
    ``lease_depth`` in flight per worker) with work-stealing and failure
    reassignment, and merges their serialized
    :class:`~repro.engine.reduce.ReducerSet` states in block order.  The
    resulting manifest (``layout="block"``, CSV only) and payload bytes
    are byte-identical to the single-process export of the same
    ``(parameters, when, size, seed)`` fleet; see the module docstring.

    ``token`` arms mutual shared-token auth; ``metrics_path`` writes the
    run's ``FleetDistributedMetrics`` JSON.  The run checkpoints every
    completed lease (see :func:`resume_fleet_distributed`).  ``reducers``
    accepts the :data:`WIRE_REDUCER_FACTORIES` subset by name (factories
    cannot travel a JSON wire).  Raises :class:`RuntimeError` when every
    worker has died with leases outstanding.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if lease_blocks < 1:
        raise ValueError("lease_blocks must be at least 1")
    _check_fleet_args(workers, connect, worker_timeout, lease_depth)
    if getattr(getattr(generator, "parameters", None), "to_json", None) is None:
        raise ValueError(
            "the distributed backend serialises the generator by its "
            "parameters; it needs generator.parameters.to_json()"
        )
    factories = _resolve_factories(reducers, quantiles)
    plan = _build_plan(
        DISTRIBUTED_PLAN_KIND, generator, when, size, as_seed_sequence(rng),
        "csv", chunk_size, factories, manifest_name, lease_blocks=lease_blocks,
        # Raises ValueError on a factory that cannot travel the wire.
        reducer_args=_wire_reducer_args(factories),
    )
    out_dir = os.path.abspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    # A fresh run owns the directory: clear every earlier run's resume
    # state, whatever its backend, then pin the plan.
    _clear_resume_state(out_dir)
    _write_json_atomic(os.path.join(out_dir, DISTRIBUTED_PLAN_NAME), plan)
    return _run_distributed(
        generator, plan, out_dir, factories, {}, workers, list(connect),
        worker_timeout, lease_depth, start_method, token, metrics_path,
    )


def _check_fleet_args(workers, connect, worker_timeout, lease_depth) -> None:
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if workers + len(connect) < 1:
        raise ValueError("need at least one worker (workers >= 1 or connect=...)")
    if worker_timeout <= 0:
        raise ValueError("worker_timeout must be positive")
    if lease_depth < 1:
        raise ValueError("lease_depth must be at least 1")


def resume_fleet_distributed(
    generator,
    out_dir: str,
    workers: int = 2,
    connect: "list[tuple[str, int]] | tuple" = (),
    worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    start_method: "str | None" = None,
    lease_depth: int = DEFAULT_LEASE_DEPTH,
    token: "str | None" = None,
    metrics_path: "str | None" = None,
) -> DistributedExportResult:
    """Finish an interrupted distributed export byte-identically.

    Reads the run parameters from :data:`DISTRIBUTED_PLAN_NAME` (size,
    date, seed, lease grid and reducer set all come from the plan, not
    the caller), restores every lease recorded in
    :data:`DISTRIBUTED_LEASE_LOG` whose block files still verify, and
    re-leases only the incomplete ranges to a fresh worker fleet.  The
    finalised manifest, payload bytes and merged statistics are identical
    to an uninterrupted run.  Raises :class:`StateError` when there is
    nothing to resume or the plan/checkpoints are corrupt, mismatched
    with ``generator``, or wrong-versioned.
    """
    _check_fleet_args(workers, connect, worker_timeout, lease_depth)
    out_dir = os.path.abspath(out_dir)
    plan, _ = _load_plan(
        out_dir, DISTRIBUTED_PLAN_NAME, DISTRIBUTED_PLAN_KIND, generator,
        ("csv",), {"lease_blocks": 1},
    )
    try:
        factories = _wire_factories(plan["reducers"], plan.get("reducer_args", {}))
    except ValueError as error:
        raise StateError(f"distributed plan reducers are malformed: {error}")
    leases = dict(_lease_ranges(block_count(plan["size"]), plan["lease_blocks"]))
    completed = {}
    for run in _read_checkpoint_log(
        os.path.join(out_dir, DISTRIBUTED_LEASE_LOG),
        {lo: (hi, 0) for lo, hi in leases.items()}, factories, plan["size"], "csv",
    ).values():
        if run.hi != leases[run.lo]:
            raise StateError(
                f"lease checkpoint [{run.lo}, {run.hi}) does not cover its "
                "lease of the plan's lease grid"
            )
        # A lease whose block files vanished or rotted is re-run.
        if all(run.intact):
            completed[(run.lo, run.hi)] = run
    return _run_distributed(
        generator, plan, out_dir, factories, completed, workers, list(connect),
        worker_timeout, lease_depth, start_method, token, metrics_path,
    )


def _run_distributed(
    generator, plan, out_dir, factories, completed, workers, connect,
    worker_timeout, lease_depth, start_method, token, metrics_path,
) -> DistributedExportResult:
    """Shared core of fresh and resumed distributed exports: run the
    coordinator over the pending leases, then finalise manifest,
    statistics and metrics."""
    job = {key: plan[key] for key in _JOB_FIELDS}
    job.update(
        type="job",
        protocol=PROTOCOL_VERSION,
        params=generator.parameters.to_json(),
        worker_timeout=worker_timeout,
        lease_depth=lease_depth,
    )
    if token is not None:
        job["token"] = token
    size, resumed_leases = plan["size"], len(completed)
    leases = _lease_ranges(block_count(size), plan["lease_blocks"])
    coordinator = _Coordinator(
        job,
        leases,
        out_dir,
        factories,
        size,
        worker_timeout,
        token=token,
        lease_depth=lease_depth,
        completed=completed,
    )

    start = time.perf_counter()
    listener = None
    try:
        if coordinator.pending:
            if workers:
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.bind(("127.0.0.1", 0))
                listener.listen(workers)
                port = listener.getsockname()[1]
                # Fork the worker processes *before* starting any
                # coordinator threads — forking a threaded process is the
                # deadlock _pool_context exists to avoid.  Healthy runs go
                # through the persistent pool (workers already warm after
                # the first fan-out); fault injection — of a worker *or*
                # of this coordinator — keeps raw processes, because a
                # process that SIGKILLs itself (or loses its parent to
                # SIGKILL) would poison a pool that outlives this call.
                if not plan_is_active() and persistence_enabled():
                    pool = get_pool(workers, start_method)
                    for _ in range(workers):
                        coordinator.processes.append(
                            _PooledWorkerHandle(
                                pool,
                                pool.apply_async(
                                    _local_worker_main, ("127.0.0.1", port, token)
                                ),
                            )
                        )
                else:
                    context = _pool_context(start_method)
                    inherited = (
                        listener if context.get_start_method() == "fork" else None
                    )
                    for _ in range(workers):
                        process = context.Process(
                            target=_local_worker_main,
                            args=("127.0.0.1", port, token, inherited),
                            daemon=True,
                        )
                        process.start()
                        coordinator.processes.append(process)
                threading.Thread(
                    target=coordinator._accept_loop, args=(listener,), daemon=True
                ).start()
            # Opened only now that every local worker exists, so no forked
            # worker inherits a descriptor of the log it must never write.
            coordinator.checkpoint_log = open(
                os.path.join(out_dir, DISTRIBUTED_LEASE_LOG), "ab"
            )
            for host, port in connect:
                sock = _dial(host, port, SITE_CONNECT_DIAL, timeout=worker_timeout)
                sock.settimeout(None)
                coordinator.attach(sock, f"tcp-{host}:{port}", local=False)
            coordinator.run()
    finally:
        if coordinator.checkpoint_log is not None:
            coordinator.checkpoint_log.close()
        if listener is not None:
            listener.close()
        for remote in coordinator.remotes:
            try:
                remote.sock.close()
            except OSError:
                pass
        for process in coordinator.processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
    elapsed = time.perf_counter() - start

    # Workers report each block file's sha256; the finaliser re-hashes
    # every file against it before trusting the export.
    manifest, statistics = _finalise_blocks(
        generator, plan, out_dir, factories, coordinator.completed.values(),
        elapsed, max(1, coordinator.workers_seen), check_files=True,
    )
    metrics = make_envelope(
        DISTRIBUTED_METRICS_KIND,
        DISTRIBUTED_STATE_VERSION,
        {
            "elapsed_seconds": elapsed,
            "size": size,
            "lease_blocks": plan["lease_blocks"],
            "lease_depth": lease_depth,
            "leases_total": len(leases),
            "leases_run": len(coordinator.completed) - resumed_leases,
            "resumed_leases": resumed_leases,
            "workers_seen": coordinator.workers_seen,
            "requeued_leases": coordinator.requeued,
            "stolen_leases": coordinator.stolen,
            "drained_workers": coordinator.drained,
            "heartbeat_gap_bucket_seconds": list(HEARTBEAT_GAP_BUCKETS),
            "workers": coordinator.worker_metrics,
            "leases": sorted(
                coordinator.lease_events,
                key=lambda event: (event["block_lo"], event["block_hi"]),
            ),
        },
    )
    if metrics_path is not None:
        _write_json_atomic(os.path.abspath(metrics_path), metrics)
    return DistributedExportResult(
        manifest=manifest,
        statistics=statistics,
        workers=coordinator.workers_seen,
        reassigned_leases=coordinator.requeued + coordinator.stolen,
        metrics=metrics,
        resumed_leases=resumed_leases,
    )
