"""Sharded fleet export: verifiable manifests, checkpoints and resume.

``generate_sharded`` reduces a fleet to statistics; this module *exports*
one beyond a single process.  The host index space is split into
contiguous runs of RNG blocks, one per shard; each worker process writes
its run to a segment file (CSV rows or NPZ columns) and the parent records
a JSON manifest with per-segment sha256 digests, block ranges and row
ranges.

Two segment layouts share the manifest schema:

``layout="shard"`` (:func:`export_fleet`)
    One segment per shard — the compact archival layout.
``layout="block"`` (:func:`export_fleet_blocks`)
    One segment per RNG block, plus periodic reducer-state checkpoints,
    so a killed export loses at most ``checkpoint_every`` blocks of work.
    Each shard worker appends one ``FleetLeaseCheckpoint`` line per
    checkpoint to its own ``checkpoint-SSSS.jsonl`` — the blocks since
    its previous line plus the reducer state so far; the distributed
    backend logs the same record once per lease.
    :func:`resume_export` validates the partial manifest, reads the
    shard logs (dropping a torn final line), verifies digests, restores
    reducer state through the ``to_state``/``from_state`` contract and
    regenerates only the missing blocks — producing a manifest, payload
    bytes and statistics identical to an uninterrupted run (the
    per-block ``SeedSequence.spawn`` contract makes regenerated blocks
    byte-identical, and checkpoint cadence is a run parameter so sketch
    compression points line up too).
    :func:`compact_export` merges a completed block layout back into the
    per-shard layout byte-identically (CSV).

Because segments cover contiguous block ranges and blocks own the random
streams (the :mod:`~repro.engine.streaming` determinism contract), the
byte concatenation of the CSV segments in manifest order is identical to
the *row payload* a single-process export of the same ``(parameters,
date, size, seed)`` fleet writes — for *any* shard count.  Segments carry
no CSV header (it is recorded once in the manifest's ``header`` field);
prepend it to the concatenation to reproduce a ``fleet --out`` file byte
for byte.  The manifest pins the equivalence with two digests:

``payload_sha256``
    sha256 over the segment files' bytes, concatenated in manifest order
    (for CSV this is the digest of the single-process row payload).
``fleet_sha256``
    the format-independent per-block row-digest chain of
    :func:`~repro.engine.streaming.fleet_digest`.

``verify_manifest`` re-hashes the segment files against the manifest and
is surfaced as ``fleet verify`` in the CLI.
"""

from __future__ import annotations

import base64
import datetime as _dt
import hashlib
import io
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.engine.csvfmt import encode_csv_rows
from repro.engine.pool import BlockBuffer, create_block_buffer, pool_map
from repro.engine.reduce import ChunkedFold, ReducerFactory, ReducerSet
from repro.engine.retry import WRITE_RETRY
from repro.faults.injector import fire as _fire
from repro.faults.sites import (
    SITE_BLOCK_DONE,
    SITE_BLOCK_WRITE,
    SITE_CHECKPOINT_FSYNC,
    SITE_CHECKPOINT_WRITE,
    SITE_MANIFEST_WRITE,
    SITE_SEGMENT_WRITE,
)
from repro.engine.sharding import (
    FleetStatistics,
    _resolve_factories,
    _when_as_float,
)
from repro.engine.streaming import (
    DEFAULT_CHUNK_SIZE,
    RNG_BLOCK_SIZE,
    as_seed_sequence,
    block_count,
    block_seeds,
    combine_block_digests,
    population_digest,
)
from repro.engine.table import (
    HOST_CSV_FMT,
    HOST_CSV_HEADER,
    HOST_SCHEMA,
    TableSchema,
    block_schema,
    generator_schema,
)
from repro.hosts.population import RESOURCE_LABELS
from repro.stats.state import StateError, make_envelope, require_state

#: Manifest schema version.  Bump only on changes a version-1 reader of
#: *this* module cannot tolerate; fields with dataclass defaults
#: (``bytes``, ``layout``, ``checkpoint_every``) are version-1-compatible
#: additions — current readers accept manifests written without them, and
#: bumping would wrongly reject every previously published manifest.
MANIFEST_VERSION = 1

#: The columnar binary format: one contiguous ``.npy`` array per resource
#: column (see :func:`read_columnar_export`).  Unlike ``npz``, plain
#: ``.npy`` bytes are deterministic (no zip timestamps), so columnar
#: payload digests pin like CSV ones.
COLUMNAR_FORMAT = "npz-columnar"

#: Supported segment formats.
FORMATS = ("csv", "npz", COLUMNAR_FORMAT)

#: Formats a *per-shard or per-block row-segment* writer can produce;
#: the columnar layout has its own whole-column writer.
ROW_SEGMENT_FORMATS = ("csv", "npz")


#: Rows rendered per encoder call in :func:`write_population_csv` —
#: bounds peak string memory and keeps each call's working set cache-sized.
_CSV_WRITE_CHUNK = 65536


def write_population_csv(population, handle) -> None:
    """Append a population's rows to an open text or binary handle.

    Rendering goes through the vectorised
    :func:`~repro.engine.csvfmt.encode_csv_rows` encoder — byte-identical
    to the ``np.savetxt`` form this replaced (the export goldens pin it),
    several times faster.
    """
    matrix = population.to_matrix()
    csv_fmt = block_schema(population).csv_fmt
    text = isinstance(handle, io.TextIOBase) or (
        not isinstance(handle, (io.RawIOBase, io.BufferedIOBase))
        and getattr(handle, "encoding", None) is not None
    )
    for lo in range(0, matrix.shape[0], _CSV_WRITE_CHUNK):
        data = encode_csv_rows(matrix[lo : lo + _CSV_WRITE_CHUNK], csv_fmt)
        handle.write(data.decode("ascii") if text else data)


def _hash_file_into(path: str, *hashes) -> None:
    """Stream a file through one or more hash objects in 1 MiB pieces.

    Verification-oriented: the write paths hash bytes *as they produce
    them*, so this re-read only runs where a single hash must span bytes
    several processes wrote (multi-shard payload digests), on resume
    (checking blocks an interrupted run left behind) and in
    :func:`verify_manifest`.
    """
    with open(path, "rb") as handle:
        for piece in iter(lambda: handle.read(1 << 20), b""):
            for digest in hashes:
                digest.update(piece)


@dataclass(frozen=True)
class SegmentRecord:
    """One segment file (a shard's run, or a single block) within an export.

    ``bytes`` is the exact file size; ``-1`` marks manifests written
    before the field existed, where the size check is skipped.
    """

    path: str
    shard: int
    block_lo: int
    block_hi: int
    row_lo: int
    row_hi: int
    sha256: str
    bytes: int = -1


@dataclass(frozen=True)
class FleetManifest:
    """The verifiable description of a sharded fleet export."""

    version: int
    format: str
    size: int
    when: float
    entropy: str
    spawn_key: "tuple[int, ...]"
    shards: int
    block_size: int
    header: str
    payload_sha256: str
    fleet_sha256: str
    segments: "tuple[SegmentRecord, ...]" = field(default_factory=tuple)
    #: ``"shard"`` (one segment per worker) or ``"block"`` (one per RNG
    #: block, the resumable layout).
    layout: str = "shard"
    #: Reducer-checkpoint cadence of a block-layout run (0 = none).
    checkpoint_every: int = 0

    def to_json(self) -> str:
        payload = asdict(self)
        payload["segments"] = [asdict(s) for s in self.segments]
        payload["spawn_key"] = list(self.spawn_key)
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetManifest":
        payload = json.loads(text)
        segments = tuple(SegmentRecord(**s) for s in payload.pop("segments"))
        payload["spawn_key"] = tuple(payload["spawn_key"])
        return cls(segments=segments, **payload)

    def save(self, path: str) -> None:
        data = (self.to_json() + "\n").encode("utf-8")
        _fire(SITE_MANIFEST_WRITE, path=path, data=data)
        with open(path, "wb") as handle:
            handle.write(data)

    @classmethod
    def load(cls, path: str) -> "FleetManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def shard_block_ranges(n_blocks: int, shards: int) -> "list[tuple[int, int]]":
    """Split ``[0, n_blocks)`` into ``shards`` contiguous, balanced runs.

    Contiguity is what makes segment concatenation equal the sequential
    stream — round-robin placement (as the statistics fan-out uses) would
    interleave rows.  Every run differs in length by at most one block.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, max(1, n_blocks))
    base, extra = divmod(n_blocks, shards)
    ranges: "list[tuple[int, int]]" = []
    lo = 0
    for shard in range(shards):
        hi = lo + base + (1 if shard < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _segment_name(shard: int, fmt: str) -> str:
    return f"segment-{shard:04d}.{fmt}"


def _write_segment(payload: tuple):
    """Worker: generate blocks ``[block_lo, block_hi)`` and write one segment.

    Returns ``(shard, file_sha256, block_digests)``; module-level so it
    pickles under fork and spawn alike.
    """
    generator, when, size, root, shard, block_lo, block_hi, fmt, out_dir = payload
    schema = generator_schema(generator)
    seeds = block_seeds(root, size)
    path = os.path.join(out_dir, _segment_name(shard, fmt))
    digests: "list[tuple[int, bytes]]" = []
    file_hash = hashlib.sha256()

    try:
        if fmt == "csv":
            with open(path, "wb") as handle:
                for index in range(block_lo, block_hi):
                    lo = index * RNG_BLOCK_SIZE
                    block = generator.generate(
                        when,
                        min(RNG_BLOCK_SIZE, size - lo),
                        np.random.default_rng(seeds[index]),
                    )
                    digests.append((index, bytes.fromhex(population_digest(block))))
                    # The vectorised encoder reproduces the historical
                    # np.savetxt bytes exactly, so segment bytes stay
                    # identical to the CLI's sequential export; hashing the
                    # in-memory data as it is written spares a re-read.
                    data = encode_csv_rows(block.to_matrix(), schema.csv_fmt)
                    _fire(SITE_SEGMENT_WRITE, path=path)
                    handle.write(data)
                    file_hash.update(data)
        elif fmt == "npz":
            # Preallocate the segment's columns and fill block by block, so
            # peak working memory stays one block above the (unavoidable for a
            # single .npy entry) segment arrays rather than 2x the segment.
            row_lo = min(block_lo * RNG_BLOCK_SIZE, size)
            row_hi = min(block_hi * RNG_BLOCK_SIZE, size)
            columns = {
                label: np.empty(row_hi - row_lo) for label in schema.labels
            }
            for index in range(block_lo, block_hi):
                lo = index * RNG_BLOCK_SIZE
                block = generator.generate(
                    when,
                    min(RNG_BLOCK_SIZE, size - lo),
                    np.random.default_rng(seeds[index]),
                )
                digests.append((index, bytes.fromhex(population_digest(block))))
                offset = lo - row_lo
                _fire(SITE_SEGMENT_WRITE, path=path)
                for label in schema.labels:
                    columns[label][offset : offset + len(block)] = block.column(label)
            np.savez(path, **columns)
            _hash_file_into(path, file_hash)
        else:
            raise ValueError(
                f"unknown segment format {fmt!r}; supported: {ROW_SEGMENT_FORMATS}"
            )
    except BaseException:
        # A worker dying mid-segment must not leave a half-written file
        # for the next export (or a verify) to trip over.  SIGKILL still
        # leaves one behind — describe_export_dir names it then.
        _remove_quiet(path)
        raise

    return shard, file_hash.hexdigest(), digests


def export_fleet(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    out_dir: str,
    shards: int = 1,
    fmt: str = "csv",
    manifest_name: str = "manifest.json",
    start_method: "str | None" = None,
) -> FleetManifest:
    """Export a fleet as per-shard segments plus a manifest.

    ``shards`` workers each write one contiguous-block segment; the
    manifest (written to ``out_dir/manifest_name``) records per-segment
    sha256 digests, block and row ranges, and the two fleet digests
    described in the module docstring.  NPZ files embed zip metadata, so
    only CSV segments carry the byte-concatenation guarantee; the
    ``fleet_sha256`` row-digest chain identifies the fleet in either
    format.

    ``fmt=`` :data:`COLUMNAR_FORMAT` switches to the columnar binary
    layout (one contiguous ``.npy`` per resource column, written by the
    parent from worker rows handed over shared memory) — see
    :func:`read_columnar_export` for the decode side.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if fmt not in FORMATS:
        raise ValueError(f"unknown segment format {fmt!r}; supported: {FORMATS}")
    root = as_seed_sequence(rng)
    os.makedirs(out_dir, exist_ok=True)
    if fmt == COLUMNAR_FORMAT:
        return _export_fleet_columnar(
            generator, when, size, root, out_dir, shards, manifest_name,
            start_method,
        )
    n_blocks = block_count(size)
    ranges = shard_block_ranges(n_blocks, shards)
    payloads = [
        (generator, when, size, root, shard, lo, hi, fmt, out_dir)
        for shard, (lo, hi) in enumerate(ranges)
    ]

    in_process = len(payloads) == 1
    if in_process:
        results = [_write_segment(payloads[0])]
    else:
        results = pool_map(_write_segment, payloads, len(payloads), start_method)
    results.sort(key=lambda item: item[0])

    # The payload digest spans every segment's bytes in manifest order.
    # With one segment it *is* that segment's digest (hashed as the bytes
    # were written); only a multi-shard export needs the verify-style
    # re-read, because a single sha256 cannot be assembled from the
    # per-worker digests.
    payload_hash = hashlib.sha256()
    segments: "list[SegmentRecord]" = []
    all_digests: "list[tuple[int, bytes]]" = []
    for (shard, file_sha, digests), (lo, hi) in zip(results, ranges):
        name = _segment_name(shard, fmt)
        path = os.path.join(out_dir, name)
        if not in_process:
            _hash_file_into(path, payload_hash)
        segments.append(
            SegmentRecord(
                path=name,
                shard=shard,
                block_lo=lo,
                block_hi=hi,
                row_lo=min(lo * RNG_BLOCK_SIZE, size),
                row_hi=min(hi * RNG_BLOCK_SIZE, size),
                sha256=file_sha,
                bytes=os.path.getsize(path),
            )
        )
        all_digests.extend(digests)

    manifest = FleetManifest(
        version=MANIFEST_VERSION,
        format=fmt,
        size=size,
        when=_when_as_float(when),
        entropy=str(root.entropy),
        spawn_key=tuple(int(k) for k in root.spawn_key),
        shards=len(ranges),
        block_size=RNG_BLOCK_SIZE,
        header=generator_schema(generator).csv_header if fmt == "csv" else "",
        payload_sha256=segments[0].sha256 if in_process else payload_hash.hexdigest(),
        fleet_sha256=combine_block_digests(all_digests),
        segments=tuple(segments),
    )
    manifest.save(os.path.join(out_dir, manifest_name))
    return manifest


# -- columnar binary export --------------------------------------------------


class _HashingWriter:
    """File-like tee: forwards every write and folds the bytes into one
    or more running hashes, so column files are digested as they are
    written rather than re-read."""

    def __init__(self, handle, *hashes):
        self._handle = handle
        self._hashes = hashes

    def write(self, data) -> int:
        self._handle.write(data)
        for digest in self._hashes:
            digest.update(data)
        return len(data)


def _column_name(index: int, label: str) -> str:
    return f"column-{index}-{label}.npy"


def _fill_columnar_rows(payload: tuple):
    """Worker: generate blocks ``[block_lo, block_hi)`` into the shared
    row matrix (or a local one where shared memory is unavailable).

    ``handle`` is a :class:`~repro.engine.pool.BlockBuffer` attach token
    for the parent's ``(size, n_resources)`` matrix — rows are written in
    place at their absolute offsets and nothing but the small digest list
    returns through the pool.  With ``handle=None`` (pickling fallback,
    or the in-process single-shard path) the worker materialises its own
    row range and returns it as the third tuple element.
    """
    generator, when, size, root, shard, block_lo, block_hi, handle = payload
    seeds = block_seeds(root, size)
    row_lo = min(block_lo * RNG_BLOCK_SIZE, size)
    row_hi = min(block_hi * RNG_BLOCK_SIZE, size)
    buffer = None
    if handle is not None:
        buffer = BlockBuffer.attach(handle)
        target = buffer.array
    else:
        target = np.empty((row_hi - row_lo, generator_schema(generator).width))
    digests: "list[tuple[int, bytes]]" = []
    try:
        for index in range(block_lo, block_hi):
            lo = index * RNG_BLOCK_SIZE
            block = generator.generate(
                when,
                min(RNG_BLOCK_SIZE, size - lo),
                np.random.default_rng(seeds[index]),
            )
            matrix = block.to_matrix()
            # Same bytes population_digest hashes — reusing the stacked
            # matrix spares a second column_stack per block.
            digests.append((index, hashlib.sha256(matrix.tobytes()).digest()))
            at = lo if handle is not None else lo - row_lo
            target[at : at + len(block)] = matrix
    finally:
        if buffer is not None:
            buffer.close()
    return shard, digests, None if handle is not None else target


def _export_fleet_columnar(
    generator, when, size, root, out_dir, shards, manifest_name, start_method
) -> FleetManifest:
    """Write a fleet as one contiguous ``.npy`` file per resource column.

    Workers generate contiguous block ranges straight into one
    shared-memory row matrix (:class:`~repro.engine.pool.BlockBuffer`;
    pickled row slabs where shared memory is unavailable), then the
    parent serialises each column once, hashing the bytes as they are
    written.  ``.npy`` v1.0 bytes are a pure function of dtype, shape
    and data, so ``payload_sha256`` pins the columnar export exactly as
    it pins CSV — and is identical for every shard count.  The
    manifest's ``header`` records the column order (the CSV header
    names); each segment's ``shard`` field is the column index.
    """
    schema = generator_schema(generator)
    n_blocks = block_count(size)
    ranges = shard_block_ranges(n_blocks, shards)
    buffer = None
    handle = None
    if len(ranges) > 1:
        buffer = create_block_buffer((size, schema.width))
        handle = None if buffer is None else buffer.handle()
    payloads = [
        (generator, when, size, root, shard, lo, hi, handle)
        for shard, (lo, hi) in enumerate(ranges)
    ]
    try:
        if len(payloads) == 1:
            results = [_fill_columnar_rows(payloads[0])]
        else:
            results = pool_map(
                _fill_columnar_rows, payloads, len(payloads), start_method
            )
        results.sort(key=lambda item: item[0])
        if buffer is not None:
            matrix = buffer.array
        elif len(results) == 1:
            matrix = results[0][2]
        else:
            # Pickling fallback: stitch the returned row slabs together.
            matrix = np.empty((size, schema.width))
            for (_, _, slab), (lo, hi) in zip(results, ranges):
                matrix[min(lo * RNG_BLOCK_SIZE, size):
                       min(hi * RNG_BLOCK_SIZE, size)] = slab

        payload_hash = hashlib.sha256()
        segments: "list[SegmentRecord]" = []
        for column, label in enumerate(schema.labels):
            name = _column_name(column, label)
            path = os.path.join(out_dir, name)
            file_hash = hashlib.sha256()
            with open(path, "wb") as out:
                np.lib.format.write_array(
                    _HashingWriter(out, file_hash, payload_hash),
                    np.ascontiguousarray(matrix[:, column]),
                    version=(1, 0),
                )
            segments.append(
                SegmentRecord(
                    path=name,
                    shard=column,
                    block_lo=0,
                    block_hi=n_blocks,
                    row_lo=0,
                    row_hi=size,
                    sha256=file_hash.hexdigest(),
                    bytes=os.path.getsize(path),
                )
            )
    finally:
        if buffer is not None:
            buffer.unlink()

    all_digests = [entry for _, digests, _ in results for entry in digests]
    manifest = FleetManifest(
        version=MANIFEST_VERSION,
        format=COLUMNAR_FORMAT,
        size=size,
        when=_when_as_float(when),
        entropy=str(root.entropy),
        spawn_key=tuple(int(k) for k in root.spawn_key),
        shards=len(ranges),
        block_size=RNG_BLOCK_SIZE,
        header=schema.csv_header,
        payload_sha256=payload_hash.hexdigest(),
        fleet_sha256=combine_block_digests(all_digests),
        segments=tuple(segments),
        layout="columnar",
    )
    manifest.save(os.path.join(out_dir, manifest_name))
    return manifest


def read_columnar_export(manifest_path: str) -> "tuple[FleetManifest, dict]":
    """Decode a columnar export: ``(manifest, {label: column ndarray})``.

    Validates the manifest's format, the per-column file names against
    the canonical :data:`~repro.hosts.population.RESOURCE_LABELS` order
    and every decoded array's shape, raising :class:`ValueError` on any
    mismatch.  Byte integrity is :func:`verify_manifest`'s job; this
    reader checks *structure* so a verified export always decodes.
    """
    manifest = FleetManifest.load(manifest_path)
    if manifest.format != COLUMNAR_FORMAT:
        raise ValueError(
            f"manifest {manifest_path} is a {manifest.format!r} export, "
            f"not {COLUMNAR_FORMAT!r}"
        )
    if manifest.header == HOST_CSV_HEADER:
        labels: "tuple[str, ...]" = RESOURCE_LABELS
    else:
        # Scenario exports: the manifest header orders the columns and the
        # segment file names carry the labels (column-<i>-<label>.npy).
        labels = tuple(
            segment.path[len(f"column-{index}-"):-len(".npy")]
            if segment.path.startswith(f"column-{index}-")
            and segment.path.endswith(".npy")
            else ""
            for index, segment in enumerate(manifest.segments)
        )
        if "" in labels:
            raise ValueError(
                f"columnar manifest {manifest_path} has a segment that is "
                "not the expected file for column its position names"
            )
        if len(labels) != len(manifest.header.strip("\n").split(",")):
            raise ValueError(
                f"columnar manifest {manifest_path} lists {len(labels)} "
                "segment(s); expected one per header column"
            )
    if len(manifest.segments) != len(labels):
        raise ValueError(
            f"columnar manifest {manifest_path} lists "
            f"{len(manifest.segments)} segment(s); expected one per "
            f"resource column {labels}"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    columns: "dict[str, np.ndarray]" = {}
    for index, (segment, label) in enumerate(zip(manifest.segments, labels)):
        if segment.path != _column_name(index, label):
            raise ValueError(
                f"columnar manifest {manifest_path} segment {segment.path!r} "
                f"is not the expected file for column {label!r}"
            )
        array = np.load(os.path.join(base, segment.path), allow_pickle=False)
        if array.shape != (manifest.size,):
            raise ValueError(
                f"column {label!r} decodes to shape {array.shape}; expected "
                f"({manifest.size},)"
            )
        columns[label] = array
    return manifest, columns


# -- resumable block-layout export ------------------------------------------
#
# Both resume paths — this block layout and the distributed backend — share
# one on-disk protocol, so the two cannot drift in how they persist,
# validate or distrust on-disk state:
#
# * a plan file pinning the run (`_build_plan`, read back by `_load_plan`);
# * append-only checkpoint logs of `FleetLeaseCheckpoint` lines, one writer
#   per file (`_append_checkpoint`, read back by `_read_checkpoint_log`,
#   which re-verifies block files through `_read_matching_block`);
# * one finaliser (`_finalise_blocks`) that writes the manifest and removes
#   every plan and log (`_clear_resume_state`).

#: The partial-manifest file a resumable export writes before any segment;
#: its presence (without a final manifest) marks an interrupted run.
PLAN_NAME = "manifest.partial.json"

#: The distributed backend's plan file.  Named distinctly from
#: :data:`PLAN_NAME` so :func:`resume_export` and
#: ``resume_fleet_distributed`` cannot mistake one another's layouts.
DISTRIBUTED_PLAN_NAME = "distributed-plan.json"

#: The distributed coordinator's checkpoint log (one line per lease).
DISTRIBUTED_LEASE_LOG = "distributed-leases.jsonl"

#: Schema version of plan and checkpoint-line payloads.
CHECKPOINT_STATE_VERSION = 1

#: Envelope kinds of the block-layout plan and of every checkpoint line.
EXPORT_PLAN_KIND = "FleetExportPlan"
LEASE_CHECKPOINT_KIND = "FleetLeaseCheckpoint"


@dataclass
class BlockExportResult:
    """Outcome of a block-layout export or resume.

    ``statistics`` carries the run's merged reducers (``None`` only when
    :func:`resume_export` found the export already finalised — the
    checkpoints holding reducer state are removed on success).
    ``resumed_blocks`` counts blocks restored from checkpoints rather
    than generated (0 on an uninterrupted run).
    """

    manifest: FleetManifest
    statistics: "FleetStatistics | None"
    resumed_blocks: int


@dataclass
class _BlockRun:
    """Blocks ``[lo, hi)`` of one checkpoint chain — a block-layout shard
    or a distributed lease: their segment records, row digests and the
    reducer state folded over exactly those blocks.  ``intact`` (restored
    runs only) flags the records whose block files still verify."""

    lo: int
    hi: int
    records: "list[SegmentRecord]"
    digests: "list[tuple[int, bytes]]"
    reducers: "ReducerSet | None"
    intact: "list[bool] | None" = None


def _block_name(index: int, fmt: str) -> str:
    return f"block-{index:06d}.{fmt}"


def _block_record(index, size, fmt, shard, sha256, nbytes) -> SegmentRecord:
    return SegmentRecord(
        path=_block_name(index, fmt),
        shard=shard,
        block_lo=index,
        block_hi=index + 1,
        row_lo=min(index * RNG_BLOCK_SIZE, size),
        row_hi=min((index + 1) * RNG_BLOCK_SIZE, size),
        sha256=sha256,
        bytes=nbytes,
    )


def _shard_log(out_dir: str, shard: int) -> str:
    """Path of a block-layout shard's checkpoint log."""
    return os.path.join(out_dir, f"checkpoint-{shard:04d}.jsonl")


def _write_json_atomic(
    path: str, payload: dict, fault_site: "str | None" = None
) -> None:
    """Write JSON via a temp file + rename, so a kill never half-writes it.

    ``fault_site`` makes the write an injection site and fsyncs the temp
    file before the rename (plain plan/metrics writes skip the barrier —
    losing one costs nothing a rerun doesn't fix).
    """
    tmp = path + ".tmp"
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fault_site is not None:
        _fire(fault_site, path=tmp, data=data)
    with open(tmp, "wb") as handle:
        handle.write(data)
        if fault_site is not None:
            handle.flush()
            _fire(SITE_CHECKPOINT_FSYNC)
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def _remove_quiet(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


def _clear_resume_state(out_dir: str) -> None:
    """Remove every plan and checkpoint log of *both* resumable layouts.

    A fresh export of either backend starts here and every finalised one
    ends here, so no earlier run's state — whatever its backend or shard
    count — can survive to hijack a later ``--resume``.
    """
    for name in os.listdir(out_dir):
        if name in (PLAN_NAME, DISTRIBUTED_PLAN_NAME, DISTRIBUTED_LEASE_LOG) or (
            name.startswith("checkpoint-") and name.endswith(".jsonl")
        ):
            _remove_quiet(os.path.join(out_dir, name))


def describe_export_dir(out_dir: str) -> "str | None":
    """An actionable hint about what a non-empty export directory holds.

    The CLI appends this to its refusal to export into a non-empty
    ``--out-dir``, so "the directory is not empty" becomes "that is your
    own interrupted export — here is the flag that finishes it".
    Returns ``None`` when the leftovers look like nothing this engine
    wrote.
    """
    try:
        entries = set(os.listdir(out_dir))
    except OSError:
        return None
    if PLAN_NAME in entries:
        return (
            "this looks like an interrupted resumable export — pass "
            "--resume to finish it, or --force to start over"
        )
    if DISTRIBUTED_PLAN_NAME in entries:
        return (
            "this looks like an interrupted distributed export — pass "
            "--backend distributed --resume to finish it, or --force to "
            "start over"
        )
    if "manifest.json" in entries:
        return (
            "this looks like a completed export — verify it with `fleet "
            "verify`, choose a fresh --out-dir, or pass --force to "
            "overwrite it"
        )
    if any(entry.startswith(("segment-", "block-")) for entry in entries):
        return (
            "these look like partial segments from an export that died "
            "mid-write (no resume plan survives); delete the directory "
            "or pass --force to overwrite them"
        )
    return None


def _generator_fingerprint(generator) -> "str | None":
    """sha256 of the generator's parameter JSON (None if it has none).

    Pinned into the export plan so a resume with different model
    parameters fails loudly instead of silently splicing two fleets into
    one self-consistent-looking manifest.
    """
    to_json = getattr(getattr(generator, "parameters", None), "to_json", None)
    if to_json is None:
        return None
    return hashlib.sha256(to_json().encode("utf-8")).hexdigest()


def _wire_name(generator) -> str:
    return getattr(generator, "wire_name", "CorrelatedHostGenerator")


def _build_plan(
    kind, generator, when, size, root, fmt, chunk_size, factories,
    manifest_name, **grid,
) -> dict:
    """The plan envelope pinning a resumable run; ``grid`` carries the
    layout's own scheduling fields (shards and checkpoint cadence, or
    lease size and wire reducer arguments)."""
    return make_envelope(
        kind,
        CHECKPOINT_STATE_VERSION,
        {
            "version": MANIFEST_VERSION,
            "format": fmt,
            "size": size,
            "when": _when_as_float(when),
            "entropy": str(root.entropy),
            "spawn_key": [int(k) for k in root.spawn_key],
            "block_size": RNG_BLOCK_SIZE,
            "chunk_size": chunk_size,
            "manifest_name": manifest_name,
            "reducers": sorted(factories),
            "generator": _wire_name(generator),
            "generator_sha256": _generator_fingerprint(generator),
            **grid,
        },
    )


def _load_plan(
    out_dir: str, name: str, kind: str, generator, formats, grid: dict
) -> "tuple[dict, np.random.SeedSequence]":
    """Read and validate a resumable export's plan: ``(plan, root seed)``.

    The one plan check both resume paths share.  ``grid`` maps the
    layout's extra integer fields to their minimums; everything else a
    resume consumes blindly is checked here, so every corruption or
    mismatch surfaces as a :class:`~repro.stats.state.StateError`.
    """
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        raise StateError(
            f"nothing to resume in {out_dir}: no {name} (not an interrupted "
            "export of this layout, or it already finalised)"
        )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
    except (OSError, ValueError) as error:
        raise StateError(f"cannot read export plan {path}: {error}")
    if not isinstance(plan, dict):
        raise StateError(f"export plan {path} is not a JSON object")
    if plan.get("kind") != kind or (
        plan.get("state_version") != CHECKPOINT_STATE_VERSION
    ):
        raise StateError(
            f"export plan {path} has kind {plan.get('kind')!r} / "
            f"state_version {plan.get('state_version')!r}; expected "
            f"{kind} v{CHECKPOINT_STATE_VERSION}"
        )
    if plan.get("version") != MANIFEST_VERSION:
        raise StateError(
            f"export plan {path} targets manifest version "
            f"{plan.get('version')!r}, not the supported {MANIFEST_VERSION}"
        )
    if plan.get("block_size") != RNG_BLOCK_SIZE:
        raise StateError(
            f"export plan {path} used RNG block size "
            f"{plan.get('block_size')!r}; this build generates "
            f"{RNG_BLOCK_SIZE} and cannot reproduce its blocks"
        )
    for field_name, minimum in {"size": 0, "chunk_size": 1, **grid}.items():
        value = plan.get(field_name)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise StateError(
                f"export plan {path} field {field_name!r} must be an integer "
                f">= {minimum}, got {value!r}"
            )
    if plan.get("format") not in formats:
        raise StateError(
            f"export plan {path} has unsupported format "
            f"{plan.get('format')!r}; expected one of {formats}"
        )
    if not isinstance(plan.get("when"), (int, float)):
        raise StateError(f"export plan {path} field 'when' is not numeric")
    manifest_name = plan.get("manifest_name")
    if not isinstance(manifest_name, str) or not manifest_name or (
        os.path.basename(manifest_name) != manifest_name
    ):
        raise StateError(
            f"export plan {path} has an invalid manifest_name {manifest_name!r}"
        )
    names = plan.get("reducers")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise StateError(f"export plan {path} field 'reducers' must be a name list")
    if plan.get("generator", "CorrelatedHostGenerator") != _wire_name(generator):
        raise StateError(
            f"export plan {path} was built for generator "
            f"{plan.get('generator')!r}; cannot resume it with "
            f"{_wire_name(generator)!r}"
        )
    recorded, fingerprint = plan.get("generator_sha256"), _generator_fingerprint(
        generator
    )
    if recorded != fingerprint:
        raise StateError(
            "generator parameters do not match the interrupted export (plan "
            f"sha256 {recorded!r}, resuming generator {fingerprint!r}); pass "
            "the same parameter set (--params) the original export used"
        )
    try:
        root = np.random.SeedSequence(
            entropy=int(plan["entropy"]),
            spawn_key=tuple(int(k) for k in plan["spawn_key"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StateError(f"export plan {path} has an invalid seed: {error}")
    return plan, root


def _decode_block_entries(blocks, lo, hi, size, fmt="csv", shard=0, inline=False):
    """Decode the ``{index, sha256, bytes, digest}`` entries of blocks
    ``[lo, hi)`` into ``(segment records, row digests, inline writes)``.

    Shared by live lease results (``inline=True``: remote workers ship the
    block bytes as base64 ``data``) and checkpoint lines.  Entries must
    list each block exactly once, in order; any malformed piece raises
    :class:`ValueError` (or the ``TypeError``/``KeyError`` decoding hits).
    """
    if not isinstance(blocks, list) or len(blocks) != hi - lo:
        raise ValueError(f"expected exactly {hi - lo} block entries")
    records: "list[SegmentRecord]" = []
    digests: "list[tuple[int, bytes]]" = []
    writes: "list[tuple[int, bytes]]" = []
    for position, raw in enumerate(blocks):
        index = lo + position
        if not isinstance(raw, dict) or raw.get("index") != index:
            raise ValueError(f"block entry {position} is not block {index}")
        digest = bytes.fromhex(raw["digest"])
        sha, nbytes = raw["sha256"], raw["bytes"]
        if not isinstance(sha, str) or len(bytes.fromhex(sha)) != 32:
            raise ValueError(f"block {index} sha256 is malformed")
        if not isinstance(nbytes, int) or isinstance(nbytes, bool) or nbytes < 0:
            raise ValueError(f"block {index} byte count is malformed")
        if inline:
            data = base64.b64decode(raw["data"], validate=True)
            if hashlib.sha256(data).hexdigest() != sha or len(data) != nbytes:
                raise ValueError(f"block {index} inline data does not match its digest")
            writes.append((index, data))
        records.append(_block_record(index, size, fmt, shard, sha, nbytes))
        digests.append((index, digest))
    return records, digests, writes


def _append_checkpoint(handle, site, state_lo, records, digests, reducers) -> None:
    """Append one ``FleetLeaseCheckpoint`` line to a checkpoint log.

    The line carries ``records`` (the blocks since the log's previous line
    of this chain, or one whole lease) and the reducer state folded over
    ``[state_lo, last block]``, so checkpoint cost is linear in block
    count.  ``handle`` is the log opened ``"ab"`` by its only writer.
    ``site`` fires first (a torn write tears only this line), then the
    line is written and flushed, ``writer.checkpoint.fsync`` fires and the
    line is fsynced — a checkpoint once reported is durable.
    """
    payload = make_envelope(
        LEASE_CHECKPOINT_KIND,
        CHECKPOINT_STATE_VERSION,
        {
            "state_lo": state_lo,
            "block_lo": records[0].block_lo,
            "block_hi": records[-1].block_hi,
            "blocks": [
                {
                    "index": record.block_lo,
                    "sha256": record.sha256,
                    "bytes": record.bytes,
                    "digest": digest.hex(),
                }
                for record, (_, digest) in zip(records, digests)
            ],
            "reducers": reducers.to_state(),
        },
    )
    line = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    _fire(site, path=handle.name, data=line, append=True)
    handle.write(line)
    handle.flush()
    _fire(SITE_CHECKPOINT_FSYNC)
    os.fsync(handle.fileno())


def _read_checkpoint_log(path, grid, factories, size, fmt) -> "dict[int, _BlockRun]":
    """The checkpoint chains a log restores, keyed by where each starts.

    ``grid`` maps every chain start the plan allows to ``(end, shard)``.
    A line carries blocks ``[block_lo, block_hi)`` and the reducer state
    over ``[state_lo, block_hi)``: with ``block_lo == state_lo`` it starts
    its chain afresh (a re-run lease), otherwise it must continue its
    chain exactly.  A torn final line (no newline: the writer died
    mid-append) is dropped *and trimmed off the file*, so later appends
    continue a well-formed log; any other malformed line raises
    :class:`StateError`.  Only each chain's last reducer state is
    restored, and every block file is re-verified against its record
    (:func:`_read_matching_block`) into ``intact``.
    """
    runs: "dict[int, _BlockRun]" = {}
    if not os.path.exists(path):
        return runs
    with open(path, "rb") as handle:
        lines = handle.readlines()
    if lines and not lines[-1].endswith(b"\n"):
        os.truncate(path, sum(len(line) for line in lines[:-1]))
        lines.pop()
    states: "dict[int, dict]" = {}
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"checkpoint line {number} of {path}"
        try:
            payload = json.loads(line)
        except ValueError:
            raise StateError(f"{where} is not valid JSON")
        try:
            require_state(payload, LEASE_CHECKPOINT_KIND, CHECKPOINT_STATE_VERSION)
            state_lo, lo, hi = (
                payload.get(key) for key in ("state_lo", "block_lo", "block_hi")
            )
            end, shard = grid.get(state_lo, (-1, 0))
            if not all(type(v) is int for v in (state_lo, lo, hi)) or not (
                state_lo <= lo < hi <= end
            ):
                raise StateError(
                    f"blocks [{lo}, {hi}) from state_lo {state_lo} do not "
                    "match the plan's grid"
                )
            run = runs.get(state_lo)
            if lo != state_lo and (run is None or run.hi != lo):
                raise StateError(
                    f"blocks [{lo}, {hi}) do not continue the chain checkpointed "
                    f"up to block {state_lo if run is None else run.hi}"
                )
            records, digests, _ = _decode_block_entries(
                payload.get("blocks"), lo, hi, size, fmt, shard
            )
            if not isinstance(payload.get("reducers"), dict):
                raise StateError("it carries no serialized reducer state")
        except (ValueError, TypeError, KeyError) as error:
            raise StateError(f"{where} is malformed: {error}")
        if lo == state_lo:
            runs[state_lo] = _BlockRun(lo, hi, records, digests, None)
        else:
            run.hi = hi
            run.records += records
            run.digests += digests
        states[state_lo] = payload["reducers"]
    base = os.path.dirname(path)
    for state_lo, run in runs.items():
        run.reducers = ReducerSet.from_state(states[state_lo])
        if set(run.reducers.names()) != set(factories):
            raise StateError(
                f"checkpoint log {path} reducers {sorted(run.reducers.names())} "
                f"do not match the plan's {sorted(factories)}"
            )
        run.intact = [
            _read_matching_block(os.path.join(base, record.path), record) is not None
            for record in run.records
        ]
    return runs


def _write_block_file(path: str, block, fmt: str) -> "tuple[str, int, bytes]":
    """Write one block's segment file; return ``(sha256 hex, size, bytes)``.

    The block is rendered in memory first, so the digest (and the caller's
    running payload hash) comes from the bytes as they are written rather
    than a second read of the file.  Module-level so the crash-injection
    tests can monkeypatch a fault in (and so it pickles for the worker
    pool).
    """
    schema = block_schema(block)
    if fmt == "csv":
        data = encode_csv_rows(block.to_matrix(), schema.csv_fmt)
    elif fmt == "npz":
        columns = {
            label: np.asarray(block.column(label), dtype=float)
            for label in schema.labels
        }
        buffer = io.BytesIO()
        np.savez(buffer, **columns)
        data = buffer.getvalue()
    else:
        raise ValueError(
            f"unknown segment format {fmt!r}; supported: {ROW_SEGMENT_FORMATS}"
        )

    def _attempt() -> None:
        _fire(SITE_BLOCK_WRITE, path=path, data=data)
        with open(path, "wb") as handle:
            handle.write(data)

    try:
        # Transient I/O (a momentary ENOSPC/EIO, a hiccuping network
        # mount) gets a short, bounded second chance before the export
        # dies; a persistent failure still surfaces fast, with the
        # partial file cleaned up and named in the error.
        WRITE_RETRY.call(
            _attempt, retry_on=(OSError,), describe=f"writing block segment {path}"
        )
    except BaseException:
        _remove_quiet(path)
        raise
    return hashlib.sha256(data).hexdigest(), len(data), data


def _read_matching_block(path: str, record: SegmentRecord) -> "bytes | None":
    """A checkpointed block file's bytes, or ``None`` if it no longer
    matches its segment record (missing, resized or hash-flipped).

    Blocks are bounded at :data:`~repro.engine.streaming.RNG_BLOCK_SIZE`
    rows, so reading one whole is cheap.
    """
    if not os.path.exists(path):
        return None
    if record.bytes >= 0 and os.path.getsize(path) != record.bytes:
        return None
    with open(path, "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != record.sha256:
        return None
    return data


def _generate_block(generator, when, size, seeds, index):
    lo = index * RNG_BLOCK_SIZE
    return generator.generate(
        when, min(RNG_BLOCK_SIZE, size - lo), np.random.default_rng(seeds[index])
    )


def _write_block_shard(payload: tuple):
    """Worker: write blocks ``[block_lo, block_hi)`` as per-block segments.

    Reduces every block into the shard's :class:`ReducerSet` and, every
    ``checkpoint_every`` blocks (and at the end of the range), appends a
    line to the shard's checkpoint log carrying the blocks written since
    the previous line and the serialized reducer state so far.  A restart
    from that log continues bit-identically: the reducer state round-trips
    exactly, and regenerated blocks are byte-identical by the
    ``SeedSequence.spawn`` contract.

    ``restored`` (when resuming) is this shard's chain as
    :func:`_read_checkpoint_log` restored it; block files that no longer
    verify are — being deterministic — rewritten in place after a
    row-digest check, without touching the restored reducer state.
    Returns ``(shard, run, restored blocks, running payload sha256 of the
    blocks written here)``.
    """
    (
        generator,
        when,
        size,
        root,
        shard,
        block_lo,
        block_hi,
        fmt,
        out_dir,
        checkpoint_every,
        chunk_size,
        factories,
        restored,
    ) = payload
    seeds = block_seeds(root, size)
    run = restored or _BlockRun(
        block_lo, block_lo, [], [], ReducerSet.from_factories(factories)
    )
    for position, intact in enumerate(run.intact or ()):
        if intact:
            continue
        record = run.records[position]
        block = _generate_block(generator, when, size, seeds, record.block_lo)
        # Regeneration must reproduce the checkpointed rows exactly;
        # failing fast here beats finishing an expensive resume whose
        # manifest then fails `fleet verify`.  The row digest is
        # format-independent, so it guards npz rewrites too.
        if population_digest(block) != run.digests[position][1].hex():
            raise StateError(
                f"regenerated {record.path} does not reproduce its "
                f"checkpointed row digest; the resume environment "
                "generates a different fleet than the interrupted run"
            )
        sha, nbytes, _ = _write_block_file(
            os.path.join(out_dir, record.path), block, fmt
        )
        # Same rows, but the *file* may differ for npz (zip metadata is
        # not byte-stable) — record what is on disk.
        run.records[position] = replace(record, sha256=sha, bytes=nbytes)
    restored_blocks = len(run.records)
    # Runs alongside the writes: sha256 over the block bytes written here,
    # in block order.  For an uninterrupted single-shard run this *is* the
    # manifest's payload digest, so the parent never re-reads the segments.
    shard_payload = hashlib.sha256()

    # Reducer updates are batched through the shared ChunkedFold (the same
    # accumulation the statistics fan-out uses).  Flush points are a
    # deterministic function of the block indices alone — every checkpoint
    # boundary flushes, and between boundaries the batch grows by fixed
    # block sizes — so an uninterrupted run and a resumed run fold
    # identical chunks and stay bit-identical.
    fold = ChunkedFold(run.reducers, chunk_size)
    log = open(_shard_log(out_dir, shard), "ab") if checkpoint_every else None
    logged = len(run.records)
    try:
        for index in range(run.hi, block_hi):
            block = _generate_block(generator, when, size, seeds, index)
            name = _block_name(index, fmt)
            sha, nbytes, data = _write_block_file(
                os.path.join(out_dir, name), block, fmt
            )
            shard_payload.update(data)
            run.records.append(_block_record(index, size, fmt, shard, sha, nbytes))
            run.digests.append((index, bytes.fromhex(population_digest(block))))
            run.hi = index + 1
            fold.add(block)
            done = index + 1 - block_lo
            if log is not None and (
                done % checkpoint_every == 0 or index + 1 == block_hi
            ):
                fold.flush()
                _append_checkpoint(
                    log, SITE_CHECKPOINT_WRITE, block_lo, run.records[logged:],
                    run.digests[logged:], run.reducers,
                )
                logged = len(run.records)
            _fire(SITE_BLOCK_DONE)
    finally:
        if log is not None:
            log.close()
    fold.flush()
    return shard, run, restored_blocks, shard_payload.hexdigest()


def export_fleet_blocks(
    generator,
    when: "_dt.date | float",
    size: int,
    rng: "int | np.random.SeedSequence | np.random.Generator | None",
    out_dir: str,
    shards: int = 1,
    fmt: str = "csv",
    checkpoint_every: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    reducers: "dict[str, ReducerFactory] | None" = None,
    quantiles: bool = False,
    manifest_name: str = "manifest.json",
    start_method: "str | None" = None,
) -> BlockExportResult:
    """Export a fleet as per-block segments with reducer checkpoints.

    The resumable counterpart of :func:`export_fleet`: every RNG block
    becomes its own segment file, each shard worker appends its
    serialized reducer state to its checkpoint log every
    ``checkpoint_every`` blocks, and a partial manifest
    (:data:`PLAN_NAME`) pins the run parameters so :func:`resume_export`
    can finish an interrupted run with identical manifest digests and
    statistics.  ``checkpoint_every`` and ``chunk_size`` are part of the
    run's determinism envelope (sketch compression happens at checkpoint
    points, reducer folds at chunk-size/checkpoint flush boundaries), so
    resume reuses the original values from the plan.

    Unlike the shard layout, this path *reduces while it writes* — the
    returned :class:`BlockExportResult` carries the run's
    :class:`~repro.engine.sharding.FleetStatistics` (default
    moments + correlation; plug in ``reducers``/``quantiles`` as in
    :func:`~repro.engine.sharding.generate_sharded`).

    On success the checkpoint logs and partial manifest are removed; the
    final manifest has ``layout="block"`` and verifies with
    :func:`verify_manifest` exactly like a shard-layout export.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    if fmt == COLUMNAR_FORMAT:
        raise ValueError(
            f"{COLUMNAR_FORMAT!r} writes whole columns and has no per-block "
            "segments to checkpoint; use export_fleet for the columnar "
            "layout, or csv/npz here"
        )
    if fmt not in FORMATS:
        raise ValueError(f"unknown segment format {fmt!r}; supported: {FORMATS}")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    root = as_seed_sequence(rng)
    os.makedirs(out_dir, exist_ok=True)
    factories = _resolve_factories(reducers, quantiles)
    if checkpoint_every:
        # Fail before hours of work, not at resume time: every reducer in
        # the set must survive a serialization round trip (a transform-
        # carrying Histogram/ECDF reducer, for example, cannot be restored
        # without its callable and would make the checkpoints useless).
        try:
            ReducerSet.from_state(ReducerSet.from_factories(factories).to_state())
        except StateError as error:
            raise ValueError(
                f"this reducer set cannot be checkpointed: {error}; pass "
                "checkpoint_every=0 or use state-restorable reducers"
            )
    plan = _build_plan(
        EXPORT_PLAN_KIND, generator, when, size, root, fmt, chunk_size,
        factories, manifest_name,
        shards=len(shard_block_ranges(block_count(size), shards)),
        checkpoint_every=checkpoint_every,
    )
    # A fresh export invalidates every earlier run's resume state in this
    # directory, whatever its backend — so a later resume cannot mix runs.
    _clear_resume_state(out_dir)
    _write_json_atomic(os.path.join(out_dir, PLAN_NAME), plan)
    return _run_block_export(generator, plan, root, out_dir, factories, {}, start_method)


def resume_export(
    generator,
    out_dir: str,
    manifest_name: str = "manifest.json",
    reducers: "dict[str, ReducerFactory] | None" = None,
    quantiles: bool = False,
    start_method: "str | None" = None,
) -> BlockExportResult:
    """Finish an interrupted block-layout export.

    Validates the partial manifest (:data:`PLAN_NAME`), restores each
    shard's checkpoint chain from its log — re-verifying every
    checkpointed block file and restoring reducer state through
    ``from_state`` — and regenerates only the blocks the interrupted run
    never checkpointed.  The finished manifest, payload bytes and reduced
    statistics are identical to an uninterrupted
    :func:`export_fleet_blocks` run of the same parameters.

    ``generator`` and ``reducers``/``quantiles`` must match the original
    run (generator parameters are not serialized; reducer *names* are
    cross-checked against the plan).  A corrupted or wrong-version plan
    or checkpoint raises :class:`~repro.stats.state.StateError`.  If the
    export already finished, returns its manifest with ``statistics=None``.
    """
    manifest_path = os.path.join(out_dir, manifest_name)
    if not os.path.exists(os.path.join(out_dir, PLAN_NAME)) and os.path.exists(
        manifest_path
    ):
        try:
            manifest = FleetManifest.load(manifest_path)
        except (OSError, KeyError, TypeError, ValueError) as error:
            raise StateError(f"cannot read manifest {manifest_path}: {error}")
        return BlockExportResult(manifest=manifest, statistics=None, resumed_blocks=0)
    plan, root = _load_plan(
        out_dir, PLAN_NAME, EXPORT_PLAN_KIND, generator, ROW_SEGMENT_FORMATS,
        {"shards": 1, "checkpoint_every": 0},
    )
    factories = _resolve_factories(reducers, quantiles)
    if sorted(factories) != plan["reducers"]:
        raise StateError(
            f"resume carries reducers {sorted(factories)} but the "
            f"interrupted run used {plan['reducers']}; pass the same "
            "reducer set to resume_export"
        )
    restored: "dict[int, _BlockRun]" = {}
    for shard, (lo, hi) in enumerate(
        shard_block_ranges(block_count(plan["size"]), plan["shards"])
    ):
        restored.update(
            _read_checkpoint_log(
                _shard_log(out_dir, shard), {lo: (hi, shard)}, factories,
                plan["size"], plan["format"],
            )
        )
    return _run_block_export(
        generator, plan, root, out_dir, factories, restored, start_method
    )


def _run_block_export(
    generator, plan, root, out_dir, factories, restored, start_method=None
) -> BlockExportResult:
    """Drive the shard workers, then finalise the block-layout manifest."""
    ranges = shard_block_ranges(block_count(plan["size"]), plan["shards"])
    payloads = [
        (
            generator,
            plan["when"],
            plan["size"],
            root,
            shard,
            lo,
            hi,
            plan["format"],
            out_dir,
            plan["checkpoint_every"],
            plan["chunk_size"],
            factories,
            restored.get(lo),
        )
        for shard, (lo, hi) in enumerate(ranges)
    ]

    start = time.perf_counter()
    if len(payloads) == 1:
        results = [_write_block_shard(payloads[0])]
    else:
        results = pool_map(
            _write_block_shard, payloads, len(payloads), start_method
        )
    elapsed = time.perf_counter() - start
    resumed = sum(result[2] for result in results)
    # An uninterrupted single shard's running digest covers the whole
    # export; otherwise the finaliser re-reads the segments (one sha256
    # cannot be stitched from per-worker or pre-crash digests).
    manifest, statistics = _finalise_blocks(
        generator, plan, out_dir, factories, [result[1] for result in results],
        elapsed, len(ranges),
        payload_sha256=results[0][3] if len(results) == 1 and not resumed else None,
    )
    return BlockExportResult(
        manifest=manifest, statistics=statistics, resumed_blocks=resumed
    )


def _finalise_blocks(
    generator, plan, out_dir, factories, runs, elapsed, shards,
    payload_sha256=None, check_files=False,
) -> "tuple[FleetManifest, FleetStatistics]":
    """End a block-layout export of either backend.

    Merges the runs' records, digests and reducer states in block order,
    computes the payload digest (re-reading the segments unless the
    caller hashed them as they were written; ``check_files`` also holds
    each file to its recorded sha256), writes the ``layout="block"``
    manifest, removes every plan and checkpoint log, and returns the
    manifest with the run's :class:`FleetStatistics`.
    """
    merged = ReducerSet.from_factories(factories)
    records: "list[SegmentRecord]" = []
    digests: "list[tuple[int, bytes]]" = []
    for run in sorted(runs, key=lambda run: run.lo):
        merged.merge(run.reducers)
        records += run.records
        digests += run.digests
    if payload_sha256 is None:
        payload_hash = hashlib.sha256()
        for record in records:
            file_hash = hashlib.sha256()
            _hash_file_into(
                os.path.join(out_dir, record.path),
                payload_hash, *((file_hash,) if check_files else ()),
            )
            if check_files and file_hash.hexdigest() != record.sha256:
                raise RuntimeError(
                    f"segment {record.path} on disk does not match the digest "
                    "its worker reported; refusing to finalise a corrupt export"
                )
        payload_sha256 = payload_hash.hexdigest()
    fmt, size = plan["format"], plan["size"]
    manifest = FleetManifest(
        version=plan["version"],
        format=fmt,
        size=size,
        when=plan["when"],
        entropy=plan["entropy"],
        spawn_key=tuple(int(k) for k in plan["spawn_key"]),
        shards=plan.get("shards", 1),
        block_size=plan["block_size"],
        header=generator_schema(generator).csv_header if fmt == "csv" else "",
        payload_sha256=payload_sha256,
        fleet_sha256=combine_block_digests(digests),
        segments=tuple(records),
        layout="block",
        checkpoint_every=plan.get("checkpoint_every", 0),
    )
    manifest.save(os.path.join(out_dir, plan["manifest_name"]))
    # Finalised: the plan and logs are now redundant (and would otherwise
    # mark the directory as an interrupted run).
    _clear_resume_state(out_dir)
    statistics = FleetStatistics(
        size=size,
        when=plan["when"],
        shards=shards,
        reducers=merged,
        elapsed_seconds=elapsed,
        digest=manifest.fleet_sha256,
    )
    return manifest, statistics


def compact_export(
    manifest_path: str,
    out_dir: str,
    shards: int = 1,
    manifest_name: str = "manifest.json",
) -> FleetManifest:
    """Merge a block-layout export into the per-shard layout byte-identically.

    Concatenates the block segments of a completed block-layout CSV export
    into ``shards`` contiguous per-shard segments — producing exactly the
    files *and manifest* :func:`export_fleet` would have written for the
    same ``(parameters, date, size, seed, shards)``, including every
    digest.  The concatenated payload is re-hashed against the source
    manifest during the copy, so silent corruption of a block segment
    fails the compaction rather than propagating.

    NPZ block exports cannot be compacted (zip metadata is not
    byte-stable); re-export in the shard layout instead.
    """
    manifest = FleetManifest.load(manifest_path)
    if manifest.layout != "block":
        raise ValueError(
            f"only block-layout manifests can be compacted (got "
            f"layout={manifest.layout!r})"
        )
    if manifest.format != "csv":
        raise ValueError(
            "npz segments embed zip metadata and cannot be compacted "
            "byte-identically; re-export with fmt='csv' or layout='shard'"
        )
    base = os.path.dirname(os.path.abspath(manifest_path))
    os.makedirs(out_dir, exist_ok=True)
    target = os.path.abspath(os.path.join(out_dir, manifest_name))
    if target == os.path.abspath(manifest_path):
        raise ValueError(
            "compaction target would overwrite the source manifest; choose "
            "a different out_dir or manifest_name"
        )
    by_index = {record.block_lo: record for record in manifest.segments}
    n_blocks = block_count(manifest.size, manifest.block_size)
    ranges = shard_block_ranges(n_blocks, shards)
    payload_hash = hashlib.sha256()
    records: "list[SegmentRecord]" = []
    for shard, (lo, hi) in enumerate(ranges):
        name = _segment_name(shard, manifest.format)
        segment_hash = hashlib.sha256()
        nbytes = 0
        with open(os.path.join(out_dir, name), "wb") as out_handle:
            for index in range(lo, hi):
                record = by_index.get(index)
                if record is None:
                    raise ValueError(
                        f"manifest {manifest_path} lists no segment for "
                        f"block {index}"
                    )
                with open(os.path.join(base, record.path), "rb") as handle:
                    for piece in iter(lambda: handle.read(1 << 20), b""):
                        out_handle.write(piece)
                        segment_hash.update(piece)
                        payload_hash.update(piece)
                        nbytes += len(piece)
        records.append(
            SegmentRecord(
                path=name,
                shard=shard,
                block_lo=lo,
                block_hi=hi,
                row_lo=min(lo * manifest.block_size, manifest.size),
                row_hi=min(hi * manifest.block_size, manifest.size),
                sha256=segment_hash.hexdigest(),
                bytes=nbytes,
            )
        )
    if payload_hash.hexdigest() != manifest.payload_sha256:
        raise ValueError(
            "block segments no longer match their manifest (payload sha256 "
            "mismatch); run `fleet verify` on the block export"
        )
    compacted = FleetManifest(
        version=manifest.version,
        format=manifest.format,
        size=manifest.size,
        when=manifest.when,
        entropy=manifest.entropy,
        spawn_key=manifest.spawn_key,
        shards=len(ranges),
        block_size=manifest.block_size,
        header=manifest.header,
        payload_sha256=manifest.payload_sha256,
        fleet_sha256=manifest.fleet_sha256,
        segments=tuple(records),
        layout="shard",
        checkpoint_every=0,
    )
    compacted.save(os.path.join(out_dir, manifest_name))
    return compacted


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of re-hashing an export against its manifest."""

    ok: bool
    segments_checked: int
    problems: "tuple[str, ...]"

    def format_lines(self) -> "list[str]":
        if self.ok:
            return [f"{self.segments_checked} segment(s) verified: OK"]
        return [f"{self.segments_checked} segment(s) checked"] + [
            f"FAIL: {problem}" for problem in self.problems
        ]


def verify_manifest(manifest_path: str) -> VerificationReport:
    """Re-hash every segment of an export against its manifest.

    Checks the manifest schema version, each segment file's sha256 and the
    manifest-order concatenated ``payload_sha256``; a missing file, a
    flipped byte or a reordered segment list all surface as problems.
    """
    def _failure(problem: str) -> VerificationReport:
        return VerificationReport(ok=False, segments_checked=0, problems=(problem,))

    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            payload = json.loads(handle.read())
    except (OSError, ValueError) as error:
        return _failure(f"cannot read manifest {manifest_path}: {error}")
    if not isinstance(payload, dict):
        return _failure(f"manifest {manifest_path} is not a JSON object")
    version = payload.get("version")
    if version != MANIFEST_VERSION:
        return _failure(
            f"manifest version {version!r} is not the supported {MANIFEST_VERSION}"
        )
    try:
        manifest = FleetManifest.from_json(json.dumps(payload))
    except (KeyError, TypeError, ValueError) as error:
        return _failure(f"manifest {manifest_path} is malformed: {error}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    problems: "list[str]" = []
    payload_hash = hashlib.sha256()
    checked = 0
    for segment in manifest.segments:
        path = os.path.join(base, segment.path)
        if not os.path.exists(path):
            problems.append(f"segment {segment.path} is missing")
            continue
        actual = os.path.getsize(path)
        if segment.bytes >= 0 and actual != segment.bytes:
            # A partial write is the common corruption of an interrupted
            # copy; name it (and the exact byte counts) instead of leaving
            # only a generic digest mismatch.
            checked += 1
            kind = "truncated" if actual < segment.bytes else "oversized"
            problems.append(
                f"segment {segment.path} is {kind}: {actual} of "
                f"{segment.bytes} expected bytes"
            )
            continue
        file_hash = hashlib.sha256()
        _hash_file_into(path, file_hash, payload_hash)
        checked += 1
        if file_hash.hexdigest() != segment.sha256:
            problems.append(
                f"segment {segment.path} sha256 mismatch "
                f"(expected {segment.sha256[:12]}…, got {file_hash.hexdigest()[:12]}…)"
            )
    if not problems and payload_hash.hexdigest() != manifest.payload_sha256:
        problems.append("concatenated payload sha256 mismatch")
    return VerificationReport(
        ok=not problems, segments_checked=checked, problems=tuple(problems)
    )
