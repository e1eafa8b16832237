#!/usr/bin/env python3
"""Fleet-export benchmark: four export paths through the public engine API.

Run from the repository root::

    python3 perfbench/run.py --workload csv-2m --seed 1 --seconds 20 --trace 0

One closed-loop client (this process) starts the next export only after
the previous one returned, with 2 shards or workers.  ``--seed`` is the
fleet seed, so the same seed exports the same hosts.  Every export is
checked (``verify_manifest``, ``fleet_sha256`` against ``fleet_digest``,
cross-path payload identity) and followed by a resource census; a
mismatch or leftover counts as a failed operation.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
workload with 1 shard or worker inside spans recorded around calls into
each ``repro`` module (see ``tracing.py`` and ``LAYERS.md``) and reports
the per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import procstat  # noqa: E402
import tracing  # noqa: E402

WHEN = dt.date(2010, 9, 1)
SHARDS = 2
CHECKPOINT_EVERY = 8
#: Fresh-interpreter set-ups per untraced run, spread over the measuring
#: window, so ``setup_s`` is a median of these and the run's own set-up.
SETUP_PROBES = 3
#: Per-call sleep of the known-slow control (``--slow``).
SLOW_SECONDS = 0.005
#: Hosts in the untimed warm-up export (8 RNG blocks).
WARMUP_SIZE = 8 * 4096
#: A run that has not finished by then is stuck; fail it loudly.
ALARM_SECONDS = 175

WORKLOADS = {
    "csv-2m": ("csv", 2_000_000),
    "columnar-4m": ("columnar", 4_000_000),
    "blocks-4m": ("blocks", 4_000_000),
    "distributed-2m": ("distributed", 2_000_000),
}

#: The contract file: metric names and units come from it, so the two
#: cannot drift apart.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def contract_units(section: str) -> "dict[str, str]":
    """``{metric: unit}`` of one ``BENCHMARK.json`` section."""
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class Stuck(BaseException):
    """The run overran ``ALARM_SECONDS``; not an operation failure, so it
    passes the per-operation ``except Exception`` and ends the run."""


def log(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.stderr.flush()


# -- set-up -------------------------------------------------------------------


def setup(slow: bool = False):
    """Import the engine, build the generator and spawn the warm pool.

    Returns ``(namespace, seconds)``; the clock starts before ``repro``
    is imported.
    """
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import repro.core.generator as core_generator
    import repro.engine as engine
    import repro.engine.distributed as distributed
    import repro.engine.pool as pool
    import repro.engine.reduce as reduce
    import repro.engine.writer as writer
    import repro.faults as faults
    from repro.core.parameters import ModelParameters
    from repro.timeutil import year_fraction

    if slow:
        install_slow_control(writer, distributed)
    generator = core_generator.CorrelatedHostGenerator(ModelParameters.paper_reference())
    when = year_fraction(WHEN)
    pool.get_pool(SHARDS)
    ns = argparse.Namespace(
        engine=engine, writer=writer, distributed=distributed, pool=pool,
        reduce=reduce, faults=faults, core_generator=core_generator,
        generator=generator, when=when,
    )
    return ns, time.perf_counter() - start


def install_slow_control(writer, distributed) -> None:
    """The known-slow control: sleep before every CSV encode call.

    Installed before the pool forks, so shard workers inherit it.
    """
    encode = writer.encode_csv_rows

    def slowed(*args, **kwargs):
        time.sleep(SLOW_SECONDS)
        return encode(*args, **kwargs)

    writer.encode_csv_rows = slowed
    distributed.encode_csv_rows = slowed


def setup_probe_seconds() -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- the benchmark context ----------------------------------------------------


class Bench:
    """One run: the engine handles, the work directory and the checks."""

    def __init__(self, ns, workload: str, seed: int):
        self.ns = ns
        self.workload = workload
        self.kind, self.size = WORKLOADS[workload]
        self.seed = seed
        self.token = f"perfbench-{seed}"
        self.work = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.staged: "set[str]" = set()
        self.ref_fleet: "dict[int, str]" = {}
        self.ref_payload: "str | None" = None
        self.buffer_dirs = ("/dev/shm", tempfile.gettempdir())
        self.buffers_before = procstat.block_buffers(self.buffer_dirs)
        os.makedirs(self.work)
        self.snapshot_pool()

    def snapshot_pool(self) -> None:
        """The persistent pool's workers are the only descendants allowed."""
        self.pool_pids = procstat.descendants()

    def fresh_dir(self, label: str) -> str:
        self.ops += 1
        return os.path.join(self.work, f"{label}-{self.ops:04d}")

    def fleet_digest(self, size: int) -> str:
        if size not in self.ref_fleet:
            self.ref_fleet[size] = self.ns.engine.fleet_digest(
                self.ns.generator, self.ns.when, size, self.seed
            )
        return self.ref_fleet[size]

    # -- the four export paths ------------------------------------------

    def export(self, out: str, shards: int, size: "int | None" = None):
        """One export through this workload's path; returns
        ``(manifest, distributed metrics or None)``."""
        ns, size = self.ns, self.size if size is None else size
        if self.kind == "csv":
            return ns.engine.export_fleet(
                ns.generator, ns.when, size, self.seed, out, shards=shards
            ), None
        if self.kind == "columnar":
            return ns.engine.export_fleet(
                ns.generator, ns.when, size, self.seed, out, shards=shards,
                fmt="npz-columnar",
            ), None
        if self.kind == "blocks":
            return ns.engine.export_fleet_blocks(
                ns.generator, ns.when, size, self.seed, out, shards=shards,
                checkpoint_every=CHECKPOINT_EVERY, quantiles=True,
            ).manifest, None
        result = ns.engine.export_fleet_distributed(
            ns.generator, ns.when, size, self.seed, out, workers=shards,
            token=self.token,
        )
        return result.manifest, result.metrics

    def resume(self, out: str):
        return self.ns.engine.resume_export(
            self.ns.generator, out, quantiles=True
        ).manifest

    # -- staging (untimed benchmark work) -------------------------------

    def stage(self) -> None:
        """Reference digests and, for distributed, the cross-path reference."""
        self.fleet_digest(self.size)
        if self.kind == "distributed":
            # Its payload must equal a CSV shard-layout export's.
            out = self.fresh_dir("reference")
            manifest = self.ns.engine.export_fleet(
                self.ns.generator, self.ns.when, self.size, self.seed, out,
                shards=SHARDS,
            )
            report = self.ns.engine.verify_manifest(os.path.join(out, "manifest.json"))
            if not report.ok or manifest.fleet_sha256 != self.ref_fleet[self.size]:
                raise RuntimeError("the CSV reference export does not verify")
            self.ref_payload = manifest.payload_sha256
            shutil.rmtree(out)

    def stage_interrupted(self, shards: int) -> "tuple[str, int]":
        """A block-layout export interrupted at half its blocks through a
        ``writer.block.done`` raise plan; returns ``(dir, blocks missing)``."""
        faults, engine = self.ns.faults, self.ns.engine
        ranges = engine.shard_block_ranges(engine.block_count(self.size), shards)
        half = min(hi - lo for lo, hi in ranges) // 2
        plan = faults.FaultPlan(
            seed=self.seed,
            faults=(faults.FaultSpec(site="writer.block.done", kind="raise", after=half),),
        )
        out = os.path.join(self.work, f"staged-{shards}")
        faults.activate(plan)
        try:
            self.export(out, shards)
        except faults.FaultInjected:
            pass
        else:
            raise RuntimeError("the staged export was not interrupted")
        finally:
            faults.deactivate()
        self.staged.add(os.path.basename(out))
        on_disk = sum(name.startswith("block-") for name in os.listdir(out))
        return out, engine.block_count(self.size) - on_disk

    def copy_staged(self, staged: str) -> str:
        out = self.fresh_dir("resume")
        shutil.copytree(staged, out)
        return out

    # -- checks ---------------------------------------------------------

    def check(self, out: str, manifest, payload: "str | None" = None) -> "list[str]":
        """Correctness checks of one finished export; problems found.

        ``payload`` is the payload sha256 the export must reproduce: the
        CSV reference, the uninterrupted export a resume finishes, or the
        first repetition's.
        """
        problems = []
        path = os.path.join(out, "manifest.json")
        report = self.ns.engine.verify_manifest(path)
        if not report.ok:
            problems.append("verify_manifest: " + "; ".join(report.problems))
        if manifest.fleet_sha256 != self.fleet_digest(manifest.size):
            problems.append("fleet_sha256 differs from fleet_digest")
        if payload is not None and manifest.payload_sha256 != payload:
            problems.append(f"payload {manifest.payload_sha256[:12]} differs "
                            f"from the reference {payload[:12]}")
        expected = {"manifest.json"} | {segment.path for segment in manifest.segments}
        leftover = set(os.listdir(out)) - expected
        if leftover:
            problems.append(f"leftover files in the export dir: {sorted(leftover)}")
        return problems

    def census(self) -> "list[str]":
        """What the last operation left behind (taken from outside)."""
        problems = []
        live = procstat.descendants()
        extra = live - self.pool_pids
        if extra:
            problems.append(f"descendant processes beyond the pool: {sorted(extra)}")
        sockets = procstat.listening_sockets(live | {os.getpid()})
        if sockets:
            problems.append(f"listening sockets: {sockets}")
        buffers = procstat.block_buffers(self.buffer_dirs) - self.buffers_before
        if buffers:
            problems.append(f"block buffers left: {sorted(buffers)}")
        entries = set(os.listdir(self.work)) - self.staged
        if entries:
            problems.append(f"leftover work entries: {sorted(entries)}")
        return problems

    def settle(self, name: str, problems: "list[str]", out: "str | None") -> bool:
        """Count one operation, remove its directory, run the census."""
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        problems = problems + self.census()
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"{self.workload} {name}: FAILED {problem}")
        return not problems

    def guarded(self, name: str, out: str, body) -> "object | None":
        """Run ``body()`` (which returns ``(value, problems)``); an
        exception is a failed operation, never a dropped one."""
        start = time.perf_counter()
        try:
            value, problems = body()
        except Exception as error:  # noqa: BLE001 - record and carry on
            self.settle(name, [f"{type(error).__name__}: {error}"], out)
            return None
        log(f"{self.workload} {name}: {time.perf_counter() - start:.3f} s with checks")
        return value if self.settle(name, problems, out) else None

    def warm_up(self) -> None:
        """One small untimed export through the same path and pool."""
        out = self.fresh_dir("warmup")
        manifest, _ = self.export(out, SHARDS, size=WARMUP_SIZE)
        if not self.ns.engine.verify_manifest(os.path.join(out, "manifest.json")).ok:
            raise RuntimeError("the warm-up export does not verify")
        shutil.rmtree(out)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run shares it


# -- untraced measurement -----------------------------------------------------


def timed_export(bench: Bench, shards: int, payload: "str | None"):
    """One timed, checked export; returns its samples or None."""
    out = bench.fresh_dir("export")

    def body():
        cpu = procstat.CpuMeter()
        with procstat.PeakRss() as rss:
            start = time.perf_counter()
            manifest, _ = bench.export(out, shards)
            wall = time.perf_counter() - start
        sample = {
            "wall": wall,
            "cpu": cpu.elapsed(),
            "rss": rss.peak,
            "payload": manifest.payload_sha256,
        }
        return sample, bench.check(out, manifest, payload)

    return bench.guarded("export", out, body)


def timed_resume(bench: Bench, staged: str, payload: str):
    out = bench.copy_staged(staged)

    def body():
        start = time.perf_counter()
        manifest = bench.resume(out)
        wall = time.perf_counter() - start
        return wall, bench.check(out, manifest, payload=payload)

    return bench.guarded("resume", out, body)


def measure(bench: Bench, seconds: float, setups: "list[float]") -> dict:
    """The end-to-end metrics.  ``setups`` holds the run's own set-up
    time; :data:`SETUP_PROBES` probes are added between operations as
    the window passes, and the time they take extends the window."""
    staged = None
    if bench.kind == "blocks":
        staged, _ = bench.stage_interrupted(SHARDS)
    exports, resumes = [], []
    payload = bench.ref_payload
    deadline = time.perf_counter() + seconds
    while True:
        sample = timed_export(bench, SHARDS, payload)
        if sample is not None:
            exports.append(sample)
            payload = payload or sample["payload"]
        if staged is not None and payload is not None:
            wall = timed_resume(bench, staged, payload)
            if wall is not None:
                resumes.append(wall)
        now = time.perf_counter()
        measured = min(1.0, 1.0 - (deadline - now) / seconds)
        if len(setups) - 1 < SETUP_PROBES * measured:
            setups.append(setup_probe_seconds())
            deadline += time.perf_counter() - now
        if time.perf_counter() >= deadline:
            break
    while len(setups) - 1 < SETUP_PROBES:
        setups.append(setup_probe_seconds())
    walls = [s["wall"] for s in exports]
    values = {
        "hosts_per_s": [bench.size / w for w in walls],
        "cpu_s_per_mhost": [s["cpu"] / (bench.size / 1e6) for s in exports],
        "peak_rss_mb": [s["rss"] / 1e6 for s in exports],
        # A layout without a resume path recovers by exporting again.
        "resume_s": resumes if staged is not None else walls,
        "setup_s": setups,
    }
    metrics = {name: median_or_zero(samples) for name, samples in values.items()}
    for name, samples in values.items():
        summarise(name, samples)
    return metrics


def median_or_zero(samples: "list[float]") -> float:
    return statistics.median(samples) if samples else 0.0


def summarise(name: str, samples: "list[float]") -> None:
    if not samples:
        log(f"{name}: no successful samples")
        return
    tail = tracing.tail_percentile(samples)
    tail_text = "" if tail is None else f", p{tail[0]:g} {tail[1]:.6g}"
    log(f"{name}: median {statistics.median(samples):.6g} over n={len(samples)}{tail_text}"
        f" [{', '.join(f'{v:.4g}' for v in samples)}]")


# -- traced measurement -------------------------------------------------------


def install_tracer(tracer: tracing.Tracer, ns) -> None:
    """Wrap every layer's public callables at their consuming binding."""

    def bytes_out(t, args, kwargs, result):
        t.count("csvfmt.bytes", len(result))

    def rows_in(t, args, kwargs, result):
        chunk = args[1]
        if isinstance(chunk, dict):
            chunk = next(iter(chunk.values()), ())
        t.count("reduce.rows", len(chunk))

    writer, distributed, reduce = ns.writer, ns.distributed, ns.reduce
    tracer.wrap(ns.core_generator.CorrelatedHostGenerator, "generate", "generator.generate")
    for module in (writer, distributed):
        tracer.wrap(module, "population_digest", "streaming.digest")
        tracer.wrap(module, "encode_csv_rows", "csvfmt.encode", bytes_out)
    tracer.wrap(reduce.ReducerSet, "update", "reduce.update", rows_in)
    tracer.wrap(reduce.ReducerSet, "to_state", "reduce.to_state")
    tracer.wrap(reduce.ReducerSet, "from_state", "reduce.from_state")
    tracer.wrap(reduce.ReducerSet, "merge", "reduce.merge")
    original_json = writer._write_json_atomic

    def json_write(path, payload, fault_site=None):
        name = "writer.checkpoint" if fault_site is not None else "writer.json"
        span = tracer.begin(name)
        try:
            return original_json(path, payload, fault_site)
        finally:
            tracer.end(span)
            if fault_site is not None and os.path.exists(path):
                tracer.count("writer.checkpoint_bytes", os.path.getsize(path))

    tracer.patch(writer, "_write_json_atomic", json_write)
    tracer.wrap(os, "fsync", "writer.fsync")
    tracing.mark_installed(tracer)


@dataclass
class TracedOp:
    manifest: object
    extra: object
    spans: "list[tracing.Span]"
    root: tracing.Span
    verify: tracing.Span
    self_sum_ratio: float
    #: CPU seconds of this process during ``call()`` alone.
    cpu_s: float


def pool_counters(pool) -> "tuple[int, int, int]":
    stats = pool.pool_stats().values()
    return (
        sum(s["maps_run"] for s in stats),
        sum(s["jobs_dispatched"] for s in stats),
        pool.pools_spawned(),
    )


def traced_op(bench: Bench, tracer: tracing.Tracer, name: str, out: str, call):
    """Run ``call()`` (returning ``(manifest, extra)``) as one traced
    operation under the tracer's current run id; None when it failed."""

    def body():
        root = tracer.start_operation(name, tracer.run_id)
        cpu_before = procstat.process_cpu_seconds(os.getpid())
        try:
            manifest, extra = call()
        finally:
            cpu_s = procstat.process_cpu_seconds(os.getpid()) - cpu_before
            tracer.finish_operation(root)
        spans = tracing.subtree(tracer.spans, root.span_id)
        verify = tracer.begin("writer.verify")
        problems = bench.check(out, manifest, payload=extra if name == "writer.resume" else None)
        tracer.end(verify)
        files = [os.path.join(out, f) for f in os.listdir(out)]
        tracer.count("writer.files", len(files))
        tracer.count("writer.bytes_written", sum(os.path.getsize(f) for f in files))
        own = tracing.self_times(spans)
        ratio = sum(own.values()) / root.duration
        if abs(ratio - 1.0) > 1e-6:
            problems.append(f"self times sum to {ratio:.9f} of the export wall")
        return TracedOp(manifest, extra, spans, root, verify, ratio, cpu_s), problems

    return bench.guarded(name, out, body)


def measure_traced(bench: Bench, seconds: float) -> dict:
    ns = bench.ns
    trace_shards = 1
    staged = missing = None
    if bench.kind == "blocks":
        staged, missing = bench.stage_interrupted(trace_shards)
    rounds: "list[dict]" = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(traced_round(bench, trace_shards, staged, missing))
        if time.perf_counter() >= deadline:
            break
    # A layer the workload does not run reads 0.
    metrics = {
        name: median_or_zero([r[name] for r in rounds if name in r])
        for name in contract_units("per_layer")
    }
    for name, value in sorted(metrics.items()):
        log(f"{name}: {value:.6g} ({len(rounds)} round(s))")
    return metrics


def traced_round(bench: Bench, shards: int, staged, missing) -> dict:
    ns, size = bench.ns, bench.size
    tracer = tracing.Tracer()
    values: "dict[str, float]" = {}
    ops = []
    # Set before a traced pool forks, so worker spans carry it too.
    tracer.run_id = f"{bench.workload}-{bench.seed}-export-{bench.ops}"
    if bench.kind == "distributed":
        # Local workers run in the pool: respawn it with the wrappers
        # installed, so the worker side records spans too.
        ns.pool.shutdown_pools()
        install_tracer(tracer, ns)
        ns.pool.get_pool(shards)
        bench.snapshot_pool()
    else:
        install_tracer(tracer, ns)
    try:
        out = bench.fresh_dir("traced")
        op = traced_op(bench, tracer, "writer.export", out, lambda: bench.export(out, shards))
        if op is not None:
            ops.append(op)
        if bench.kind == "blocks" and op is not None:
            resumed = bench.copy_staged(staged)
            tracer.run_id = f"{bench.workload}-{bench.seed}-resume-{bench.ops}"
            rop = traced_op(
                bench, tracer, "writer.resume", resumed,
                lambda: (bench.resume(resumed), op.manifest.payload_sha256),
            )
            if rop is not None:
                ops.append(rop)
                generated = len([
                    s for s in rop.spans if s.name == "generator.generate"
                ])
                values["writer.resume_regen_ratio"] = generated / missing
        worker_spans = []
        if bench.kind == "distributed":
            drained = ns.pool.get_pool(shards).apply_async(
                tracing.drain_worker
            ).get(timeout=60)
            worker_spans = [tracing.Span(**span) for span in drained["spans"]]
            for name, amount in drained["counts"].items():
                tracer.count(name, amount)
    finally:
        tracer.restore()
        tracing.mark_installed(None)
        if bench.kind == "distributed":
            ns.pool.shutdown_pools()
            ns.pool.get_pool(SHARDS)
            bench.snapshot_pool()
    if not ops:
        return values

    export_op = ops[0]
    manifest, extra, root = export_op.manifest, export_op.extra, export_op.root
    spans = [s for op in ops for s in op.spans] + worker_spans
    by_name = tracing.self_time_by_name(spans)
    counts = tracer.counts

    def spans_named(name):
        return [s for s in spans if s.name == name]

    encode_s = by_name.get("csvfmt.encode", 0.0)
    checkpoint_s = sum(s.duration for s in spans_named("writer.checkpoint"))
    values.update({
        "generator.generate_s": by_name.get("generator.generate", 0.0),
        "generator.blocks": len(spans_named("generator.generate")),
        "streaming.digest_s": by_name.get("streaming.digest", 0.0),
        "csvfmt.encode_s": encode_s,
        "csvfmt.bytes": counts["csvfmt.bytes"],
        "csvfmt.encode_mb_per_s": counts["csvfmt.bytes"] / 1e6 / encode_s if encode_s else 0.0,
        "reduce.update_s": by_name.get("reduce.update", 0.0),
        "reduce.rows": counts["reduce.rows"],
        "reduce.to_state_s": by_name.get("reduce.to_state", 0.0),
        "reduce.from_state_s": by_name.get("reduce.from_state", 0.0),
        "reduce.merge_s": by_name.get("reduce.merge", 0.0),
        "writer.self_s": sum(by_name.get(n, 0.0) for n in ("writer.export", "writer.resume")),
        "writer.files": counts["writer.files"],
        "writer.bytes_written": counts["writer.bytes_written"],
        "writer.fsyncs": len(spans_named("writer.fsync")),
        "writer.fsync_s": sum(s.duration for s in spans_named("writer.fsync")),
        "writer.checkpoint_s": checkpoint_s,
        "writer.checkpoints": len(spans_named("writer.checkpoint")),
        "writer.checkpoint_bytes": counts["writer.checkpoint_bytes"],
        "writer.checkpoint_share": sum(
            s.duration for s in export_op.spans if s.name == "writer.checkpoint"
        ) / root.duration,
        "writer.verify_s": sum(op.verify.duration for op in ops),
        "trace.self_sum_ratio": min(op.self_sum_ratio for op in ops),
    })
    if bench.kind == "distributed":
        leases = [event["seconds"] for event in extra["leases"]]
        run = extra["leases_run"]
        requeued, stolen = extra["requeued_leases"], extra["stolen_leases"]
        values.update({
            "distributed.leases": run,
            "distributed.lease_s_p50": statistics.median(leases),
            "distributed.lease_s_p90": tracing.nearest_rank(leases, 90),
            "distributed.requeued": requeued,
            "distributed.stolen": stolen,
            "distributed.useful_lease_ratio": run / (run + requeued + stolen),
            "distributed.coordinator_s": export_op.cpu_s,
        })
    traced_wall = root.duration

    # Untraced legs: 1 shard for the tracing overhead and scaling, 2 for
    # scaling and the pool counters.
    one = timed_export(bench, shards, manifest.payload_sha256)
    maps0, tasks0, spawned0 = pool_counters(ns.pool)
    buffers = tracing.Tracer()
    buffers.wrap(ns.writer, "create_block_buffer", "pool.shm_buffer")
    try:
        two = timed_export(bench, SHARDS, manifest.payload_sha256)
    finally:
        buffers.restore()
    maps1, tasks1, spawned1 = pool_counters(ns.pool)
    values.update({
        "pool.maps": maps1 - maps0,
        "pool.tasks": tasks1 - tasks0,
        "pool.spawned": spawned1 - spawned0,
        "pool.shm_buffers": len(buffers.spans),
    })
    if one is not None:
        values["trace.overhead"] = one["wall"] / traced_wall
        if two is not None:
            values["pool.scaling_2v1"] = one["wall"] / two["wall"]
        if bench.kind == "distributed":
            out = bench.fresh_dir("inprocess")

            def csv_one_shard():
                start = time.perf_counter()
                manifest = ns.engine.export_fleet(
                    ns.generator, ns.when, size, bench.seed, out, shards=1
                )
                wall = time.perf_counter() - start
                return wall, bench.check(out, manifest)

            inprocess = bench.guarded("inprocess", out, csv_one_shard)
            if inprocess is not None:
                values["distributed.tax_vs_inprocess"] = one["wall"] / inprocess
    return values


# -- entry point --------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slow", action="store_true",
        help="known-slow control: sleep before every CSV encode call",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        ns, seconds = setup()
        ns.pool.shutdown_pools()
        print(f"{seconds!r}")
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log(f"no repro package under {os.path.join(ROOT, 'src')}; run from a checkout")
        return 2
    def stuck(signum, frame):
        raise Stuck(f"run did not finish within {ALARM_SECONDS} s")

    signal.signal(signal.SIGALRM, stuck)
    signal.alarm(ALARM_SECONDS)
    ns, own_setup = setup(args.slow)
    bench = None
    try:
        bench = Bench(ns, args.workload, args.seed)
        bench.stage()
        bench.warm_up()
        if args.trace:
            values = measure_traced(bench, args.seconds)
            units = contract_units("per_layer")
        else:
            values = measure(bench, args.seconds, [own_setup])
            units = contract_units("end_to_end")
        correct = bench.failed == 0
        log(f"failed_ratio: {bench.failed}/{bench.attempted}")
        result = {
            "correct": correct,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    finally:
        if bench is not None:
            bench.close()
        ns.pool.shutdown_pools()
    leftover = procstat.descendants()
    if leftover:
        log(f"processes still running at exit: {sorted(leftover)}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
