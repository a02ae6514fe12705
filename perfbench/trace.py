"""The traced run: per-layer metrics from probes and the program's counters.

The traced run repeats a stretch of the workload twice on one deployment:
first untraced, then, with the probes and the program's own tracer on, an
identical replay of the same requests (and, on the open loop, the same
arrival times). Per-layer numbers come from the replay; the CPU cost per
experiment of the replay over the untraced pass is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any

from perfbench import workloads as wl
from perfbench.probes import KINDS, Probes
from perfbench.stats import min_samples_for, percentile

#: Layers whose busy time and share of the run are reported. The leaf
#: layers (engine.execute, udfgen.generate, smpc.*, durability) do the
#: work; transport.send, worker.handle and master.* contain them.
TIMED_LAYERS = (
    "engine.execute",
    "udfgen.generate",
    "transport.send",
    "worker.handle",
    "master.local_step",
    "master.gather",
    "master.gather_secure",
    "master.broadcast",
    "master.global_step",
    "smpc.aggregate",
    "smpc.import_shares",
    "durability",
)


def _counters(deployment: wl.Deployment) -> dict[str, float]:
    """The program's existing public counters, read at one instant."""
    from repro.udfgen.generator import plan_cache

    federation = deployment.federation
    transport = federation.transport.snapshot()
    cache = plan_cache.stats()
    links = federation.transport.link_snapshot().values()
    values = {
        "messages": transport.messages,
        "bytes": transport.bytes_sent,
        "net_model_s": transport.simulated_seconds,
        # Per-link clocks sum every message's modeled time, so this is the
        # thread-summed wait, comparable with thread-summed busy seconds.
        "net_model_busy_s": sum(link.simulated_seconds for link in links),
        "retries": transport.retries,
        "failed_sends": transport.failed_sends,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "smpc_rounds": 0,
        "smpc_elements": 0,
        "journal_appends": 0,
        "journal_fsyncs": 0,
        "journal_bytes": 0,
    }
    if federation.smpc_cluster is not None:
        values["smpc_rounds"] = federation.smpc_cluster.communication.rounds
        values["smpc_elements"] = federation.smpc_cluster.communication.elements
    durability = deployment.service.durability
    if durability is not None:
        journal = durability.stats()["journal"]
        values["journal_appends"] = journal["appends_total"]
        values["journal_fsyncs"] = journal["fsyncs_total"]
        values["journal_bytes"] = journal["bytes_appended_total"]
    return values


def run(workload: wl.Workload, seed: int, seconds: float, work_dir: str) -> dict[str, Any]:
    """A traced run: every per-layer metric."""
    from repro.observability.trace import tracer

    probes = Probes()
    probes.install()
    try:
        probes.enabled = True
        deployment, setup_times = wl.timed_set_up(workload, seed, work_dir)
        probes.enabled = False
        ingest = probes.layers["engine.ingest"]
        ingest_busy, ingest_cells = ingest.busy_s, probes.counts["engine.ingest.cells"]
        checker = wl.Checker(deployment, workload.aggregation)
        try:
            cycles = wl.request_cycles(workload, seed)
            wl.warm_up(deployment, cycles, checker)
            if workload.open_loop:
                single = dataclasses.replace(
                    workload, rates=(workload.operating_rate,), rate_shares=(0.5,)
                )
                _rate, requests, offsets = wl.step_plan(single, seconds, seed, cycles)[0]

                def replay():
                    return wl.open_step(deployment.service, requests, offsets, workload.pool_size)

                untraced = replay()
            else:
                untraced = wl.closed_loop(
                    deployment.service, cycles, seconds / 2.0,
                    min_samples_for(workload.tail_percentile),
                )

                def replay():
                    return wl.closed_loop(deployment.service, untraced.cycles, 0.0, 0)

            checker.check(untraced.samples)
            probes.reset()
            before = _counters(deployment)
            probes.enabled = True
            tracer.enable()
            try:
                traced = replay()
            finally:
                tracer.disable()
                probes.enabled = False
                tracer.reset()
            after = _counters(deployment)
            checker.check(traced.samples)
            metrics = _layer_metrics(workload, deployment, probes, traced, before, after)
        finally:
            deployment.close()
    finally:
        probes.uninstall()
    metrics["engine.ingest.busy_s"] = ingest_busy / len(setup_times)
    metrics["engine.ingest.cells_per_s"] = ingest_cells / ingest_busy if ingest_busy else 0.0
    metrics["engine.ingest.setup_share"] = ingest_busy / sum(setup_times)
    metrics["trace.overhead_frac"] = (
        (traced.cpu_s / len(traced.samples)) / (untraced.cpu_s / len(untraced.samples)) - 1.0
    )
    info = {
        "untraced_samples": len(untraced.samples),
        "traced_samples": len(traced.samples),
        "setup_times_s": setup_times,
    }
    return {"metrics": metrics, "info": info, "checker": checker}


def _layer_metrics(workload, deployment, probes: Probes, window, before, after) -> dict[str, float]:
    n = len(window.samples)
    wall = window.wall_s
    delta = {key: after[key] - before[key] for key in before}
    layers = probes.layers
    counts = probes.counts
    metrics: dict[str, float] = {"run.wall_s": wall, "run.experiments": n}
    for name in TIMED_LAYERS:
        metrics[f"{name}.busy_s"] = layers[name].busy_s
        metrics[f"{name}.share"] = layers[name].wall_s / wall

    metrics["engine.execute.calls_per_exp"] = layers["engine.execute"].calls / n
    metrics["engine.execute.rows_out_per_exp"] = counts["engine.execute.rows_out"] / n
    metrics["udfgen.generate.calls_per_exp"] = layers["udfgen.generate"].calls / n
    lookups = delta["cache_hits"] + delta["cache_misses"]
    metrics["udfgen.plan_cache.lookups"] = lookups
    metrics["udfgen.plan_cache.hit_ratio"] = delta["cache_hits"] / lookups if lookups else 0.0

    metrics["transport.messages_per_exp"] = delta["messages"] / n
    for kind in KINDS + ("other",):
        metrics[f"transport.messages.{kind}"] = counts[f"transport.messages.{kind}"] / n
        metrics[f"worker.handle.busy_s.{kind}"] = layers[f"worker.handle.{kind}"].busy_s
    metrics["transport.bytes_per_exp"] = delta["bytes"] / n
    metrics["transport.net_model_s"] = delta["net_model_s"]
    metrics["transport.net_model_busy_s"] = delta["net_model_busy_s"]
    metrics["transport.retries"] = delta["retries"]
    metrics["transport.failed_sends"] = delta["failed_sends"]
    metrics["master.local_step.calls_per_exp"] = layers["master.local_step"].calls / n

    metrics["smpc.aggregate.calls_per_exp"] = layers["smpc.aggregate"].calls / n
    metrics["smpc.rounds_per_exp"] = delta["smpc_rounds"] / n
    metrics["smpc.elements_per_exp"] = delta["smpc_elements"] / n
    bound = {
        result.experiment_id: (
            "comparison" if result.request.algorithm in wl.COMPARISON_BOUND else "sum"
        )
        for result in (s.result for s in window.samples if s.result is not None)
    }
    for kind in ("comparison", "sum"):
        metrics[f"smpc.aggregate.busy_s.{kind}"] = sum(
            seconds for job, seconds in probes.smpc_calls if _bound_of(job, bound) == kind
        )
        chosen = [s.result for s in window.samples
                  if s.result is not None and bound[s.result.experiment_id] == kind]
        metrics[f"smpc.rounds_per_exp.{kind}"] = (
            sum(r.telemetry.smpc_rounds for r in chosen) / len(chosen) if chosen else 0.0
        )

    queue = deployment.service.engine.queue
    jobs = [queue.job(job_id) for job_id in window.job_ids]
    queued = [job.queued_seconds for job in jobs]
    metrics["jobs.queued_s.p50"] = percentile(queued, 50)
    metrics["jobs.queued_s.tail"] = percentile(queued, workload.tail_percentile)
    metrics["jobs.queued_s.total"] = sum(queued)
    metrics["jobs.run_s.p50"] = statistics.median(job.elapsed_seconds or 0.0 for job in jobs)
    metrics["jobs.depth_max"] = window.depth_max

    metrics["journal.appends_per_exp"] = delta["journal_appends"] / n
    metrics["journal.fsyncs_per_exp"] = delta["journal_fsyncs"] / n
    metrics["journal.bytes_per_exp"] = delta["journal_bytes"] / n
    metrics["checkpoint.writes_per_exp"] = counts["checkpoint.writes"] / n
    metrics["checkpoint.bytes_per_exp"] = counts["checkpoint.bytes"] / n
    metrics["loadgen.lag_max_s"] = window.lag_max_s
    return metrics


def _bound_of(smpc_job: str, bound: dict[str, str]) -> str | None:
    """Cluster job ids are ``<experiment id>_<step>``: map back by prefix."""
    for experiment, kind in bound.items():
        if smpc_job == experiment or smpc_job.startswith(f"{experiment}_"):
            return kind
    return None


PER_LAYER = (
    ("run.wall_s", "s"), ("run.experiments", "count"),
    *((f"{name}.busy_s", "s") for name in TIMED_LAYERS),
    *((f"{name}.share", "ratio") for name in TIMED_LAYERS),
    ("engine.execute.calls_per_exp", "count"),
    ("engine.execute.rows_out_per_exp", "count"),
    ("engine.ingest.busy_s", "s"),
    ("engine.ingest.cells_per_s", "1/s"),
    ("engine.ingest.setup_share", "ratio"),
    ("udfgen.generate.calls_per_exp", "count"),
    ("udfgen.plan_cache.lookups", "count"),
    ("udfgen.plan_cache.hit_ratio", "ratio"),
    ("transport.messages_per_exp", "count"),
    *((f"transport.messages.{kind}", "count") for kind in KINDS + ("other",)),
    *((f"worker.handle.busy_s.{kind}", "s") for kind in KINDS + ("other",)),
    ("transport.bytes_per_exp", "B"),
    ("transport.net_model_s", "s"),
    ("transport.net_model_busy_s", "s"),
    ("transport.retries", "count"),
    ("transport.failed_sends", "count"),
    ("master.local_step.calls_per_exp", "count"),
    ("smpc.aggregate.calls_per_exp", "count"),
    ("smpc.aggregate.busy_s.comparison", "s"),
    ("smpc.aggregate.busy_s.sum", "s"),
    ("smpc.rounds_per_exp", "count"),
    ("smpc.rounds_per_exp.comparison", "count"),
    ("smpc.rounds_per_exp.sum", "count"),
    ("smpc.elements_per_exp", "count"),
    ("jobs.queued_s.p50", "s"),
    ("jobs.queued_s.tail", "s"),
    ("jobs.queued_s.total", "s"),
    ("jobs.run_s.p50", "s"),
    ("jobs.depth_max", "count"),
    ("journal.appends_per_exp", "count"),
    ("journal.fsyncs_per_exp", "count"),
    ("journal.bytes_per_exp", "B"),
    ("checkpoint.writes_per_exp", "count"),
    ("checkpoint.bytes_per_exp", "B"),
    ("loadgen.lag_max_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
