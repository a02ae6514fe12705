"""The benchmark's workloads and the loops that drive them.

Each workload loads a different layer of the program, so that a change to
one layer shows on the workload built for it and is predicted to leave the
others unchanged (see README.md for the map):

- ``cohort-scan``: one client, closed loop, plain aggregation, 4 sites x
  100k rows, no modeled sleeps. Engine SQL/UDF execution dominates the
  experiments and per-cell ingest dominates set-up.
- ``secure-stats``: one client, closed loop, Shamir SMPC on 3 nodes, 4 sites
  x 2k rows. Secure min/max (comparison-bound) and secure sums dominate.
- ``wan-queue``: open loop of seeded Poisson arrivals into a two-executor
  service with a journal, SMPC, and 5 ms of slept latency per message.
  Modeled network waits, queueing and journal/checkpoint writes dominate.
  Latency is read at an operating rate below the knee, capacity from an
  overload step that keeps the queue full.

Request mixes are built in whole cycles with a fixed composition: the seed
picks variables, dataset subsets, orders and arrival times, never how many
requests of each algorithm run, so the latency distribution is comparable
across seeds.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from perfbench import oracle
from perfbench.stats import (
    arrival_offsets,
    backlog_growing,
    completion_rate,
    due_latency,
    min_samples_for,
    percentile,
    samples_beyond,
)

DATA_MODEL = "dementia"
#: One dataset per site; codes come from the data model's catalogue.
DATASETS = ("edsd", "adni", "ppmi", "brescia")
NUMERIC = (
    "lefthippocampus", "righthippocampus", "leftamygdala", "rightamygdala",
    "leftlateralventricle", "rightlateralventricle", "brainstem", "csfglobal",
    "leftententorhinalarea", "rightententorhinalarea",
    "agevalue", "minimentalstate", "p_tau", "ab_42",
)
BINARY_RESPONSE = "converted_ad"
GROUPINGS = ("gender", "psy_etiology", "va_etiology")
#: Algorithms whose SMPC work is secure comparison (min/max); the rest sum.
COMPARISON_BOUND = ("descriptive_stats",)
#: A fixed Newton budget: with the default tolerance the iteration count
#: depends on the data (and under SMPC the fixed-point log-likelihood may
#: never settle below it), which would make a request's cost a function of
#: the seed. Eight iterations from zero converge on these cohorts.
LOGISTIC_PARAMETERS = {"max_iterations": 8, "tolerance": 0.0}


# ------------------------------------------------------------------ requests


def _request(algorithm: str, datasets, y, x=(), parameters=None) -> dict[str, Any]:
    return {
        "algorithm": algorithm,
        "data_model": DATA_MODEL,
        "datasets": sorted(datasets),
        "y": list(y),
        "x": list(x),
        "parameters": dict(parameters or {}),
    }


def _pick(rng, pool, k: int) -> list[str]:
    return [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]


def _regression(rng, algorithm: str, datasets, n_covariates: int = 2) -> dict[str, Any]:
    if algorithm == "logistic_regression":
        return _request(
            algorithm, datasets, [BINARY_RESPONSE], _pick(rng, NUMERIC, n_covariates),
            LOGISTIC_PARAMETERS,
        )
    chosen = _pick(rng, NUMERIC, n_covariates + 1)
    return _request(algorithm, datasets, chosen[:1], chosen[1:])


def _shuffled(rng, cycle: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [cycle[i] for i in rng.permutation(len(cycle))]


def cohort_scan_cycles(rng) -> Iterator[list[dict[str, Any]]]:
    """Two Pearson correlations, three linear regressions, two descriptive
    stats and one logistic regression, each over 3 of the 4 datasets.

    Sorted by latency the cycle's steps end at 2/8, 5/8 and 7/8, so the
    median sits inside the linear regressions and the 75th percentile inside
    the descriptive stats, an eighth away from either edge."""
    while True:
        def subset():
            return _pick(rng, DATASETS, 3)

        yield _shuffled(rng, [
            *(_request("pearson_correlation", subset(), _pick(rng, NUMERIC, 3)) for _ in range(2)),
            *(_regression(rng, "linear_regression", subset()) for _ in range(3)),
            *(_request("descriptive_stats", subset(), _pick(rng, NUMERIC, 2)) for _ in range(2)),
            _regression(rng, "logistic_regression", subset()),
        ])


def secure_stats_cycles(rng) -> Iterator[list[dict[str, Any]]]:
    """Three rounds of descriptive stats over 1, 2, 3 and 4 variables
    (secure min/max: comparison-bound) plus a linear regression, a Pearson
    correlation and a logistic regression (secure sums: sum-bound), in a
    seeded order.

    Sorted by latency, the three sum-bound requests and the one-variable
    descriptive stats fill the first two fifths, then come 2, 3 and 4
    variables. The median sits in the middle of the two-variable and the
    75th percentile inside the three-variable descriptive stats, each well
    apart in latency from its neighbours."""
    while True:
        cycle = [
            _request("descriptive_stats", DATASETS, _pick(rng, NUMERIC, k))
            for _ in range(3)
            for k in (1, 2, 3, 4)
        ]
        cycle += [
            _regression(rng, "linear_regression", DATASETS),
            _request("pearson_correlation", DATASETS, _pick(rng, NUMERIC, 2)),
            _regression(rng, "logistic_regression", DATASETS),
        ]
        yield _shuffled(rng, cycle)


def wan_queue_cycles(rng) -> Iterator[list[dict[str, Any]]]:
    """Three one-shot requests (linear regression, Pearson, t-test) and five
    iterative logistic regressions, in a seeded order.

    The logistic regressions are the slowest 5/8, so the median and the 75th
    percentile both sit inside them. About half of their latency is modeled
    round trips (eight Newton iterations, each a broadcast, a local step and a
    secure gather), which CPU speed does not move."""
    while True:
        yield _shuffled(rng, [
            _regression(rng, "linear_regression", DATASETS),
            _request("pearson_correlation", DATASETS, _pick(rng, NUMERIC, 2)),
            _request(
                "ttest_independent", DATASETS, _pick(rng, NUMERIC, 1),
                [GROUPINGS[int(rng.integers(len(GROUPINGS)))]],
            ),
            *(_regression(rng, "logistic_regression", DATASETS) for _ in range(5)),
        ])


# ----------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    rows_per_site: int
    aggregation: str
    cycles: Callable[[Any], Iterator[list[dict[str, Any]]]]
    #: The fixed tail percentile; runs keep going until it has 10 samples
    #: beyond it.
    tail_percentile: float
    #: Set-ups timed for ``setup_s``, half before the measured stretch and
    #: half after it, so that they span the run as the experiment metrics do.
    setup_repeats: int
    federation: dict[str, Any] = field(default_factory=dict)
    pool_size: int = 1
    durable: bool = False
    #: Open loop only: swept rates (exp/s), the highest far past the knee to
    #: measure capacity; the operating rate, where latency is read; the share
    #: of the run each rate gets; and the latency limit on the tail percentile.
    rates: tuple[float, ...] = ()
    operating_rate: float = 0.0
    rate_shares: tuple[float, ...] = ()
    tail_limit_s: float = 0.0

    @property
    def open_loop(self) -> bool:
        return bool(self.rates)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cohort-scan",
            rows_per_site=100_000,
            aggregation="plain",
            cycles=cohort_scan_cycles,
            tail_percentile=75.0,
            setup_repeats=1,
        ),
        Workload(
            name="secure-stats",
            rows_per_site=2_000,
            aggregation="smpc",
            cycles=secure_stats_cycles,
            tail_percentile=75.0,
            setup_repeats=10,
            # Journal and checkpoints on, so that a gated workload loads the
            # durability layer (wan-queue, which also does, is not gated).
            durable=True,
        ),
        Workload(
            name="wan-queue",
            rows_per_site=1_000,
            aggregation="smpc",
            cycles=wan_queue_cycles,
            tail_percentile=75.0,
            setup_repeats=10,
            federation={"latency_seconds": 0.005, "sleep_latency": True},
            pool_size=2,
            durable=True,
            # The operating rate is about a third of capacity on a 2-vCPU
            # host. Nearer the knee, how often experiments overlap on the two
            # executors, which the arrival seed decides, sets the latency.
            rates=(1.5, 24.0),
            operating_rate=1.5,
            rate_shares=(1.0, 0.11),
            tail_limit_s=2.0,
        ),
    )
}


# -------------------------------------------------------------------- set-up


@dataclass
class Deployment:
    service: Any
    federation: Any
    pooled: oracle.Pooled
    state_dir: str | None

    def close(self) -> None:
        self.service.shutdown()
        self.federation.shutdown()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def set_up(workload: Workload, seed: int, state_dir: str | None) -> Deployment:
    """Generate and ingest the cohorts, build the federation, start the
    service (replaying its journal when durable). This is what ``setup_s``
    times."""
    from repro import CohortSpec, FederationConfig, MIPService, create_federation, generate_cohort

    tables = {
        dataset: generate_cohort(
            CohortSpec(dataset, workload.rows_per_site, seed=seed * len(DATASETS) + index)
        )
        for index, dataset in enumerate(DATASETS)
    }
    federation = create_federation(
        {f"site_{dataset}": {DATA_MODEL: table} for dataset, table in tables.items()},
        FederationConfig(seed=seed, **workload.federation),
    )
    service = MIPService(
        federation,
        aggregation=workload.aggregation,
        pool_size=workload.pool_size,
        state_dir=state_dir,
    )
    return Deployment(service, federation, oracle.Pooled(tables), state_dir)


def timed_set_up(workload: Workload, seed: int, work_dir: str,
                 repeats: int = 1) -> tuple[Deployment, list[float]]:
    """Set up ``repeats`` times; keep the last deployment."""
    times = []
    deployment = None
    for _attempt in range(repeats):
        if deployment is not None:
            deployment.close()
        state_dir = tempfile.mkdtemp(prefix="state", dir=work_dir) if workload.durable else None
        started = time.perf_counter()
        deployment = set_up(workload, seed, state_dir)
        times.append(time.perf_counter() - started)
    return deployment, times


# --------------------------------------------------------------------- loops


@dataclass
class Sample:
    request: dict[str, Any]
    result: Any
    latency_s: float
    error: str | None = None


@dataclass
class Window:
    """What one measured stretch of a loop produced."""

    samples: list[Sample]
    wall_s: float
    cpu_s: float
    net_model_s: float
    #: Open loop only.
    lag_max_s: float = 0.0
    depth_max: int = 0
    growing: bool = False
    job_ids: list[str] = field(default_factory=list)
    #: Open loop only: when each request finished, on the run's clock.
    finished: list[float] = field(default_factory=list)
    #: Closed loop only: the cycles that ran, for an identical replay.
    cycles: list[list[dict[str, Any]]] = field(default_factory=list)


def _run_one(service, request) -> Sample:
    from repro.errors import ReproError

    started = time.perf_counter()
    try:
        result = service.run_experiment(**request)
    except ReproError as exc:
        return Sample(request, None, time.perf_counter() - started, f"{type(exc).__name__}: {exc}")
    return Sample(request, result, time.perf_counter() - started)


def closed_loop(service, cycles: list[list[dict[str, Any]]] | Iterator, seconds: float,
                min_samples: int) -> Window:
    """Run whole cycles until ``seconds`` passed and ``min_samples`` are in.

    Given a list, runs exactly those cycles instead (a replay)."""
    transport = service.federation.transport
    samples: list[Sample] = []
    replay = isinstance(cycles, list)
    source = iter(cycles)
    net_before = transport.snapshot().simulated_seconds
    cpu_before = time.process_time()
    started = time.perf_counter()
    ran = []
    for cycle in source:
        ran.append(cycle)
        for request in cycle:
            samples.append(_run_one(service, request))
        elapsed = time.perf_counter() - started
        if not replay and elapsed >= seconds and len(samples) >= min_samples:
            break
    return Window(
        samples,
        wall_s=time.perf_counter() - started,
        cpu_s=time.process_time() - cpu_before,
        net_model_s=transport.snapshot().simulated_seconds - net_before,
        job_ids=[s.result.experiment_id for s in samples if s.result is not None],
        cycles=ran,
    )


def open_step(service, requests: list[dict[str, Any]], offsets: list[float],
              pool_size: int) -> Window:
    """Submit ``requests`` at their due times from this one thread, then
    collect them. Latency runs from each request's due time."""
    from repro.errors import ReproError

    transport = service.federation.transport
    queue = service.engine.queue
    net_before = transport.snapshot().simulated_seconds
    cpu_before = time.process_time()
    origin = time.perf_counter() + 0.01
    sent = []
    outstanding = []
    lag_max = 0.0
    depth_max = 0
    for offset, request in zip(offsets, requests):
        due = origin + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        called = time.perf_counter()
        lag = called - due
        lag_max = max(lag_max, lag)
        job_id = service.submit_experiment(**request)
        returned = time.perf_counter()
        state = queue.stats()
        depth_max = max(depth_max, state["depth"])
        outstanding.append(state["depth"] + state["running"])
        sent.append((request, job_id, due, returned))
    samples = []
    finished = []
    for request, job_id, due, returned in sent:
        try:
            result = service.wait_experiment(job_id, timeout=120)
            error = None
        except (ReproError, TimeoutError) as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        job = queue.job(job_id)
        latency = due_latency(due, returned, job.queued_seconds, job.elapsed_seconds or 0.0)
        finished.append(due + latency)
        samples.append(Sample(request, result, latency, error))
    return Window(
        samples,
        wall_s=max(finished) - origin,
        cpu_s=time.process_time() - cpu_before,
        net_model_s=transport.snapshot().simulated_seconds - net_before,
        lag_max_s=lag_max,
        depth_max=depth_max,
        growing=backlog_growing(outstanding, slack=2 * pool_size),
        job_ids=[job_id for _request, job_id, _due, _returned in sent],
        finished=finished,
    )


# ------------------------------------------------------------------ checking


class Checker:
    """Counts attempts and failures; a wrong result is a failure."""

    def __init__(self, deployment: Deployment, aggregation: str) -> None:
        self.pooled = deployment.pooled
        self.mode = aggregation
        self.references: dict[str, dict[str, Any]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, samples: list[Sample]) -> None:
        for sample in samples:
            self.attempted += 1
            problem = sample.error
            if problem is None and sample.result.status.value != "success":
                problem = f"{sample.result.status.value}: {sample.result.error}"
            if problem is None:
                key = oracle.request_key(sample.request)
                if key not in self.references:
                    self.references[key] = oracle.reference(self.pooled, sample.request)
                problem = oracle.compare(self.references[key], sample.result.result, self.mode)
            if problem is not None:
                self.failures.append(f"{sample.request['algorithm']}: {problem}")


# ---------------------------------------------------------------------- runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def request_cycles(workload: Workload, seed: int) -> Iterator[list[dict[str, Any]]]:
    return workload.cycles(np.random.default_rng([seed, 1]))


def warm_up(deployment: Deployment, cycles, checker: Checker) -> None:
    """One request of each algorithm in the mix, outside the timed region,
    so caches fill and lazy set-up ends first."""
    first = {}
    for request in next(cycles):
        first.setdefault(request["algorithm"], request)
    window = closed_loop(deployment.service, [list(first.values())], 0.0, 0)
    checker.check(window.samples)


def step_plan(workload: Workload, seconds: float, seed: int, cycles: Iterator):
    """(rate, requests, offsets) for each swept rate; seeded arrivals.

    Each step carries whole request-mix cycles, so every rate sees the same
    mix, and each cycle arrives in the same time on every seed."""
    rng = np.random.default_rng([seed, 2])
    plan = []
    for rate, share in zip(workload.rates, workload.rate_shares):
        count = round(rate * seconds * share)
        if rate == workload.operating_rate:
            count = max(count, min_samples_for(workload.tail_percentile))
        requests: list[dict[str, Any]] = []
        block = 0
        while len(requests) < count:
            cycle = next(cycles)
            block = len(cycle)
            requests.extend(cycle)
        plan.append((rate, requests, arrival_offsets(rng, rate, len(requests), block)))
    return plan


def measure(workload: Workload, seed: int, seconds: float, work_dir: str) -> dict[str, Any]:
    """An untraced run: every end-to-end metric."""
    after = workload.setup_repeats // 2
    deployment, setup_times = timed_set_up(
        workload, seed, work_dir, workload.setup_repeats - after
    )
    checker = Checker(deployment, workload.aggregation)
    cycles = request_cycles(workload, seed)
    try:
        warm_up(deployment, cycles, checker)
        if workload.open_loop:
            metrics, info = _measure_open(workload, deployment, seconds, seed, cycles, checker)
        else:
            window = closed_loop(
                deployment.service, cycles, seconds, min_samples_for(workload.tail_percentile)
            )
            checker.check(window.samples)
            metrics, info = _latency_metrics(workload, window)
            metrics["throughput_eps"] = len(window.samples) / window.wall_s
    finally:
        deployment.close()
    if after:
        extra, extra_times = timed_set_up(workload, seed, work_dir, after)
        extra.close()
        setup_times += extra_times
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb()
    info["setup_times_s"] = setup_times
    return {"metrics": metrics, "info": info, "checker": checker}


def _latency_metrics(workload: Workload, window: Window) -> tuple[dict[str, float], dict[str, Any]]:
    latencies = [s.latency_s for s in window.samples]
    n = len(window.samples)
    metrics = {
        "experiment_p50_s": percentile(latencies, 50),
        "experiment_tail_s": percentile(latencies, workload.tail_percentile),
        "cpu_s_per_exp": window.cpu_s / n,
        "net_model_s_per_exp": window.net_model_s / n,
    }
    info = {
        "samples": n,
        "tail_percentile": workload.tail_percentile,
        "samples_beyond_tail": samples_beyond(n, workload.tail_percentile),
        "measured_wall_s": window.wall_s,
    }
    return metrics, info


def _measure_open(workload, deployment, seconds, seed, cycles, checker):
    steps = []
    windows = []
    operating = overload = None
    for rate, requests, offsets in step_plan(workload, seconds, seed, cycles):
        window = open_step(deployment.service, requests, offsets, workload.pool_size)
        checker.check(window.samples)
        windows.append(window)
        latencies = [s.latency_s for s in window.samples]
        tail = percentile(latencies, workload.tail_percentile)
        failed = any(s.error or s.result.status.value != "success" for s in window.samples)
        steps.append({
            "rate_eps": rate,
            "samples": len(latencies),
            "p50_s": percentile(latencies, 50),
            "tail_s": tail,
            "completed_eps": completion_rate(window.finished),
            "cpu_s_per_exp": window.cpu_s / len(latencies),
            "lag_max_s": window.lag_max_s,
            "depth_max": window.depth_max,
            "backlog_growing": window.growing,
            "meets_limit": tail <= workload.tail_limit_s and not window.growing and not failed,
        })
        if rate == workload.operating_rate:
            operating = window
        if rate == max(workload.rates):
            overload = window
    metrics, info = _latency_metrics(workload, operating)
    # Offered far past the knee, the queue never empties, so completions
    # run at the rate the service sustains: its capacity, not the offer.
    metrics["throughput_eps"] = completion_rate(overload.finished)
    # CPU and modeled network per experiment over every step: more
    # experiments, and the same mix, as the operating rate alone.
    completed = sum(len(w.samples) for w in windows)
    metrics["cpu_s_per_exp"] = sum(w.cpu_s for w in windows) / completed
    metrics["net_model_s_per_exp"] = sum(w.net_model_s for w in windows) / completed
    info.update(
        operating_rate_eps=workload.operating_rate,
        tail_limit_s=workload.tail_limit_s,
        lag_max_s=operating.lag_max_s,
        depth_max=operating.depth_max,
        steps=steps,
    )
    return metrics, info
