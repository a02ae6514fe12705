"""Self-tests of the benchmark: its statistics, oracle, knobs and probes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from perfbench import oracle, run, trace, workloads
from perfbench.stats import (
    arrival_offsets,
    backlog_growing,
    completion_rate,
    due_latency,
    min_samples_for,
    percentile,
    samples_beyond,
)


# ----------------------------------------------------------------- percentiles


def test_tail_percentile_leaves_ten_samples_beyond():
    assert min_samples_for(75.0) == 38
    assert min_samples_for(90.0) == 92
    assert samples_beyond(37, 75.0) < 10 <= samples_beyond(38, 75.0)
    for n in (38, 40, 57, 100, 333):
        values = [float(v) for v in range(n)]
        beyond = sum(v > percentile(values, 75.0) for v in values)
        assert beyond == samples_beyond(n, 75.0) >= 10
    # Every workload's fixed tail percentile obeys the rule at its minimum.
    for workload in workloads.WORKLOADS.values():
        assert samples_beyond(min_samples_for(workload.tail_percentile),
                              workload.tail_percentile) >= 10


def test_percentile_interpolates():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 75) == 4.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([7.0], 99) == 7.0


# ------------------------------------------------------------------- open loop


def test_latency_runs_from_the_due_time():
    # Sent on time: queueing plus run time.
    assert due_latency(due=10.0, submit_return=10.0, queued_s=0.2, run_s=0.3) == pytest.approx(0.5)
    # Sent 0.4 s late: the generator's lag is charged to the request.
    assert due_latency(due=10.0, submit_return=10.4, queued_s=0.2, run_s=0.3) == pytest.approx(0.9)


def test_backlog_growth_is_detected():
    assert not backlog_growing([1, 2, 1, 2, 2, 1, 2, 1, 2, 1], slack=2)
    assert backlog_growing([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], slack=2)
    assert not backlog_growing([1, 9], slack=2)


def test_completion_rate_is_the_slope_of_completions():
    assert completion_rate([0.25 * k for k in range(1, 41)]) == pytest.approx(4.0)
    # A late last completion barely moves the slope, unlike count / span.
    late = [0.25 * k for k in range(1, 40)] + [12.0]
    assert completion_rate(late) == pytest.approx(4.0, rel=0.1)
    assert 40 / 12.0 < 3.5


def test_arrivals_are_seeded_and_each_block_spans_its_share():
    first = arrival_offsets(np.random.default_rng(3), rate=4.0, count=40, block=8)
    again = arrival_offsets(np.random.default_rng(3), rate=4.0, count=40, block=8)
    other = arrival_offsets(np.random.default_rng(4), rate=4.0, count=40, block=8)
    assert first == again and first != other
    assert first[0] == 0.0 and all(b > a for a, b in zip(first, first[1:]))
    for block in range(1, 5):
        assert first[8 * block] == pytest.approx(2.0 * block)
        assert other[8 * block] == pytest.approx(2.0 * block)


# ---------------------------------------------------------------------- oracle


@pytest.fixture(scope="module")
def pooled():
    from repro import CohortSpec, generate_cohort

    return oracle.Pooled({
        dataset: generate_cohort(CohortSpec(dataset, 300, seed=i))
        for i, dataset in enumerate(workloads.DATASETS)
    })


def test_oracle_rejects_a_perturbed_coefficient(pooled):
    request = workloads._request(
        "linear_regression", workloads.DATASETS, ["lefthippocampus"], ["agevalue", "p_tau"]
    )
    expected = oracle.reference(pooled, request)
    exact = {"coefficients": expected["coefficients"].tolist(),
             "n_observations": expected["n_observations"]}
    assert oracle.compare(expected, exact, "plain") is None
    assert oracle.compare(expected, exact, "smpc") is None
    perturbed = dict(exact, coefficients=list(exact["coefficients"]))
    perturbed["coefficients"][1] *= 1.01
    assert oracle.compare(expected, perturbed, "plain") is not None
    assert oracle.compare(expected, perturbed, "smpc") is not None
    # Within a thousandth of the standard error is SMPC rounding, not a defect.
    rounded = dict(exact, coefficients=list(exact["coefficients"]))
    rounded["coefficients"][1] += 5e-4 * expected["coefficient_se"][1]
    assert oracle.compare(expected, rounded, "smpc") is None


def test_oracle_rejects_a_wrong_minimum(pooled):
    request = workloads._request("descriptive_stats", workloads.DATASETS, ["brainstem"])
    expected = oracle.reference(pooled, request)
    fields = {k: float(v) for k, v in expected["pooled"]["brainstem"].items()}
    assert oracle.compare(expected, {"pooled": {"brainstem": fields}}, "smpc") is None
    fields["min"] += 0.01
    assert oracle.compare(expected, {"pooled": {"brainstem": fields}}, "smpc") is not None


# ----------------------------------------------------------------------- knobs


def test_knobs_away_from_default_are_refused():
    run.check_knobs({})
    run.check_knobs({"REPRO_FLOW_MODE": "eager", "REPRO_TRACE": "0", "REPRO_SMPC_KERNEL": "auto"})
    for name, value in (
        ("REPRO_FLOW_MODE", "pipeline"),
        ("REPRO_PLAN_CACHE", "1"),
        ("REPRO_SMPC_KERNEL", "python"),
        ("REPRO_FEDERATION_PARALLELISM", "1"),
        ("REPRO_TRACE", "1"),
        ("REPRO_LOG_LEVEL", "debug"),
    ):
        with pytest.raises(run.Refused):
            run.check_knobs({name: value})


# ---------------------------------------------------------------------- probes

#: Layers each workload is built to load; a miniature traced run of the
#: workload must report busy time in every one of them.
DESIGNED = {
    "cohort-scan": ("engine.execute", "engine.ingest", "udfgen.generate",
                    "worker.handle.busy_s.run_udf", "master.gather"),
    "secure-stats": ("smpc.aggregate", "smpc.aggregate.busy_s.comparison",
                     "smpc.aggregate.busy_s.sum", "smpc.import_shares", "master.gather_secure"),
    "wan-queue": ("transport.send", "transport.net_model_busy_s", "durability", "master.broadcast",
                  "journal.fsyncs_per_exp", "checkpoint.writes_per_exp"),
}


def _miniature(name: str) -> workloads.Workload:
    workload = workloads.WORKLOADS[name]
    small = dict(rows_per_site=150, setup_repeats=2, tail_percentile=50.0)
    if workload.open_loop:
        small.update(rates=(40.0,), operating_rate=40.0, rate_shares=(1.0,))
    return dataclasses.replace(workload, **small)


@pytest.mark.parametrize("name", sorted(DESIGNED))
def test_probes_see_every_designed_layer(name, tmp_path):
    outcome = trace.run(_miniature(name), seed=5, seconds=0.5, work_dir=str(tmp_path))
    assert outcome["checker"].failures == []
    metrics = outcome["metrics"]
    for layer in DESIGNED[name]:
        value = metrics.get(layer, metrics.get(f"{layer}.busy_s"))
        assert value and value > 0, f"{name}: {layer} reported {value}"
    assert set(metrics) >= {metric for metric, _unit in trace.PER_LAYER}


def test_probes_leave_the_program_as_they_found_it():
    from repro.engine.database import Database
    from repro.federation import worker
    from repro.federation.worker import Worker
    from repro.udfgen import generator

    before = (Database.execute, Worker.handle, worker.generate_udf_application,
              generator.generate_udf_application)
    probes = trace.Probes()
    probes.install()
    assert worker.generate_udf_application is not before[2]
    assert Database.execute is not before[0]
    probes.uninstall()
    assert (Database.execute, Worker.handle, worker.generate_udf_application,
            generator.generate_udf_application) == before


@pytest.mark.parametrize("name", sorted(DESIGNED))
def test_measure_reports_every_end_to_end_metric(name, tmp_path):
    outcome = workloads.measure(_miniature(name), seed=5, seconds=0.5, work_dir=str(tmp_path))
    assert outcome["checker"].failures == []
    assert all(outcome["metrics"][metric] > 0 for metric in run.END_TO_END)
    assert len(outcome["info"]["setup_times_s"]) == 2
