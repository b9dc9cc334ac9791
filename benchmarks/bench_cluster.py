"""Cluster campaign + scaling sweep — multi-process kill tolerance."""

from conftest import run_experiment
from repro.experiments import cluster, cluster_scaling


def test_cluster(benchmark, scale):
    result = run_experiment(benchmark, cluster.run, "cluster", scale=scale)
    assert result.summary["kills"] >= 200
    assert result.summary["workers"] >= 8
    assert result.summary["recoveries"] >= result.summary["kills"]
    assert result.summary["lost_sessions"] == 0
    assert result.summary["silent_corruptions"] == 0
    assert result.summary["completed"] == result.summary["planned"]
    assert result.summary["p99_blip_bounded"] == 1
    assert result.summary["drained_clean"] == 1
    assert result.summary["campaign_ok"] == 1


def test_cluster_scaling(benchmark, scale):
    result = run_experiment(
        benchmark, cluster_scaling.run, "cluster_scaling", scale=scale
    )
    assert result.summary["silent_corruptions"] == 0
    assert result.summary["drained_clean"] == 1
    assert result.summary["plateau_ok"] == 1
    assert result.summary["scaling_ok"] in (1, cluster_scaling.NOT_MEASURED)
