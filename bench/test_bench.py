"""Tests of the benchmark's own code: self time, percentiles and wrappers."""

import json
import sys
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from doprompt import objectives, pipeline, prompting  # noqa: E402
from doprompt.config import DataConfig, RunConfig, TrainConfig  # noqa: E402
from doprompt.datagen import generate_dataset  # noqa: E402
from doprompt.vit import ViTConfig  # noqa: E402


def span(sid, parent, name, t0, t1, qty=0):
    return (sid, parent, name, t0, t1, qty)


def test_self_time_subtracts_nested_children():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 2, "leaf", 2.0, 3.0),
        span(4, 1, "b", 5.0, 9.0),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})


def test_self_time_merges_overlapping_children_and_clips_them():
    spans = [
        span(1, 0, "sweep", 0.0, 10.0),
        span(2, 1, "cell", 1.0, 6.0),  # two workers at once
        span(3, 1, "cell", 4.0, 8.0),
        span(4, 1, "cell", 9.0, 12.0),  # ends after its parent
    ]
    assert tracer.self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_aggregate_sums_per_name():
    spans = [
        span(1, 0, "f", 0.0, 4.0, qty=5),
        span(2, 1, "g", 1.0, 2.0),
        span(3, 0, "f", 5.0, 6.0, qty=7),
    ]
    agg = tracer.aggregate(spans)
    assert (agg["f"].calls, agg["f"].qty) == (2, 12)
    assert agg["f"].total == pytest.approx(5.0)
    assert agg["f"].self == pytest.approx(4.0)
    assert agg["g"].self == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 50) == 50
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_every_workload_name_has_a_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = workloads.LayerTotals().metrics({}, 1, "pipeline.train_step", 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in metrics.items()]


def _tiny_run():
    train = TrainConfig(steps=4, batch_per_domain=4, dropout=0.1, prompt_length=2, seed=3, eval_interval=2)
    vit_cfg = ViTConfig(embed_dim=16, depth=1, num_heads=2, mlp_ratio=2.0, dropout_rate=0.1)
    return RunConfig(train=train, vit=vit_cfg, data=DataConfig(num_domains=4, per_domain_count=20))


def _experiment(dataset, out):
    report = pipeline.run_experiment(dataset, 1, "doprompt", _tiny_run(), out_dir=out)
    logits, weights = pipeline.infer(report["_state"], dataset.images[1])
    return (out / "loss_curve.csv").read_bytes(), logits, weights


def test_wrappers_leave_results_unchanged(tmp_path):
    dataset = generate_dataset(4, 20, 5)
    modules = workloads.program_modules()
    original = prompting.adapter_forward
    plain = _experiment(dataset, tmp_path / "plain")

    t = tracer.Tracer(tmp_path)
    t.install(modules, workloads.TRACED, (workloads.ENTRY,), workloads.COUNTERS)
    try:
        # objectives imports the prompting functions by name; both are wrapped
        assert objectives.adapter_forward is prompting.adapter_forward is not original
        traced = _experiment(dataset, tmp_path / "traced")
    finally:
        t.restore()
    assert prompting.adapter_forward is objectives.adapter_forward is original

    assert traced[0] == plain[0]
    np.testing.assert_array_equal(traced[1], plain[1])
    np.testing.assert_array_equal(traced[2], plain[2])
    names = {s[2] for s in t.take()}
    assert {"pipeline.train_step", "objectives.loss_prompt", "prompting.adapter_forward",
            "vit.attention_block", "tensor.backward", "tensor.matmul", "checkpoint.save_arrays"} <= names


def _leaf(x):
    return x + 1


def _cell(x):
    return _leaf(x) * 2


def test_spans_from_forked_workers_reach_the_parent(tmp_path):
    t = tracer.Tracer(tmp_path)
    t.install({"t": sys.modules[__name__]}, ["t._leaf"], entries=["t._cell"])
    try:
        with get_context("fork").Pool(2) as pool:
            assert pool.map(_cell, [1, 2, 3]) == [4, 6, 8]
    finally:
        t.restore()
    spans = t.take()
    cells = [s for s in spans if s[2] == "t._cell"]
    leaves = [s for s in spans if s[2] == "t._leaf"]
    assert len(cells) == len(leaves) == 3
    assert {s[1] for s in leaves} == {s[0] for s in cells}
    assert not list(tmp_path.glob("spans-*"))
