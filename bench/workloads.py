"""The benchmark's workloads, what the tracer wraps, and the per-layer metrics.

Each workload drives the program only through its public functions. A
workload has a set-up (repeated, and timed as ``setup_s``), a unit of work
run in a closed loop by one caller, and checks on the unit's outputs. The
unit's ``outputs`` are bytes that must be identical for every unit of one
seed, traced or not.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from doprompt import cli, datagen, pipeline
from doprompt.config import VARIANTS, DataConfig, RunConfig, TrainConfig
from doprompt.vit import ViTConfig

import stats
from tracer import Stat, aggregate

NUM_DOMAINS = 4

# Functions traced per iteration (a train_step, or an infer chunk on
# infer_adapted); each reports calls, total ms and self ms per iteration.
FUNCS = (
    "pipeline.run_experiment",
    "pipeline.train_step",
    "pipeline.sample_step_batch",
    "pipeline.evaluate_accuracy",
    "pipeline.infer",
    "objectives.total_loss",
    "objectives.loss_prompt",
    "objectives.loss_w",
    "objectives.loss_erm",
    "vit.forward",
    "vit.attention_block",
    "vit.patch_embed",
    "prompting.adapter_forward",
    "prompting.compose_adapted_prompts",
    "prompting.domain_prompts",
    "tensor.backward",
    "optim.step_params",
    "checkpoint.save_arrays",
)
TENSOR_OPS = (
    "matmul", "add", "mul", "softmax", "layer_norm", "gelu", "dropout",
    "cross_entropy", "concat", "transpose", "reshape", "broadcast_to", "getitem",
)
# Remaining graph ops, traced so their time is not charged to their callers.
TENSOR_OTHER = ("sub", "div", "exp", "log", "clamp_min", "tensor_sum", "detach")
LAYERS = ("pipeline", "objectives", "vit", "prompting", "tensor", "optim", "checkpoint", "cli")
ENTRY = "cli._ablate_worker"
TRACED = (
    *FUNCS,
    *(f"tensor.{op}" for op in TENSOR_OPS + TENSOR_OTHER),
    "datagen.generate_dataset",
    "cli.main",
)
COUNTERS = {
    "vit.forward": lambda a, kw, r: (kw["images"] if "images" in kw else a[2]).shape[0],
    "optim.step_params": lambda a, kw, r: sum(a[0][n].data.size for n in a[2]),
    "checkpoint.save_arrays": lambda a, kw, r: os.path.getsize(a[0]),
    "datagen.generate_dataset": lambda a, kw, r: sum(len(lab) for lab in r.labels),
}


def program_modules() -> dict:
    """Short name -> module for every loaded module of the program."""
    return {
        name.split(".", 1)[1] if "." in name else name: mod
        for name, mod in sys.modules.items()
        if name == "doprompt" or name.startswith("doprompt.")
    }


def _loss_csv_finite(blob: bytes) -> bool:
    rows = blob.decode().strip().splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:])


def _weights_on_simplex(weights: np.ndarray) -> bool:
    return bool(np.all(np.abs(weights.sum(axis=-1) - 1.0) <= 1e-5))


def _chunked_infer(state, images):
    parts = [pipeline.infer(state, images[s : s + pipeline.EVAL_BATCH])
             for s in range(0, len(images), pipeline.EVAL_BATCH)]
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


class Workload:
    """A set-up, a unit of work and its checks; see the module docstring."""

    timed = "pipeline.train_step"  # the call timed on every run
    entries = ()  # functions that may run in forked workers
    workers = 1
    # Timed calls per untraced run, at least 100 so that p90 has 10 samples beyond it.
    min_calls = 100
    unit_name = "unit_s"  # printed name of the median unit wall time
    aliases = {  # printed names of the end-to-end metrics on this workload
        "call_ms_p50": "step_ms_p50",
        "call_ms_p90": "step_ms_p90",
        "img_per_s": "train_img_per_s",
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self):
        """One unit of work: returns (wall seconds, images processed, raw result)."""
        raise NotImplementedError

    def inspect(self, raw):
        """Returns (outputs: name -> bytes, checks: [(name, ok)])."""
        raise NotImplementedError

    def final_checks(self, raw) -> list:
        return []


class TrainDoprompt(Workload):
    """run_experiment for the doprompt variant at the default model shapes."""

    unit_name = "run_experiment_s"
    min_calls = 150  # the noisiest workload; a longer run averages over more of the host's drift
    STEPS = 20
    EVAL_INTERVAL = 10
    PER_DOMAIN = 100

    def setup(self):
        self.dataset = datagen.generate_dataset(NUM_DOMAINS, self.PER_DOMAIN, self.seed)
        train = TrainConfig(steps=self.STEPS, eval_interval=self.EVAL_INTERVAL, seed=self.seed)
        self.run_cfg = RunConfig(
            train=train,
            vit=ViTConfig(dropout_rate=train.dropout),
            data=DataConfig(NUM_DOMAINS, self.PER_DOMAIN, self.seed),
        )
        self.target = self.seed % NUM_DOMAINS

    def run(self):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        t0 = time.perf_counter()
        report = pipeline.run_experiment(self.dataset, self.target, "doprompt", self.run_cfg, out_dir=out)
        wall = time.perf_counter() - t0
        csv = (out / "loss_curve.csv").read_bytes()
        shutil.rmtree(out)
        images = self.STEPS * (NUM_DOMAINS - 1) * self.run_cfg.train.batch_per_domain
        return wall, images, (report, csv)

    def inspect(self, raw):
        report, csv = raw
        labels = self.dataset.labels[self.target]
        logits, weights = _chunked_infer(report["_state"], self.dataset.images[self.target])
        recomputed = int((logits.argmax(axis=1) == labels).sum()) / len(labels)
        checks = [
            ("loss terms finite", _loss_csv_finite(csv)),
            ("adapter weights sum to 1", _weights_on_simplex(weights)),
            ("test_acc equals accuracy of infer logits", report["test_acc"] == recomputed),
        ]
        return {"loss_curve.csv": csv}, checks


class InferAdapted(Workload):
    """Two-pass pipeline.infer in EVAL_BATCH chunks over every domain."""

    timed = "pipeline.infer"
    unit_name = "pass_s"
    aliases = {
        "call_ms_p50": "infer_batch_ms_p50",
        "call_ms_p90": "infer_batch_ms_p90",
        "img_per_s": "infer_img_per_s",
    }
    PER_DOMAIN = 640  # five full EVAL_BATCH chunks per domain
    PROMPT_LENGTH = 4

    def setup(self):
        self.dataset = datagen.generate_dataset(NUM_DOMAINS, self.PER_DOMAIN, self.seed)
        self.state = pipeline.init_state(
            ViTConfig(), num_domains=NUM_DOMAINS - 1, prompt_length=self.PROMPT_LENGTH, seed=self.seed
        )

    def run(self):
        per_domain = []
        t0 = time.perf_counter()
        for images in self.dataset.images:
            per_domain.append([
                pipeline.infer(self.state, images[s : s + pipeline.EVAL_BATCH])
                for s in range(0, len(images), pipeline.EVAL_BATCH)
            ])
        wall = time.perf_counter() - t0
        return wall, sum(len(x) for x in self.dataset.images), per_domain

    def inspect(self, raw):
        logits = np.concatenate([lg for chunks in raw for lg, _ in chunks])
        weights = np.concatenate([w for chunks in raw for _, w in chunks])
        checks = [
            ("logits finite", bool(np.isfinite(logits).all())),
            ("adapter weights sum to 1", _weights_on_simplex(weights)),
        ]
        return {"logits": logits.tobytes(), "weights": weights.tobytes()}, checks

    def final_checks(self, raw):
        checks = []
        for d, chunks in enumerate(raw):
            labels = self.dataset.labels[d]
            logits = np.concatenate([lg for lg, _ in chunks])
            recomputed = int((logits.argmax(axis=1) == labels).sum()) / len(labels)
            acc = pipeline.evaluate_accuracy(self.state, self.dataset.images[d], labels, "doprompt")
            checks.append((f"evaluate_accuracy equals infer logits on domain {d}", acc == recomputed))
        return checks


class AblateTiny(Workload):
    """``doprompt ablate``: 6 variants x 4 targets on a tiny model, via cli.main."""

    entries = (ENTRY,)
    unit_name = "ablate_s"
    STEPS = 20
    BATCH_PER_DOMAIN = 8
    PER_DOMAIN = 40
    CONFIG = {
        "embed_dim": 16,
        "depth": 1,
        "num_heads": 2,
        "mlp_ratio": 2.0,
        "prompt_length": 2,
        "steps": STEPS,
        "eval_interval": 10,
        "batch_per_domain": BATCH_PER_DOMAIN,
        "num_domains": NUM_DOMAINS,
        "per_domain_count": PER_DOMAIN,
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.workers = min(len(os.sched_getaffinity(0)), 2)
        self.config_path = self.workdir / "tiny.cfg"
        self.data_path = self.workdir / "tiny.dpd"

    def setup(self):
        text = "".join(f"{k} = {v}\n" for k, v in self.CONFIG.items())
        self.config_path.write_text(text + f"data_seed = {self.seed}\n")
        dataset = datagen.generate_dataset(NUM_DOMAINS, self.PER_DOMAIN, self.seed)
        datagen.save_dataset(self.data_path, dataset)

    def run(self):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        argv = [
            "ablate", "--config", str(self.config_path), "--data", str(self.data_path),
            "--out", str(out), "--workers", str(self.workers), "--seed", str(self.seed),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        table = json.loads((out / "ablation.json").read_text()) if code == 0 else {}
        curves = {p.parent.name: p.read_bytes() for p in sorted(out.glob("*/loss_curve.csv"))}
        shutil.rmtree(out)
        cells = len(VARIANTS) * NUM_DOMAINS
        images = cells * self.STEPS * (NUM_DOMAINS - 1) * self.BATCH_PER_DOMAIN
        return wall, images, (code, table, curves)

    def inspect(self, raw):
        code, table, curves = raw
        values = [v for row in table.values() for v in [*row["per_target"], row["average"]]]
        checks = [
            ("ablate exits 0", code == 0),
            ("no NaN cell", bool(values) and all(math.isfinite(v) for v in values)),
            ("every cell wrote a loss curve", len(curves) == len(VARIANTS) * NUM_DOMAINS),
            ("loss terms finite", all(_loss_csv_finite(c) for c in curves.values())),
        ]
        return curves, checks


WORKLOADS = {
    "train_doprompt": TrainDoprompt,
    "infer_adapted": InferAdapted,
    "ablate_tiny": AblateTiny,
}


class LayerTotals:
    """Accumulates traced units and turns them into the per-layer metrics."""

    def __init__(self):
        self.agg = defaultdict(Stat)
        self.cell_seconds = []  # one per ablate cell, from the forked workers
        self.wall = 0.0
        self.step_forwards = 0  # vit.forward calls inside a train_step
        self.step_rows = 0

    def add(self, spans, wall: float) -> None:
        aggregate(spans, self.agg)
        self.wall += wall
        self.cell_seconds += [t1 - t0 for _, _, name, t0, t1, _ in spans if name == ENTRY]
        parent_of = {sid: parent for sid, parent, *_ in spans}
        name_of = {sid: name for sid, _, name, *_ in spans}
        for sid, parent, name, _, _, rows in spans:
            if name != "vit.forward":
                continue
            while parent and name_of.get(parent) != "pipeline.train_step":
                parent = parent_of.get(parent, 0)
            if parent:
                self.step_forwards += 1
                self.step_rows += rows

    def metrics(self, setup_agg: dict, workers: int, iter_name: str, overhead_share: float) -> dict:
        """Per-layer metric name -> (value, unit)."""
        agg, zero = self.agg, Stat()
        iters = agg.get(iter_name, zero).calls
        per = (lambda x: x / iters) if iters else (lambda x: 0.0)
        m = {}
        for f in FUNCS:
            s = agg.get(f, zero)
            m[f"{f}.calls"] = (per(s.calls), "calls/iter")
            m[f"{f}.total_ms"] = (per(s.total) * 1e3, "ms/iter")
            m[f"{f}.self_ms"] = (per(s.self) * 1e3, "ms/iter")
        for op in TENSOR_OPS:
            s = agg.get(f"tensor.{op}", zero)
            m[f"tensor.{op}.calls"] = (per(s.calls), "calls/iter")
            m[f"tensor.{op}.self_ms"] = (per(s.self) * 1e3, "ms/iter")
        other = [agg.get(f"tensor.{op}", zero) for op in TENSOR_OTHER]
        m["tensor.other.calls"] = (per(sum(s.calls for s in other)), "calls/iter")
        m["tensor.other.self_ms"] = (per(sum(s.self for s in other)) * 1e3, "ms/iter")
        op_calls = sum(agg.get(f"tensor.{op}", zero).calls for op in TENSOR_OPS + TENSOR_OTHER)
        m["tensor.ops_per_step"] = (per(op_calls), "calls/iter")
        steps = agg.get("pipeline.train_step", zero)
        backward = agg.get("tensor.backward", zero).total
        m["tensor.backward.share"] = (backward / steps.total if steps.total else 0.0, "share")
        m["vit.forward.rows"] = (per(agg.get("vit.forward", zero).qty), "rows/iter")
        per_step = (lambda x: x / steps.calls) if steps.calls else (lambda x: 0.0)
        m["vit.forward.step_calls"] = (per_step(self.step_forwards), "calls/step")
        m["vit.forward.step_rows"] = (per_step(self.step_rows), "rows/step")
        m["optim.step_params.params"] = (per(agg.get("optim.step_params", zero).qty), "params/iter")
        save = agg.get("checkpoint.save_arrays", zero)
        m["checkpoint.save_arrays.bytes"] = (save.qty / save.calls if save.calls else 0.0, "bytes")
        gen = setup_agg.get("datagen.generate_dataset", zero)
        m["datagen.generate_dataset.s"] = (gen.total / gen.calls if gen.calls else 0.0, "s")
        m["datagen.images_per_s"] = (gen.qty / gen.total if gen.total else 0.0, "images/s")
        for layer in LAYERS:
            own = sum(s.self for name, s in agg.items() if name.startswith(layer + "."))
            m[f"{layer}.self_ms"] = (per(own) * 1e3, "ms/iter")
        cells = self.cell_seconds
        sweeps = agg.get("cli.main", zero).calls
        m["cli.cells"] = (len(cells) / sweeps if sweeps else 0.0, "count")
        m["cli.cell_s_p50"] = (stats.median(cells) if cells else 0.0, "s")
        m["cli.cell_s_max"] = (max(cells, default=0.0), "s")
        busy = sum(cells) / (workers * self.wall) if cells else 1.0
        m["cli.pool_idle_share"] = (1.0 - busy, "share")
        m["trace.overhead_share"] = (overhead_share, "share")
        return m
