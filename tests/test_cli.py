"""Command line: the sweep table layout, checkpoint reloads, the analysis
reports, and the exit code and one-line message of every kind of failure."""

import io
import json
import multiprocessing.pool
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from doprompt import checkpoint as ckpt
from doprompt import cli, datagen, pipeline
from doprompt.config import VARIANTS, load_config

from conftest import looped_per_prompt_logits

TINY = {
    "embed_dim": 16,
    "depth": 1,
    "num_heads": 2,
    "mlp_ratio": 2.0,
    "prompt_length": 2,
    "steps": 2,
    "eval_interval": 1,
    "batch_per_domain": 4,
    "num_domains": 3,
    "per_domain_count": 20,
}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()))
    return str(path)


def test_ablate_writes_one_table_row_and_curve_per_cell(tmp_path, config, capsys):
    out = tmp_path / "out"
    assert cli.main(["ablate", "--config", config, "--out", str(out)]) == cli.EXIT_OK
    table = json.loads((out / "ablation.json").read_text())
    assert list(table) == sorted(VARIANTS)
    assert all(len(row["per_target"]) == 3 and 0.0 <= row["average"] <= 1.0 for row in table.values())
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "variant,target_0,target_1,target_2,average"
    assert [line.split(",")[0] for line in lines[1:]] == list(VARIANTS)
    curves = sorted(p.parent.name for p in out.glob("*/loss_curve.csv"))
    assert curves == sorted(f"{v}_t{t}_s0" for v in VARIANTS for t in range(3))


def test_ablate_writes_the_same_bytes_on_one_and_two_workers(tmp_path, config, capsys):
    written = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        assert cli.main(["ablate", "--config", config, "--out", str(out), "--workers", str(workers)]) == cli.EXIT_OK
        written.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(written[0]) == 2 + 3 * len(VARIANTS) * 3  # the table's CSV and JSON, three files a cell
    assert written[1].keys() == written[0].keys()
    for name, content in written[0].items():
        assert written[1][name] == content, name


def test_ablate_hands_the_pool_one_cell_per_task(tmp_path, config, capsys, monkeypatch):
    chunksizes = []
    pool_map = multiprocessing.pool.Pool.map

    def spy(self, func, iterable, chunksize=None):
        chunksizes.append(chunksize)
        return pool_map(self, func, iterable, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", spy)
    argv = ["ablate", "--config", config, "--out", str(tmp_path / "out"), "--workers", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    assert chunksizes == [1]


def test_sweep_length_lists_failed_cells_and_exits_1(tmp_path, config, capsys, recwarn):
    # with two domains the only source cannot train an adapter
    out = tmp_path / "out"
    argv = ["sweep-length", "--config", config, "--out", str(out), "--set", "num_domains=2", "--lengths", "2,4"]
    assert cli.main(argv) == cli.EXIT_CELLS_FAILED == 1
    assert [str(w.message) for w in recwarn] == []
    err = capsys.readouterr().err
    assert "L2 target=0 seed=0: ConfigError" in err and "L4 target=0 seed=0" in err
    lines = (out / "length_sweep.csv").read_text().splitlines()
    assert lines == ["prompt_length,target_0,average", "L2,nan±nan,nan", "L4,nan±nan,nan"]
    # strict JSON: an all-failed cell and its row average are null, never a bare NaN
    text = (out / "length_sweep.json").read_text()
    assert "NaN" not in text
    assert json.loads(text) == {f"L{n}": {"per_target": [None], "average": None} for n in (2, 4)}


def test_sweep_pool_is_no_larger_than_its_cells(tmp_path, config, capsys, monkeypatch):
    requested = []

    class Pool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=None):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(cli, "get_context", lambda method: types.SimpleNamespace(Pool=Pool))
    argv = ["sweep-length", "--config", config, "--out", str(tmp_path / "out"), "--lengths", "2,4", "--workers", "8"]
    assert cli.main(argv) == cli.EXIT_OK
    assert requested == [2]


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_eval_of_a_trained_checkpoint_reproduces_test_acc(tmp_path, config, capsys, variant):
    run_dir = tmp_path / "run"
    common = ["--config", config, "--set", f"variant={variant}"]
    assert cli.main(["train", *common, "--out", str(run_dir)]) == cli.EXIT_OK
    report = json.loads((run_dir / "report.json").read_text())
    evals = []
    for other in ([], ["--set", "prompt_length=7"]):  # L comes from the checkpoint
        out = tmp_path / f"eval{len(evals)}"
        argv = ["eval", *common, *other, "--checkpoint", str(run_dir / "checkpoint.npz"), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        evals.append((out / "eval.json").read_bytes())
    assert evals[1] == evals[0]
    assert json.loads(evals[0])[f"domain_{report['target_domain']}"] == report["test_acc"]


def test_analyze_reports_agree_with_the_model_and_with_each_other(tmp_path, config, capsys):
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert cli.main(["train", "--config", config, "--out", str(run_dir)]) == cli.EXIT_OK
    checkpoint = str(run_dir / "checkpoint.npz")
    for mode in ("distance", "weights", "prompt-table"):
        argv = ["analyze", mode, "--config", config, "--checkpoint", checkpoint, "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK

    def csv(name):
        return np.loadtxt(out / name, delimiter=",")

    distance = json.loads((out / "distance.json").read_text())
    for name in ("domain", "class"):
        matrix = np.array(distance[f"{name}_dist"])
        assert matrix.shape == (3, 3) and np.all(matrix.T == matrix) and np.all(np.diag(matrix) == 0.0)
        assert np.all(matrix[~np.eye(3, dtype=bool)] > 0.0)
        np.testing.assert_allclose(csv(f"{name}_distance.csv"), matrix, rtol=0, atol=5e-7)

    weights = json.loads((out / "adapter_weights.json").read_text())
    percentages, averages = np.array(weights["percentages"]), np.array(weights["averages"])
    assert weights["eval_domains"] == [0, 1, 2] and percentages.shape == averages.shape == (3, 2)
    np.testing.assert_allclose(percentages.sum(axis=1), 100.0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(averages.sum(axis=1), 1.0, rtol=0, atol=1e-5)
    np.testing.assert_allclose(csv("adapter_percentages.csv"), percentages, rtol=0, atol=5e-5)
    np.testing.assert_allclose(csv("adapter_averages.csv"), averages, rtol=0, atol=5e-7)

    run = load_config(config)
    dataset = datagen.generate_dataset(run.data.num_domains, run.data.per_domain_count, run.data.data_seed)
    images, labels = dataset.images[run.target_domain], dataset.labels[run.target_domain]
    state = pipeline.ModelState.load(checkpoint, run.vit)

    def accuracy(logits):
        return 100.0 * float((logits.argmax(axis=-1) == labels).mean())

    oracle = looped_per_prompt_logits(state, images)
    expected = {"adapted": accuracy(pipeline.infer(state, images)[0])}
    expected.update({f"domain_{k}": accuracy(oracle[:, k]) for k in range(2)})
    table = json.loads((out / "prompt_table.json").read_text())
    assert table == expected
    lines = (out / "prompt_table.csv").read_text().splitlines()
    assert lines[0] == "mode,accuracy"
    assert {key: float(value) for key, value in (line.split(",") for line in lines[1:])} == pytest.approx(
        table, rel=0, abs=5e-5
    )


@pytest.fixture
def checkpoints(tmp_path, config):
    """A doprompt, a no_adapter and a prompt-free checkpoint of the tiny
    model, and files that are each a bad checkpoint in one way."""
    vit_cfg = load_config(config).vit
    paths = {}
    for name in ("doprompt", "no_adapter", "erm"):
        paths[name] = tmp_path / f"{name}.npz"
        pipeline.init_state(vit_cfg, 2, 2, seed=0, variant=name).save(paths[name])
    good = ckpt.load_arrays(paths["doprompt"])
    nan_value = {**good, "vit.patch.w": good["vit.patch.w"].copy()}
    nan_value["vit.patch.w"][3, 1] = np.nan
    headless = {name: arr for name, arr in good.items() if name != "meta.num_heads"}
    for name, arrays in (("nan_value", nan_value), ("headless", headless)):
        paths[name] = tmp_path / f"{name}.npz"
        ckpt.save_arrays(paths[name], arrays)
    for name, member in (("float64", good["vit.patch.w"].astype(np.float64)), ("object", np.array([1, None]))):
        paths[name] = tmp_path / f"{name}.npz"
        with open(paths[name], "wb") as f:
            np.savez(f, **{**good, "vit.patch.w": member})
    paths["dpt"] = tmp_path / "old.dpt"
    paths["dpt"].write_bytes(b"DPT1" + bytes(32))
    paths["truncated"] = tmp_path / "truncated.npz"
    paths["truncated"].write_bytes(paths["doprompt"].read_bytes()[:-100])
    paths["npy"] = tmp_path / "patch.npy"
    np.save(paths["npy"], good["vit.patch.w"])
    return paths


@pytest.fixture
def data_dirs(tmp_path):
    """`--data` paths, each wrong in one way: dataset directories and an old `.dpd` file."""
    rng = np.random.default_rng(0)

    def images(n):
        return rng.random((n, 3, 32, 32)).astype(np.float32)

    def npy_bytes(array):
        buf = io.BytesIO()
        np.save(buf, array)
        return buf.getvalue()

    nan_pixel = images(5)
    nan_pixel[3, 1, 7, 9] = np.nan
    past_float32 = images(5).astype(np.float64)
    past_float32[2, 0, 4, 4] = 1e300  # finite, but inf as float32

    classes = np.arange(5)
    good = (images(5), classes)
    layouts = {
        "zero_spread": [(np.full((5, 3, 32, 32), 0.5, np.float32), classes)] * 2,
        "zero_domain": [good, (np.zeros((5, 3, 32, 32), np.float32), classes)],
        "one_image": [(images(1), classes[:1]), good],
        "no_shared_class": [(images(5), np.zeros(5, np.int64)), (images(5), np.ones(5, np.int64))],
        "single_domain": [good],
        "npy_unreadable": [good, (b"not an npy file", classes)],
        "images_not_nchw": [good, (images(5)[:, 0], classes)],
        "no_image": [good, (images(0), classes[:0])],
        "label_count": [good, (images(5), classes[:4])],
        "negative_label": [good, (images(5), classes - 1)],
        "float_labels": [good, (images(5), classes + 0.5)],
        "label_past_int64": [good, (images(5), np.array([0, 1, 2, 3, 2**64 - 1], np.uint64))],
        "label_past_classes": [good, (images(5), np.array([0, 1, 2, 3, 7]))],
        "npy_truncated": [good, (npy_bytes(images(5))[:-100], classes)],
        "nan_pixel": [good, (nan_pixel, classes)],
        "past_float32": [good, (past_float32, classes)],
        "complex_pixels": [good, ((images(5) + 1j * images(5)).astype(np.complex64), classes)],
    }
    dirs = {}
    for name, domains in layouts.items():
        dirs[name] = tmp_path / "data" / name
        for d, arrays in enumerate(domains):
            ddir = dirs[name] / f"domain_{d:02d}"
            ddir.mkdir(parents=True)
            for filename, array in zip(("images.npy", "labels.npy"), arrays):
                if isinstance(array, bytes):
                    (ddir / filename).write_bytes(array)
                else:
                    np.save(ddir / filename, array)
    dirs["dpd_file"] = tmp_path / "data" / "dataset.dpd"
    dirs["dpd_file"].write_bytes(b"DPD1" + bytes(48))
    return dirs


@pytest.fixture
def config_files(tmp_path):
    """`--config` files, each wrong in one way."""
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"steps = 1\n\xff = 2\n")
    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("steps = 10\n# steps = 15\n\nsteps = 20\n")
    return {"not_utf8": not_utf8, "repeated": repeated}


CONFIG, NUMERICAL, FORMAT = cli.EXIT_CONFIG, cli.EXIT_NUMERICAL, cli.EXIT_FORMAT
PIXEL_DISTANCE = ["analyze", "distance", "--features", "pixels", "--data"]
EVAL_DOPROMPT = ["eval", "--checkpoint", "{doprompt}"]
# case -> (argv, exit code, a fragment of the one stderr line)
BAD_INPUTS = {
    "image_size": (["train", "--set", "image_size=30"], CONFIG, "not divisible by patch_size"),
    "num_heads": (["train", "--set", "num_heads=3"], CONFIG, "not divisible by num_heads"),
    "one_domain": (["train", "--set", "num_domains=1"], CONFIG, "num_domains must be in [2, 6], got 1"),
    "nine_domains": (["gen-data", "--set", "num_domains=9"], CONFIG, "num_domains must be in [2, 6], got 9"),
    "per_domain_count": (["train", "--set", "per_domain_count=3"], CONFIG, "per_domain_count must be >= 5"),
    "per_domain_count_not_a_multiple": (
        ["train", "--set", "per_domain_count=42"], CONFIG, "per_domain_count must be a multiple of the 5 classes, got 42",
    ),
    "image_size_not_the_data": (["train", "--set", "image_size=16"], CONFIG, "the model takes 3x16x16 images"),
    "channels_not_the_data": ([*EVAL_DOPROMPT, "--set", "channels=1"], CONFIG, "the model takes 1x32x32 images"),
    "fewer_classes_than_the_data": (["train", "--set", "num_classes=3"], CONFIG, "images of 5 classes"),
    "no_train_image": (["train", "--set", "val_fraction=0.99"], CONFIG, "splits 0/20"),
    "batch_per_domain": (["train", "--set", "batch_per_domain=0"], CONFIG, "batch_per_domain must be >= 1"),
    "eval_interval": (["train", "--set", "eval_interval=0"], CONFIG, "eval_interval must be >= 1"),
    "prompt_length": (["train", "--set", "prompt_length=0"], CONFIG, "prompt_length must be >= 1"),
    "embed_dim": (["train", "--set", "embed_dim=0"], CONFIG, "embed_dim must be >= 1"),
    "mlp_ratio": (["train", "--set", "mlp_ratio=0"], CONFIG, "MLP width below 1"),
    "mlp_ratio_past_any_array": (
        ["train", "--set", "mlp_ratio=1e20"], CONFIG, "mlp_ratio 1e+20 gives an MLP width below 1 or not finite, or too wide",
    ),
    "mlp_ratio_inf": (["train", "--set", "mlp_ratio=inf"], CONFIG, "mlp_ratio inf gives an MLP width below 1 or not finite"),
    "dropout": (["train", "--set", "dropout=1"], CONFIG, "dropout must be in [0, 1)"),
    "depth": (["train", "--set", "depth=0"], CONFIG, "depth must be >= 1, got 0"),
    "learning_rate_negative": (["train", "--set", "learning_rate=-0.01"], CONFIG, "learning_rate must be finite and > 0"),
    "learning_rate_nan": (["train", "--set", "learning_rate=nan"], CONFIG, "learning_rate must be finite and > 0, got nan"),
    "weight_decay_negative": (["train", "--set", "weight_decay=-1"], CONFIG, "weight_decay must be finite and >= 0"),
    "weight_decay_inf": (["train", "--set", "weight_decay=inf"], CONFIG, "weight_decay must be finite and >= 0, got inf"),
    "lambda_nan": (["train", "--set", "lambda=nan"], CONFIG, "lambda must be finite and >= 0, got nan"),
    "learning_rate_diverges": (
        ["train", "--set", "learning_rate=1e30", "--set", "eval_interval=2"], NUMERICAL, "l_prompt is non-finite",
    ),
    "lambda_overflows": (["train", "--set", "lambda=1e308"], NUMERICAL, "total is non-finite"),
    "last_step_overflows": (
        ["train", "--set", "learning_rate=1e30", "--set", "steps=1", "--set", "eval_interval=1"],
        NUMERICAL, "parameter vit.patch.w is non-finite after step 1",
    ),
    "seed": (["train", "--seed", "-1"], CONFIG, "seed must be >= 0"),
    "num_seeds": (["ablate", "--num-seeds", "0"], CONFIG, "--num-seeds must be >= 1"),
    "workers": (["ablate", "--workers", "0"], CONFIG, "--workers must be >= 1, got 0"),
    "lengths": (["sweep-length", "--lengths", "a"], CONFIG, "--lengths expects comma-separated integers"),
    "lengths_empty": (["sweep-length", "--lengths", ""], CONFIG, "--lengths expects comma-separated integers, got ''"),
    "lengths_repeated": (["sweep-length", "--lengths", "4,2,4"], CONFIG, "--lengths names prompt length 4 more than once"),
    "lengths_zero": (["sweep-length", "--lengths", "0,2"], CONFIG, "prompt_length must be >= 1, got 0"),
    "lengths_on_erm": (["sweep-length", "--set", "variant=erm"], CONFIG, "variant 'erm' has no prompts"),
    "ckpt_embed_dim": ([*EVAL_DOPROMPT, "--set", "embed_dim=8"], FORMAT, "vit.patch.w has shape (192, 16)"),
    "ckpt_depth": ([*EVAL_DOPROMPT, "--set", "depth=2"], FORMAT, "12 missing ['vit.block1.b1']"),
    "ckpt_mlp_ratio": ([*EVAL_DOPROMPT, "--set", "mlp_ratio=4"], FORMAT, "vit.block0.w1 has shape (16, 32)"),
    "ckpt_dpt": (["eval", "--checkpoint", "{dpt}"], FORMAT, ".dpt checkpoints are no longer read, retrain"),
    "ckpt_truncated": (["eval", "--checkpoint", "{truncated}"], FORMAT, "truncated.npz: not a .npz of float32 arrays, or a truncated one"),
    "ckpt_npy": (["eval", "--checkpoint", "{npy}"], FORMAT, "patch.npy: not a .npz of float32 arrays"),
    "ckpt_float64": (["eval", "--checkpoint", "{float64}"], FORMAT, "float64.npz: vit.patch.w is not a float32 array of finite"),
    "ckpt_object": (["eval", "--checkpoint", "{object}"], FORMAT, "object.npz: not a .npz of float32 arrays"),
    "ckpt_nan_value": (["eval", "--checkpoint", "{nan_value}"], FORMAT, "nan_value.npz: vit.patch.w is not a float32 array of finite"),
    "ckpt_no_num_heads": (
        ["eval", "--checkpoint", "{headless}"], FORMAT, "meta.num_heads is missing, the configured model has num_heads 2",
    ),
    "ckpt_missing": (["eval", "--checkpoint", "{doprompt}.gone"], FORMAT, "checkpoint not found"),
    "prompt_variant_on_erm": (["eval", "--checkpoint", "{erm}"], CONFIG, "variant 'doprompt' needs prompts"),
    "weights_on_erm": (["analyze", "weights", "--checkpoint", "{erm}"], CONFIG, "analyze weights needs prompts"),
    "prompt_table_on_erm": (["analyze", "prompt-table", "--checkpoint", "{erm}"], CONFIG, "prompt-table needs prompts"),
    "adapted_eval_on_no_adapter": (
        ["eval", "--checkpoint", "{no_adapter}"], CONFIG, "variant 'doprompt' needs a prompt adapter, but",
    ),
    "weights_on_no_adapter": (
        ["analyze", "weights", "--checkpoint", "{no_adapter}"], CONFIG, "analyze weights needs a prompt adapter",
    ),
    "prompt_table_on_no_adapter": (
        ["analyze", "prompt-table", "--checkpoint", "{no_adapter}"], CONFIG, "prompt-table needs a prompt adapter",
    ),
    "data_dir_without_domains": (["train", "--data", "{dir}"], FORMAT, "no domain_* subdirectories"),
    "zero_spread": ([*PIXEL_DISTANCE, "{zero_spread}"], CONFIG, "between domains 0, 1 below 1e-09"),
    "zero_domain": ([*PIXEL_DISTANCE, "{zero_domain}"], CONFIG, "a zero feature vector or centroid in domain 1"),
    "one_image": ([*PIXEL_DISTANCE, "{one_image}"], CONFIG, "domain 0 has 1 feature vectors, need >= 2"),
    "no_shared_class": ([*PIXEL_DISTANCE, "{no_shared_class}"], CONFIG, "no class present in both domains"),
    "single_domain": ([*PIXEL_DISTANCE, "{single_domain}"], CONFIG, "a distance needs >= 2 domains, got 1"),
    "no_image_on_eval": ([*EVAL_DOPROMPT, "--data", "{no_image}"], FORMAT, "float32 (0, 3, 32, 32), expected (N>=1"),
    "no_image_on_distance": ([*PIXEL_DISTANCE, "{no_image}"], FORMAT, "float32 (0, 3, 32, 32), expected (N>=1"),
    "label_past_classes": (["train", "--data", "{label_past_classes}"], CONFIG, "images of 8 classes"),
    "dpd_file": (["train", "--data", "{dpd_file}"], FORMAT, ".dpd files are no longer read, regenerate the data"),
    "npy_truncated": (["train", "--data", "{npy_truncated}"], FORMAT, "domain_01: images.npy or labels.npy is not a"),
    "nan_pixel_on_train": (["train", "--data", "{nan_pixel}"], FORMAT, "domain_01: images.npy holds a non-finite pixel"),
    "nan_pixel_on_eval": ([*EVAL_DOPROMPT, "--data", "{nan_pixel}"], FORMAT, "images.npy holds a non-finite pixel"),
    "nan_pixel_on_distance": ([*PIXEL_DISTANCE, "{nan_pixel}"], FORMAT, "images.npy holds a non-finite pixel"),
    "past_float32_on_train": (["train", "--data", "{past_float32}"], FORMAT, "domain_01: images.npy holds a non-finite pixel, or one past the float32 range"),
    "past_float32_on_eval": ([*EVAL_DOPROMPT, "--data", "{past_float32}"], FORMAT, "one past the float32 range"),
    "ckpt_num_heads": (
        [*EVAL_DOPROMPT, "--set", "num_heads=4"], FORMAT, "meta.num_heads is 2.0, the configured model has num_heads 4",
    ),
    "npy_unreadable": (["train", "--data", "{npy_unreadable}"], FORMAT, "images.npy or labels.npy is not a readable .npy"),
    "images_not_nchw": (["train", "--data", "{images_not_nchw}"], FORMAT, "float32 (5, 32, 32), expected (N>=1, C, H, W)"),
    "no_image": (["train", "--data", "{no_image}"], FORMAT, "float32 (0, 3, 32, 32), expected (N>=1, C, H, W)"),
    "label_count": (["train", "--data", "{label_count}"], FORMAT, "labels.npy holds int64 (4,), expected 5 ints >= 0"),
    "negative_label": (["train", "--data", "{negative_label}"], FORMAT, "labels.npy holds int64 (5,), expected 5 ints >= 0"),
    "float_labels": (["train", "--data", "{float_labels}"], FORMAT, "labels.npy holds float64 (5,), expected 5 ints >= 0"),
    "label_past_int64": (["train", "--data", "{label_past_int64}"], FORMAT, "holds uint64 (5,), expected 5 ints >= 0"),
    "target_domain_negative": (["train", "--set", "target_domain=-1"], CONFIG, "target_domain must be >= 0, got -1"),
    "target_domain_not_in_the_data": (
        ["analyze", "prompt-table", "--checkpoint", "{doprompt}", "--set", "target_domain=9"],
        CONFIG, "target_domain 9 out of range [0, 3)",
    ),
    "out_is_a_file": (["gen-data", "--out", "{erm}"], FORMAT, "File exists"),
    "out_empty": (["train", "--out", ""], CONFIG, "--out is empty; name an output directory"),
    "config_not_utf8": (["train", "--config", "{not_utf8}"], CONFIG, "not_utf8.cfg:2: byte 0xff is not UTF-8 text"),
    "config_key_repeated": (
        ["train", "--config", "{repeated}"], CONFIG, "repeated.cfg:4: config key 'steps' is set again (first on line 1)",
    ),
    "complex_pixels": (
        ["train", "--data", "{complex_pixels}"], FORMAT, "domain_01: images.npy holds complex64 pixels, expected real",
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_its_code_and_one_stderr_line(
    tmp_path, config, checkpoints, data_dirs, config_files, capsys, recwarn, case
):
    argv, code, message = BAD_INPUTS[case]
    argv = [a.format(dir=tmp_path, **checkpoints, **data_dirs, **config_files) for a in argv]
    assert cli.main([argv[0], "--config", config, "--out", str(tmp_path / "out"), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and message in err, err
    assert [str(w.message) for w in recwarn] == []


def test_a_model_too_large_for_memory_exits_2_with_one_line(tmp_path, config, capsys, monkeypatch):
    # a real allocation of that size would meet the OOM killer on a host that overcommits memory
    def init_vit_params(cfg, rng):
        raise MemoryError("Unable to allocate 1.86 TiB for an array with shape (64, 4000000000)")

    monkeypatch.setattr(pipeline.vit, "init_vit_params", init_vit_params)
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not fit in memory: Unable to allocate 1.86 TiB" in err, err


@pytest.mark.parametrize("lengths", ["a", "2,2", "0,2", ""])
def test_sweep_length_rejects_its_lengths_before_building_any_data(tmp_path, config, capsys, monkeypatch, lengths):
    def load_or_generate_data(args, run):
        raise AssertionError("the data was built before --lengths was checked")

    monkeypatch.setattr(cli, "_load_or_generate_data", load_or_generate_data)
    argv = ["sweep-length", "--config", config, "--out", str(tmp_path / "out"), "--lengths", lengths]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


def test_sweep_length_rejects_a_prompt_free_variant_before_building_any_data(tmp_path, config, capsys, monkeypatch):
    def load_or_generate_data(args, run):
        raise AssertionError("the data was built before the variant was checked")

    monkeypatch.setattr(cli, "_load_or_generate_data", load_or_generate_data)
    argv = ["sweep-length", "--config", config, "--out", str(tmp_path / "out"), "--set", "variant=erm"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "variant 'erm' has no prompts" in err, err


@pytest.mark.parametrize("command", ["ablate", "sweep-length"])
@pytest.mark.parametrize("flag", ["--workers", "--num-seeds"])
def test_a_table_command_rejects_its_flags_before_building_any_data(
    tmp_path, config, capsys, monkeypatch, command, flag
):
    def load_or_generate_data(args, run):
        raise AssertionError(f"the data was built before {flag} was checked")

    monkeypatch.setattr(cli, "_load_or_generate_data", load_or_generate_data)
    argv = [command, "--config", config, "--out", str(tmp_path / "out"), flag, "0"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {flag} must be >= 1, got 0\n", err


def test_train_without_out_writes_to_runs_in_the_working_directory(tmp_path, config, capsys, monkeypatch):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("DOPROMPT_OUT", str(elsewhere))
    assert cli.main(["train", "--config", config]) == cli.EXIT_OK
    assert all((cwd / "runs" / name).is_file() for name in ("report.json", "loss_curve.csv", "checkpoint.npz"))
    assert list(elsewhere.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [["gen-data"], ["train"], ["eval", "--checkpoint", "x.npz"], ["ablate"], ["sweep-length"], ["analyze", "distance"]],
    ids=lambda argv: argv[0],
)
def test_an_empty_out_exits_2_before_writing_anything(tmp_path, config, capsys, monkeypatch, argv):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert cli.main([*argv, "--config", config, "--out", ""]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --out is empty; name an output directory\n"
    assert list(cwd.iterdir()) == []


def test_sweep_length_writes_the_same_bytes_in_an_ascii_locale(tmp_path, config):
    src = str(Path(cli.__file__).parents[1])
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    written = []
    for name, extra in (("utf8_mode", {"PYTHONUTF8": "1"}), ("ascii", ascii_locale)):
        env = {**os.environ, "PYTHONPATH": src, **extra}
        out = tmp_path / name
        argv = ["sweep-length", "--config", config, "--out", str(out), "--lengths", "2"]
        subprocess.run([sys.executable, "-m", "doprompt.cli", *argv], env=env, check=True, timeout=120, capture_output=True)
        written.append([(out / f"length_sweep.{ext}").read_bytes() for ext in ("csv", "json")])
    assert written[1] == written[0]
    assert "±".encode() in written[0][0]


def test_importing_the_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    code = "import doprompt.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
