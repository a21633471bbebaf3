"""Command line: the sweep table layout, checkpoint reloads, the analysis
reports, and the exit code and one-line message of every kind of failure."""

import json
import struct

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


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_eval_of_a_trained_checkpoint_reproduces_test_acc(tmp_path, config, capsys, variant):
    run_dir = tmp_path / "run"
    common = ["--config", config, "--set", f"variant={variant}"]
    assert cli.main(["train", *common, "--out", str(run_dir)]) == cli.EXIT_OK
    report = json.loads((run_dir / "report.json").read_text())
    evals = []
    for other in ([], ["--set", "prompt_length=7"]):  # L comes from the checkpoint
        out = tmp_path / f"eval{len(evals)}"
        argv = ["eval", *common, *other, "--checkpoint", str(run_dir / "checkpoint.dpt"), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        evals.append((out / "eval.json").read_bytes())
    assert evals[1] == evals[0]
    assert json.loads(evals[0])[f"domain_{report['target_domain']}"] == report["test_acc"]


def test_analyze_reports_agree_with_the_model_and_with_each_other(tmp_path, config, capsys):
    run_dir, out = tmp_path / "run", tmp_path / "analysis"
    assert cli.main(["train", "--config", config, "--out", str(run_dir)]) == cli.EXIT_OK
    checkpoint = str(run_dir / "checkpoint.dpt")
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
    """A doprompt and a prompt-free checkpoint of the tiny model, and one whose
    only array name is not UTF-8."""
    vit_cfg = load_config(config).vit
    paths = {}
    for name, with_prompts in (("doprompt", True), ("erm", False)):
        paths[name] = tmp_path / f"{name}.dpt"
        pipeline.init_state(vit_cfg, 2, 2, seed=0, with_prompts=with_prompts).save(paths[name])
    paths["bad_name"] = tmp_path / "bad_name.dpt"
    paths["bad_name"].write_bytes(ckpt.MAGIC + struct.pack("<Q", 2) + b"\xff\xfe" + struct.pack("<Qf", 0, 1.0))
    return paths


@pytest.fixture
def data_dirs(tmp_path):
    """`--data` directories of raw arrays, each wrong in one way."""
    rng = np.random.default_rng(0)

    def images(n):
        return rng.random((n, 3, 32, 32)).astype(np.float32)

    classes = np.arange(5)
    good = (images(5), classes)
    layouts = {
        "zero_spread": [(np.full((5, 3, 32, 32), 0.5, np.float32), classes)] * 2,
        "one_image": [(images(1), classes[:1]), good],
        "no_shared_class": [(images(5), np.zeros(5, np.int64)), (images(5), np.ones(5, np.int64))],
        "npy_unreadable": [good, (b"not an npy file", classes)],
        "images_not_nchw": [good, (images(5)[:, 0], classes)],
        "no_image": [good, (images(0), classes[:0])],
        "label_count": [good, (images(5), classes[:4])],
        "negative_label": [good, (images(5), classes - 1)],
        "float_labels": [good, (images(5), classes + 0.5)],
        "label_past_int64": [good, (images(5), np.array([0, 1, 2, 3, 2**64 - 1], np.uint64))],
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
    return dirs


CONFIG, FORMAT = cli.EXIT_CONFIG, cli.EXIT_FORMAT
PIXEL_DISTANCE = ["analyze", "distance", "--features", "pixels", "--data"]
EVAL_DOPROMPT = ["eval", "--checkpoint", "{doprompt}"]
# case -> (argv, exit code, a fragment of the one stderr line)
BAD_INPUTS = {
    "image_size": (["train", "--set", "image_size=30"], CONFIG, "not divisible by patch_size"),
    "num_heads": (["train", "--set", "num_heads=3"], CONFIG, "not divisible by num_heads"),
    "one_domain": (["train", "--set", "num_domains=1"], CONFIG, "num_domains must be in [2, 6], got 1"),
    "nine_domains": (["gen-data", "--set", "num_domains=9"], CONFIG, "num_domains must be in [2, 6], got 9"),
    "per_domain_count": (["train", "--set", "per_domain_count=3"], CONFIG, "per_domain_count must be >= 5"),
    "image_size_not_the_data": (["train", "--set", "image_size=16"], CONFIG, "the model takes 3x16x16 images"),
    "channels_not_the_data": ([*EVAL_DOPROMPT, "--set", "channels=1"], CONFIG, "the model takes 1x32x32 images"),
    "fewer_classes_than_the_data": (["train", "--set", "num_classes=3"], CONFIG, "images of 5 classes"),
    "no_train_image": (["train", "--set", "val_fraction=0.99"], CONFIG, "splits 0/20"),
    "batch_per_domain": (["train", "--set", "batch_per_domain=0"], CONFIG, "batch_per_domain must be >= 1"),
    "eval_interval": (["train", "--set", "eval_interval=0"], CONFIG, "eval_interval must be >= 1"),
    "prompt_length": (["train", "--set", "prompt_length=0"], CONFIG, "prompt_length must be >= 1"),
    "embed_dim": (["train", "--set", "embed_dim=0"], CONFIG, "embed_dim must be >= 1"),
    "mlp_ratio": (["train", "--set", "mlp_ratio=0"], CONFIG, "MLP width below 1"),
    "dropout": (["train", "--set", "dropout=1"], CONFIG, "dropout must be in [0, 1)"),
    "seed": (["train", "--seed", "-1"], CONFIG, "seed must be >= 0"),
    "num_seeds": (["ablate", "--num-seeds", "0"], CONFIG, "--num-seeds must be >= 1"),
    "lengths": (["sweep-length", "--lengths", "a"], CONFIG, "--lengths expects comma-separated integers"),
    "ckpt_embed_dim": ([*EVAL_DOPROMPT, "--set", "embed_dim=8"], FORMAT, "vit.patch.w has shape (192, 16)"),
    "ckpt_depth": ([*EVAL_DOPROMPT, "--set", "depth=2"], FORMAT, "16 missing ['vit.block1.b1']"),
    "ckpt_mlp_ratio": ([*EVAL_DOPROMPT, "--set", "mlp_ratio=4"], FORMAT, "vit.block0.w1 has shape (16, 32)"),
    "ckpt_name_not_utf8": (["eval", "--checkpoint", "{bad_name}"], FORMAT, "array name is not valid UTF-8"),
    "ckpt_missing": (["eval", "--checkpoint", "{doprompt}.gone"], FORMAT, "checkpoint not found"),
    "prompt_variant_on_erm": (["eval", "--checkpoint", "{erm}"], CONFIG, "variant 'doprompt' needs prompts"),
    "weights_on_erm": (["analyze", "weights", "--checkpoint", "{erm}"], CONFIG, "analyze weights needs prompts"),
    "prompt_table_on_erm": (["analyze", "prompt-table", "--checkpoint", "{erm}"], CONFIG, "prompt-table needs prompts"),
    "data_dir_without_domains": (["train", "--data", "{dir}"], FORMAT, "no domain_* subdirectories"),
    "zero_spread": ([*PIXEL_DISTANCE, "{zero_spread}"], CONFIG, "between domains 0, 1 below 1e-09"),
    "one_image": ([*PIXEL_DISTANCE, "{one_image}"], CONFIG, "domain 0 has 1 feature vectors, need >= 2"),
    "no_shared_class": ([*PIXEL_DISTANCE, "{no_shared_class}"], CONFIG, "no class present in both domains"),
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
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_its_code_and_one_stderr_line(
    tmp_path, config, checkpoints, data_dirs, capsys, recwarn, case
):
    argv, code, message = BAD_INPUTS[case]
    argv = [a.format(dir=tmp_path, **checkpoints, **data_dirs) for a in argv]
    assert cli.main([argv[0], "--config", config, "--out", str(tmp_path / "out"), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and message in err, err
    assert [str(w.message) for w in recwarn] == []
