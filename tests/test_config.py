"""Config files: the key=value round trip and the errors of a bad file."""

import dataclasses

import pytest

from doprompt.config import ConfigError, RunConfig, load_config, save_config
from doprompt.vit import ViTConfig

from conftest import tiny_run_config


def test_save_then_load_gives_an_equal_run_config(tmp_path):
    run = dataclasses.replace(
        tiny_run_config(learning_rate=3e-4, dropout=0.1, val_fraction=0.3), variant="no_lw", target_domain=2
    )
    path = tmp_path / "run.cfg"
    save_config(path, run)
    assert load_config(path) == run


@pytest.mark.parametrize("text, overrides, message", [
    ("embed_dims = 16\n", None, "unknown config key 'embed_dims'"),
    ("", {"lr": "0.1"}, "unknown config key 'lr' in override"),
    ("steps\n", None, "expected key=value"),
    ("steps = ten\n", None, "cannot parse 'ten'"),
    ("", {"mlp_ratio": "wide"}, "cannot parse 'wide'"),
    ("steps = 10\nsteps = 20\n", None, r"bad\.cfg:2: config key 'steps' is set again \(first on line 1\)"),
])
def test_bad_config_raises_config_error(tmp_path, text, overrides, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path, overrides)


def test_missing_config_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.cfg")


@pytest.mark.parametrize("train_dropout", [0.0, 0.5])
def test_run_config_rejects_a_train_dropout_the_vit_does_not_use(train_dropout):
    run = tiny_run_config(dropout=train_dropout)
    with pytest.raises(ConfigError, match=f"train dropout {train_dropout} differs from the ViT's dropout_rate 0.1"):
        RunConfig(train=run.train, vit=ViTConfig(dropout_rate=0.1), data=run.data)
