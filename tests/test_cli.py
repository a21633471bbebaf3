"""Command line: the sweep table layout and the exit code of partial failures."""

import json

import pytest

from doprompt import cli
from doprompt.config import VARIANTS

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
