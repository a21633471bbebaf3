"""Print the SHA-256 of a fixed dataset and of every artifact of twelve fixed
training runs.

The first line digests the image and label bytes of
`generate_dataset(6, 135, 5)`, which draws every domain style, so a change to
the data shows on a line of its own. The runs are the six variants at dropout 0 and 0.1, each at the default
model shapes on `generate_dataset(4, 100, 5)`, with target domain 2, 20
steps, `eval_interval` 10 and seed 5. Each run writes `loss_curve.csv`,
`report.json` and `checkpoint.npz` into a temporary directory, and this
prints one `<sha256>  <run>/<file>` line per file. A change meant to keep
the data and every artifact byte for byte prints the same 37 lines as its
parent on the same machine:

    PYTHONPATH=src python3 tests/artifact_digest.py

It takes no flags, and pytest does not collect it.
"""

import hashlib
import tempfile
from pathlib import Path

from doprompt import datagen, pipeline
from doprompt.config import VARIANTS, DataConfig, RunConfig, TrainConfig
from doprompt.vit import ViTConfig

ARTIFACTS = ("loss_curve.csv", "report.json", "checkpoint.npz")


def main() -> None:
    data = datagen.generate_dataset(6, 135, 5)
    digest = hashlib.sha256()
    for images, labels in zip(data.images, data.labels):
        digest.update(images.tobytes())
        digest.update(labels.tobytes())
    print(f"{digest.hexdigest()}  data/generate_dataset(6, 135, 5)", flush=True)
    dataset = datagen.generate_dataset(4, 100, 5)
    with tempfile.TemporaryDirectory() as tmp:
        for dropout in (0.0, 0.1):
            train = TrainConfig(steps=20, eval_interval=10, seed=5, dropout=dropout)
            for variant in VARIANTS:
                run = RunConfig(train, ViTConfig(dropout_rate=dropout), DataConfig(), variant, target_domain=2)
                name = f"{variant}_dropout{dropout}"
                out = Path(tmp) / name
                pipeline.run_experiment(dataset, run.target_domain, variant, run, out_dir=out)
                for artifact in ARTIFACTS:
                    print(f"{hashlib.sha256((out / artifact).read_bytes()).hexdigest()}  {name}/{artifact}", flush=True)


if __name__ == "__main__":
    main()
