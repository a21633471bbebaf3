"""Command-line surface: data generation, training, ablation sweeps, analysis.

Exit codes, each failure with one line on stderr:

- 0 ok;
- 1 (`ablate`, `sweep-length`) some cells of the table failed: each is
  listed on stderr and left out of its cell's mean, and a cell with no run
  left reads NaN in the CSV and null in the JSON;
- 2 (every command) a config problem: a config file that is not UTF-8
  text, a bad key, value or flag, a `target_domain` outside the data, a
  dataset that the configured model cannot take, that is too small to
  train on or that leaves a distance undefined (`analyze distance` needs
  two domains), a model or dataset too large for memory, a checkpoint
  without the prompts or the adapter that the variant `eval` predicts
  with, `analyze weights` or `analyze prompt-table` needs, a config file
  that sets one key twice, `sweep-length` on a prompt-free variant, or an
  empty `--out`, rejected before anything is written;
- 3 (`train`) a loss term became non-finite, or an update left a
  parameter non-finite;
- 4 (every command) an I/O or format problem: a missing checkpoint, one
  that is not a `.npz` of finite float32 arrays (an old `.dpt` file among
  them) or whose arrays or head count do not fit the configured model; a
  missing `--data` path, or one that is not a directory of `domain_*` arrays
  (an old `.dpd` file among them); a truncated or unreadable `.npy`, a domain
  with no image, a complex pixel or one not finite as float32, or a label
  not an int >= 0;
- 5 (`train`) the lane process, which runs the second lane of each
  two-lane training step, exited during a step: killed, say by the OOM
  killer, or dead in its lane. In `ablate` and `sweep-length` such a run
  is a failed cell (exit 1).

`eval` and `analyze` build the model from the config, except whether it has
a prompt bank and an adapter, which comes from the checkpoint's array names,
and the number of source-domain prompts K and the prompt length L, which
come from the shape of its prompt bank. A checkpoint records its
`num_heads`, and a missing record or a config that differs exits 4. The
`src_<k>` (weights) and `domain_<k>` (prompt-table) columns of `analyze` are
source slot k: the k-th domain other than the training target. All
randomness flows from the seeds in the config (overridable with --seed);
outputs carry no timestamps, so identical invocations produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import analysis, datagen, pipeline
from .checkpoint import CheckpointError
from .config import ConfigError, RunConfig, VARIANTS, load_config
from .datagen import DataFormatError
from .pipeline import LaneProcessError, NumericalError

EXIT_OK = 0
EXIT_CELLS_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FORMAT = 4
EXIT_LANE_PROCESS = 5

DEFAULT_LENGTHS = (2, 4, 8, 16, 32)


def _write_json(path: Path, payload) -> None:
    """Sorted, indented JSON, written as UTF-8 whatever the locale."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_run_config(args) -> RunConfig:
    overrides = _parse_overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _load_or_generate_data(args, run: RunConfig) -> datagen.SyntheticDataset:
    if args.data:
        path = Path(args.data)
        if not path.exists():
            raise DataFormatError(f"data path not found: {path}")
        dataset = datagen.load_dataset(path)
    else:
        dc = run.data
        dataset = datagen.generate_dataset(dc.num_domains, dc.per_domain_count, dc.data_seed)
    if run.target_domain >= dataset.num_domains:
        raise ConfigError(f"target_domain {run.target_domain} out of range [0, {dataset.num_domains})")
    cfg = run.vit
    shapes = {images.shape[1:] for images in dataset.images}
    if shapes != {(cfg.channels, cfg.image_size, cfg.image_size)} or dataset.num_classes > cfg.num_classes:
        raise ConfigError(
            f"the model takes {cfg.channels}x{cfg.image_size}x{cfg.image_size} images of {cfg.num_classes} "
            f"classes; the dataset has {sorted(shapes)} images of {dataset.num_classes} classes"
        )
    return dataset


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    run = _load_run_config(args)
    dc = run.data
    dataset = datagen.generate_dataset(dc.num_domains, dc.per_domain_count, dc.data_seed)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset"
    datagen.save_dataset(path, dataset)
    sizes = [dataset.domain_size(d) for d in range(dataset.num_domains)]
    print(f"wrote {path}: {dataset.num_domains} domains x {sizes} images")
    return EXIT_OK


def cmd_train(args) -> int:
    run = _load_run_config(args)
    dataset = _load_or_generate_data(args, run)
    report = pipeline.run_experiment(dataset, run.target_domain, run.variant, run, out_dir=args.out)
    print(
        f"variant={report['variant']} target={report['target_domain']} "
        f"seed={report['seed']} chosen_step={report['chosen_step']} "
        f"val_acc={report['val_acc']:.4f} test_acc={report['test_acc']:.4f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    run = _load_run_config(args)
    dataset = _load_or_generate_data(args, run)
    state = _load_state(args.checkpoint, run, f"variant {run.variant!r}", run.variant)
    accs = {}
    for d in range(dataset.num_domains):
        accs[f"domain_{d}"] = pipeline.evaluate_accuracy(
            state, dataset.images[d], dataset.labels[d], run.variant
        )
        print(f"domain {d}: accuracy {accs[f'domain_{d}']:.4f}")
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eval.json", accs)
    return EXIT_OK


_WORKER_DATASET = None


def _ablate_worker(job):
    run, out_dir = job
    try:
        report = pipeline.run_experiment(_WORKER_DATASET, run.target_domain, run.variant, run, out_dir=out_dir)
        return report["test_acc"], None
    except Exception as exc:  # recorded as a NaN cell by the caller
        return float("nan"), f"{type(exc).__name__}: {exc}"


def _run_table(args, run: RunConfig, rows: dict, targets, name: str, row_header: str) -> int:
    """Train every (row, target, seed) cell and write `<name>.csv` and `<name>.json`.

    `--num-seeds` and `--workers` are checked before the data is built.
    `rows` maps a row label to the run config of that row; each cell runs it
    with its own `target_domain` (every domain of the data when `targets` is
    None) and `train.seed`. Cell outputs go to
    `<label>_t<target>_s<seed>/`. With more than one worker, the fork pool
    gets one cell per task, so a worker that finishes early takes the next
    cell rather than waiting on a chunk of them. A table cell is the mean
    (and spread) over seeds of test accuracy over the runs that did not
    fail. A cell whose runs all failed, and its row's average, read `nan`
    in the CSV and `null` in the JSON. Any failed run makes the exit code
    EXIT_CELLS_FAILED.
    """
    global _WORKER_DATASET
    if args.num_seeds < 1:
        raise ConfigError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    _WORKER_DATASET = dataset = _load_or_generate_data(args, run)
    if targets is None:
        targets = range(dataset.num_domains)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    seeds = [run.train.seed + i for i in range(args.num_seeds)]
    cells = [(label, target, seed) for label in rows for target in targets for seed in seeds]
    jobs = []
    for label, target, seed in cells:
        row = rows[label]
        cell = dataclasses.replace(row, target_domain=target, train=dataclasses.replace(row.train, seed=seed))
        jobs.append((cell, out / f"{label}_t{target}_s{seed}"))
    workers = min(args.workers, len(jobs))
    if workers == 1:
        results = [_ablate_worker(job) for job in jobs]
    else:
        # workers forked beside one BLAS thread inherit it, so their runs' pins set nothing
        with pipeline._one_blas_thread(), get_context("fork").Pool(workers) as pool:
            results = pool.map(_ablate_worker, jobs, chunksize=1)

    accs = {}
    failures = []
    for (label, target, seed), (acc, err) in zip(cells, results):
        accs.setdefault((label, target), []).append(acc)
        if err is not None:
            failures.append(f"{label} target={target} seed={seed}: {err}")

    lines = [",".join([row_header] + [f"target_{t}" for t in targets] + ["average"])]
    table = {}
    for label in rows:
        row = [label]
        means = []
        for target in targets:
            values = [acc for acc in accs[(label, target)] if not np.isnan(acc)]
            mean = float(np.mean(values)) if values else None
            means.append(mean)
            row.append(f"{100 * mean:.2f}±{100 * np.std(values):.2f}" if values else "nan±nan")
        avg = None if None in means else float(np.mean(means))
        row.append("nan" if avg is None else f"{100 * avg:.2f}")
        lines.append(",".join(row))
        table[label] = {"per_target": means, "average": avg}
    (out / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / f"{name}.json", table)
    print("\n".join(lines))
    if failures:
        print("failed runs:\n  " + "\n  ".join(failures), file=sys.stderr)
        return EXIT_CELLS_FAILED
    return EXIT_OK


def cmd_ablate(args) -> int:
    run = _load_run_config(args)
    rows = {variant: dataclasses.replace(run, variant=variant) for variant in VARIANTS}
    return _run_table(args, run, rows, None, "ablation", "variant")


def cmd_sweep_length(args) -> int:
    run = _load_run_config(args)
    try:
        lengths = [int(x) for x in args.lengths.split(",")] if args.lengths is not None else list(DEFAULT_LENGTHS)
    except ValueError as exc:
        raise ConfigError(f"--lengths expects comma-separated integers, got {args.lengths!r}") from exc
    if len(set(lengths)) < len(lengths):
        raise ConfigError(f"--lengths names prompt length {max(lengths, key=lengths.count)} more than once")
    if not VARIANTS[run.variant].uses_prompts:
        raise ConfigError(f"variant {run.variant!r} has no prompts, so every prompt length trains the same model")
    rows = {
        f"L{length}": dataclasses.replace(run, train=dataclasses.replace(run.train, prompt_length=length))
        for length in lengths
    }  # every length is checked here, before any data is built
    return _run_table(args, run, rows, [run.target_domain], "length_sweep", "prompt_length")


def _load_state(checkpoint_path, run: RunConfig, user: str, variant: str) -> pipeline.ModelState:
    """The checkpoint's model; `user` names what fails without the parts `variant` predicts with."""
    if checkpoint_path is None:
        raise ConfigError("--checkpoint is required for this mode")
    path = Path(checkpoint_path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    state = pipeline.ModelState.load(path, run.vit)
    spec = VARIANTS[variant]
    if spec.uses_prompts and state.bank is None:
        raise ConfigError(f"{user} needs prompts, but {path} holds a prompt-free model")
    if spec.uses_adapter and state.adapter is None:
        raise ConfigError(f"{user} needs a prompt adapter, but {path} holds a model without one")
    return state


def _print_matrix(title, names, matrix, columns=None, fmt=".3f") -> None:
    """`matrix` under `title`, one row per name; the columns are `names` too unless given."""
    columns = names if columns is None else columns
    width = max(10, max(len(n) for n in [*names, *columns]) + 2)
    print(title)
    print(" " * width + "".join(f"{n:>{width}}" for n in columns))
    for name, row in zip(names, matrix):
        print(f"{name:>{width}}" + "".join(f"{v:>{width}{fmt}}" for v in row))


def cmd_analyze(args) -> int:
    run = _load_run_config(args)
    dataset = _load_or_generate_data(args, run)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    mode = args.mode

    if mode == "distance":
        if args.features == "pixels":
            feats = [dataset.images[d].reshape(dataset.domain_size(d), -1) for d in range(dataset.num_domains)]
        else:
            state = _load_state(args.checkpoint, run, "analyze distance", "erm")  # prompt-free features
            feats = [pipeline.extract_features(state, dataset.images[d]) for d in range(dataset.num_domains)]
        labels = [dataset.labels[d] for d in range(dataset.num_domains)]
        report = analysis.domain_distance(feats, labels)
        names = [f"domain_{d}" for d in range(dataset.num_domains)]
        _print_matrix("normalized domain distance", names, report.domain_dist)
        _print_matrix("averaged class distance", names, report.class_dist)
        print(f"cross/in dist: {report.cross_in_ratio:.3f}  "
              f"cross/in class dist: {report.cross_in_class_ratio:.3f}")
        np.savetxt(out / "domain_distance.csv", report.domain_dist, delimiter=",", fmt="%.6f")
        np.savetxt(out / "class_distance.csv", report.class_dist, delimiter=",", fmt="%.6f")
        payload = {
            "domain_dist": report.domain_dist.tolist(),
            "class_dist": report.class_dist.tolist(),
            "in_dist": report.in_dist.tolist(),
            "cross_in_ratio": report.cross_in_ratio,
            "cross_in_class_ratio": report.cross_in_class_ratio,
        }
        _write_json(out / "distance.json", payload)
        return EXIT_OK

    state = _load_state(args.checkpoint, run, f"analyze {mode}", "doprompt")
    if mode == "weights":
        stats = analysis.adapter_weight_stats(state, dataset)
        names = [f"domain_{d}" for d in range(len(stats.percentages))]
        src = [f"src_{s}" for s in range(stats.percentages.shape[1])]
        _print_matrix("argmax share (%)", names, stats.percentages, src, ".1f")
        _print_matrix("average weight", names, stats.averages, src)
        np.savetxt(out / "adapter_percentages.csv", stats.percentages, delimiter=",", fmt="%.4f")
        np.savetxt(out / "adapter_averages.csv", stats.averages, delimiter=",", fmt="%.6f")
        payload = {
            "eval_domains": list(range(len(names))),
            "percentages": stats.percentages.tolist(),
            "averages": stats.averages.tolist(),
        }
        _write_json(out / "adapter_weights.json", payload)
        return EXIT_OK

    # prompt-table, the last of the parser's choices
    target = run.target_domain
    table = analysis.per_prompt_accuracy_table(state, dataset.images[target], dataset.labels[target])
    lines = ["mode,accuracy"]
    for key, value in table.items():
        print(f"{key:>12}: {value:.2f}")
        lines.append(f"{key},{value:.4f}")
    (out / "prompt_table.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "prompt_table.json", table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doprompt",
        description="Domain-prompt learning experiments on a procedural multi-domain dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="flat key=value config file")
        p.add_argument("--data", help="dataset directory: domain_00/images.npy and labels.npy, and so on")
        p.add_argument("--out", default="runs", help="output directory (default ./runs)")
        p.add_argument("--seed", type=int, help="override the training seed")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")

    p = sub.add_parser("gen-data", help="generate and cache the synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant on one target domain")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on every domain")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run all six variants over all target domains")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--num-seeds", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-length", help="accuracy across prompt lengths")
    common(p)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--num-seeds", type=int, default=1)
    p.add_argument("--lengths", help="comma-separated grid (default 2,4,8,16,32)")
    p.set_defaults(func=cmd_sweep_length)

    p = sub.add_parser("analyze", help="distance / adapter-weight / prompt-accuracy reports")
    common(p)
    p.add_argument("mode", choices=("distance", "weights", "prompt-table"))
    p.add_argument("--checkpoint")
    p.add_argument("--features", choices=("model", "pixels"), default="model")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # a locale that cannot print a table's "±" escapes it
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not args.out:  # Path("") is the working directory; an unset shell variable is the likelier cause
            raise ConfigError("--out is empty; name an output directory")
        args.out = Path(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LaneProcessError as exc:
        print(f"lane process failure: {exc}", file=sys.stderr)
        return EXIT_LANE_PROCESS
    except MemoryError as exc:
        print(f"config error: the configured model or data does not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, DataFormatError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
