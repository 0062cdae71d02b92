"""Command-line entry points.

Exit codes: 0 success, 2 configuration error (an allocation numpy refuses
included), 3 I/O error (a worker process that died included).
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
from dataclasses import replace

from . import datasets, experiments, noisegen, serialization
from .datasets import DatasetError
from .experiments import ConfigError
from .mixing import DpMixConfig, MixupError, mix_block
from .seeding import derive_seed, rng_for
from .training import NonFiniteGradient, NonFiniteParam, WorkerDied

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def _load_pool(in_dir: str) -> datasets.ClientDataset:
    paths = serialization.list_tensor_images(in_dir)
    if not paths:
        raise ConfigError(f"no {serialization.TENSOR_SUFFIX} files under {in_dir}")
    images = [serialization.load_tensor_image(p) for p in paths]
    for path, img in zip(paths, images):
        if img.pixels.shape != images[0].pixels.shape:
            raise serialization.FormatError(f"{path}: dims differ from {paths[0]}'s")
    labeled = [img for img in images if img.label >= 0]
    if not labeled:
        raise ConfigError(f"images under {in_dir} carry no labels; cannot mix")
    num_classes = max(img.label for img in labeled) + 1
    return datasets.ClientDataset.from_images(0, labeled, num_classes)


def _load_config(args) -> experiments.ExperimentConfig:
    """The config of a config command, once its `--out` is known to be usable:
    an `--out` that exists and is not a directory is refused before any data
    loads or any worker starts."""
    cfg = experiments.load_config(args.config, args.seed)
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    return cfg


def _cmd_partition(args) -> int:
    cfg = replace(_load_config(args), supplement_pct=0)
    experiments.write_client_files(args.out, experiments.prepare_clients(cfg), balanced=False)
    print(os.path.join(args.out, "partition_manifest.csv"))
    return EXIT_OK


def _stream_blocks(count: int, seed: int, *name):
    """`rng_for(seed, *name, i)` for i in range(count), NOISE_BLOCK streams a list."""
    if count < 0:
        raise ConfigError(f"--count must be >= 0, got {count}")
    ids = range(count)
    return ([rng_for(seed, *name, i) for i in ids[start:start + noisegen.NOISE_BLOCK]]
            for start in ids[::noisegen.NOISE_BLOCK])


def _write_images(args, prefix: str, blocks, label: int, provenance) -> None:
    """Make the first block, create `args.out`, then write the rows of
    `blocks` in turn as `<prefix><i:05d>` tensor files, with clamped `.ppm`
    previews if `args.ppm`. A first block that fails leaves no `args.out`."""
    rows = itertools.chain.from_iterable(blocks)
    first = list(itertools.islice(rows, 1))
    os.makedirs(args.out, exist_ok=True)
    for i, pixels in enumerate(itertools.chain(first, rows)):
        base = os.path.join(args.out, f"{prefix}{i:05d}")
        serialization.save_tensor_image(base + serialization.TENSOR_SUFFIX,
                                        datasets.LabeledImage(pixels, label, provenance))
        if args.ppm:
            serialization.save_ppm(base + ".ppm", pixels)


def _cmd_mix(args) -> int:
    pool = _load_pool(args.in_dir)
    # Every check and mixup runs before --out exists, so a failure leaves none.
    if args.ppm:
        serialization.check_ppm_channels(pool.pixels.shape[-1])
    cfg = DpMixConfig(k=args.k, sigma=args.sigma)
    blocks = [mix_block(pool, args.label, cfg, rngs)
              for rngs in _stream_blocks(args.count, args.seed, "cli-mix", args.label)]
    _write_images(args, f"mix_{args.label:03d}_", blocks, args.label, datasets.Provenance.MIXUP)
    print(args.out)
    return EXIT_OK


def _cmd_gen_noise(args) -> int:
    state = noisegen.init_generator(noisegen.GeneratorConfig(
        out_dims=(args.height, args.width, args.channels),
        wavelet_bank=noisegen.WaveletBank(args.bank),
        seed=derive_seed(args.seed, "cli-noise-state")))
    if args.ppm:
        serialization.check_ppm_channels(args.channels)
    blocks = (noisegen.generate_block(state, rngs)
              for rngs in _stream_blocks(args.count, args.seed, "cli-noise"))
    _write_images(args, "noise_", blocks, -1, datasets.Provenance.NATURAL_NOISE)
    print(args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    paths = serialization.list_tensor_images(args.in_dir)
    if not paths:
        raise ConfigError(f"no {serialization.TENSOR_SUFFIX} files under {args.in_dir}")
    rows = []
    for path in paths:   # every slope first, so a bad file leaves no partial CSV
        image = serialization.load_tensor_image(path)
        name = os.path.splitext(os.path.basename(path))[0]
        rows.append([name, f"{noisegen.power_spectrum_slope(image.pixels):.6f}"])
    serialization.write_csv(args.out, [["image_id", "slope"], *rows])
    print(args.out)
    return EXIT_OK


def _cmd_balance(args) -> int:
    cfg = _load_config(args)
    experiments.write_client_files(args.out, experiments.prepare_clients(cfg))
    print(args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    result = experiments.run_experiment(cfg, args.out)
    print(f"{result.tag}: final={result.final_accuracy:.4f} "
          f"best={result.best_accuracy:.4f}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = _load_config(args)
    summary = experiments.run_grid(cfg, args.out)
    print(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbalance",
        description="Label-skewed federated learning simulator with pseudo-image supplements")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.set_defaults(func=func)
        return p

    add_config_cmd("partition", _cmd_partition, "partition a dataset, write the manifest")
    add_config_cmd("balance", _cmd_balance, "partition + run the balance protocol")
    add_config_cmd("train", _cmd_train, "full pipeline: partition, balance, train")
    add_config_cmd("grid", _cmd_grid, "run the ablation grid")

    p = sub.add_parser("mix", help="generate mixed pseudo-images from tensor files")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", type=int, required=True, help="target label")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--k", type=int, default=DpMixConfig.k)
    p.add_argument("--sigma", type=float, default=DpMixConfig.sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ppm", action="store_true", help="also write clamped previews")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("gen-noise", help="generate natural-noise images")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--bank", default=noisegen.GeneratorConfig.wavelet_bank.value,
                   choices=[b.value for b in noisegen.WaveletBank])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ppm", action="store_true")
    p.set_defaults(func=_cmd_gen_noise)

    p = sub.add_parser("spectrum", help="power-spectrum slopes of tensor images")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MixupError, noisegen.NoiseGenError, datasets.InfeasibleSpec,
            NonFiniteGradient, NonFiniteParam, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DatasetError, serialization.FormatError, WorkerDied) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
