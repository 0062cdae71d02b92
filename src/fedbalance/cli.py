"""Command-line entry points.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import datasets, experiments, noisegen, serialization
from .datasets import DatasetError
from .experiments import ConfigError
from .mixing import DpMixConfig, MixupError, dp_labelhide
from .seeding import derive_seed, rng_for

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


def _cmd_partition(args) -> int:
    cfg = experiments.load_config(args.config, args.seed)
    train, _, _ = experiments.load_train(cfg)
    clients = datasets.partition(train, experiments.build_partition_spec(cfg))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "partition_manifest.csv")
    datasets.write_partition_manifest(clients, path)
    print(path)
    return EXIT_OK


def _cmd_mix(args) -> int:
    pool = _load_pool(args.in_dir)
    cfg = DpMixConfig(k=args.k, sigma=args.sigma)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        rng = rng_for(args.seed, "cli-mix", args.label, i)
        pixels = dp_labelhide(pool, args.label, cfg, rng)
        image = datasets.LabeledImage(pixels, args.label, datasets.Provenance.MIXUP)
        base = os.path.join(args.out, f"mix_{args.label:03d}_{i:05d}")
        serialization.save_tensor_image(base + serialization.TENSOR_SUFFIX, image)
        if args.ppm:
            serialization.save_ppm(base + ".ppm", pixels)
    print(args.out)
    return EXIT_OK


def _cmd_gen_noise(args) -> int:
    gen_cfg = noisegen.GeneratorConfig(
        out_dims=(args.height, args.width, args.channels),
        wavelet_bank=noisegen.WaveletBank(args.bank),
        seed=derive_seed(args.seed, "cli-noise-state"))
    state = noisegen.init_generator(gen_cfg)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        pixels = noisegen.generate(state, rng_for(args.seed, "cli-noise", i))
        image = datasets.LabeledImage(pixels, -1, datasets.Provenance.NATURAL_NOISE)
        base = os.path.join(args.out, f"noise_{i:05d}")
        serialization.save_tensor_image(base + serialization.TENSOR_SUFFIX, image)
        if args.ppm:
            serialization.save_ppm(base + ".ppm", pixels)
    print(args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    paths = serialization.list_tensor_images(args.in_dir)
    if not paths:
        raise ConfigError(f"no {serialization.TENSOR_SUFFIX} files under {args.in_dir}")
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "slope"])
        for path in paths:
            image = serialization.load_tensor_image(path)
            name = os.path.splitext(os.path.basename(path))[0]
            writer.writerow([name, f"{noisegen.power_spectrum_slope(image.pixels):.6f}"])
    print(args.out)
    return EXIT_OK


def _cmd_balance(args) -> int:
    cfg = experiments.load_config(args.config, args.seed)
    clients, _, _ = experiments.prepare_clients(cfg, args.out)
    if cfg.supplement_pct == 0:
        # Nothing to balance: record the partition as it stands and an empty trace.
        datasets.write_partition_manifest(
            clients, os.path.join(args.out, "balance_manifest.csv"))
        experiments.ProtocolTrace().write_csv(os.path.join(args.out, "trace.csv"))
    print(args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = experiments.load_config(args.config, args.seed)
    result = experiments.run_experiment(cfg, args.out)
    print(f"{result.tag}: final={result.final_accuracy:.4f} "
          f"best={result.best_accuracy:.4f}")
    return EXIT_OK


def _cmd_grid(args) -> int:
    cfg = experiments.load_config(args.config, args.seed)
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
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--sigma", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ppm", action="store_true", help="also write clamped previews")
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("gen-noise", help="generate natural-noise images")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--bank", default="oriented_gabor",
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
    except (ConfigError, MixupError, noisegen.NoiseGenError,
            datasets.InfeasibleSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, DatasetError, serialization.FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
