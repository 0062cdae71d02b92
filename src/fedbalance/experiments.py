"""Experiment configuration, the partition -> balance -> train pipeline, and
the three-axis ablation grid.

Configs are plain key=value files with [section] headers (stdlib configparser
syntax), chosen so a 45-cell grid stays auditable as text. Every file a run
writes is a deterministic function of (config, seed) and, for mnist and
cifar10, of the data files; nothing a run writes holds a wall-clock time.
"""

from __future__ import annotations

import configparser
import csv
import itertools
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import datasets, noisegen, serialization
from .datasets import ClientDataset, PartitionSpec
from .mixing import DpMixConfig, MixupError
from .protocol import Record, Topology, plan_deficits, run_balance
from .seeding import derive_seed, rng_for
from .training import TrainConfig, build_model, init_model, run_round


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    dataset: str = "toy"                 # toy | mnist | cifar10
    data_path: str = ""
    subset_per_class: int = 0            # 0 = use everything
    toy_classes: int = 10
    toy_per_class: int = 100
    toy_test_per_class: int = 50
    toy_dims: tuple[int, int, int] = (12, 12, 1)
    toy_jitter: int = 16
    # partition
    scheme: str = "class_skew"           # class_skew | dirichlet
    classes_per_client: int = 1
    concentration: float = 0.5
    num_clients: int = 10
    # balance
    supplement_pct: float = 0.0
    mix_fraction: float = 0.75
    k: int = DpMixConfig.k
    sigma: float = DpMixConfig.sigma
    deadline: int = 2
    capacity_fraction: float = 1.0
    topology: str = "star"               # "star" or an edge list "0-1,1-2"
    # natural noise generator
    noise_base_resolution: int = noisegen.GeneratorConfig.base_resolution
    noise_channels: int = noisegen.GeneratorConfig.channels_per_scale
    noise_bank: str = noisegen.GeneratorConfig.wavelet_bank.value
    noise_leaky_slope: float = noisegen.GeneratorConfig.leaky_slope
    # training
    model: str = "cnn"
    rounds: int = 50
    batch_size: int = TrainConfig.batch_size
    local_epochs: int = TrainConfig.local_epochs
    lr: float = TrainConfig.lr
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    eps: float = TrainConfig.eps
    participation_fraction: float = TrainConfig.participation_fraction
    # run
    seed: int = 0
    # grid axes (used by run_grid; empty = inherit the single value above)
    grid_classes_per_client: tuple[int, ...] = ()
    grid_supplement_pct: tuple[float, ...] = ()
    grid_mix_fraction: tuple[float, ...] = ()
    # fixed dataset stream shared by all grid cells; None = follow `seed`
    data_seed: int | None = None

    def validate(self) -> None:
        if self.dataset not in ("toy", "mnist", "cifar10"):
            raise ConfigError(f"dataset must be toy/mnist/cifar10, got {self.dataset!r}")
        if self.dataset != "toy" and not self.data_path:
            raise ConfigError(f"dataset {self.dataset} needs a path")
        if self.subset_per_class < 0:
            raise ConfigError(f"subset_per_class must be >= 0, got {self.subset_per_class}")
        if self.toy_classes < 1 or not 0 <= self.toy_jitter < 2**63:
            raise ConfigError("toy_classes must be >= 1 and toy_jitter in [0, 2**63)")
        if min(self.toy_per_class, self.toy_test_per_class, *self.toy_dims) < 1:
            raise ConfigError("toy_per_class, toy_test_per_class and toy_dims must be >= 1")
        if self.scheme not in ("class_skew", "dirichlet"):
            raise ConfigError(f"scheme must be class_skew/dirichlet, got {self.scheme!r}")
        if not (0.0 < self.concentration < math.inf):
            # summary.csv prints it under either scheme.
            raise ConfigError(f"concentration must be finite and > 0, got {self.concentration}")
        try:
            build_partition_spec(self).validate(
                self.toy_classes if self.dataset == "toy" else 10)
            DpMixConfig(self.k, self.sigma).validate()
        except (datasets.InfeasibleSpec, MixupError) as exc:
            raise ConfigError(str(exc)) from exc
        if not (0.0 <= self.supplement_pct <= 100.0):
            raise ConfigError(f"supplement_pct must be in [0, 100], got {self.supplement_pct}")
        if not (0.0 <= self.mix_fraction <= 1.0):
            raise ConfigError(f"mix_fraction must be in [0, 1], got {self.mix_fraction}")
        if self.deadline < 1:
            raise ConfigError(f"deadline must be >= 1, got {self.deadline}")
        if not (0.0 <= self.capacity_fraction <= 1.0):
            raise ConfigError("capacity_fraction must be in [0, 1]")
        if self.noise_bank not in [b.value for b in noisegen.WaveletBank]:
            raise ConfigError(f"unknown wavelet_bank {self.noise_bank!r}")
        if not math.isfinite(self.noise_leaky_slope):
            raise ConfigError(f"leaky_slope must be finite, got {self.noise_leaky_slope}")
        if min(self.noise_base_resolution, self.noise_channels) < 1:
            raise ConfigError("base_resolution and channels_per_scale must be >= 1")
        if self.model not in ("logreg", "mlp", "cnn"):
            raise ConfigError(f"model must be logreg/mlp/cnn, got {self.model!r}")
        if self.dataset == "toy" and self.model == "cnn" and min(self.toy_dims[:2]) < 4:
            # Two 2x2 pools leave no pixel of an image smaller than 4x4.
            raise ConfigError(f"the cnn needs toy_dims of at least 4x4, got {self.toy_dims}")
        if self.rounds < 1 or self.batch_size < 1 or self.local_epochs < 1:
            raise ConfigError("rounds, batch_size, local_epochs must be >= 1")
        if not (0.0 < self.participation_fraction <= 1.0):
            raise ConfigError("participation_fraction must be in (0, 1]")
        if not (self.lr > 0 and self.eps > 0 and math.isfinite(self.lr + self.eps)):
            raise ConfigError(f"lr and eps must be finite and > 0, got {self.lr}, {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1}, {self.beta2}")
        _parse_topology(self.topology)  # raises ConfigError on bad syntax


def _parse_topology(text: str) -> Topology:
    text = text.strip()
    if text == "star":
        return Topology.star()
    try:
        edges = [tuple(int(v) for v in part.split("-"))
                 for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad topology {text!r}; expected 'star' or 'a-b,c-d'") from exc
    if not edges or any(len(e) != 2 for e in edges):
        raise ConfigError(f"bad topology {text!r}; expected 'star' or 'a-b,c-d'")
    return Topology.peers(edges)


_SECTIONS = {
    "dataset": {"kind": ("dataset", str), "path": ("data_path", str),
                "subset_per_class": ("subset_per_class", int),
                "toy_classes": ("toy_classes", int),
                "toy_per_class": ("toy_per_class", int),
                "toy_test_per_class": ("toy_test_per_class", int),
                "toy_dims": ("toy_dims", "dims"),
                "toy_jitter": ("toy_jitter", int)},
    "partition": {"scheme": ("scheme", str),
                  "classes_per_client": ("classes_per_client", int),
                  "concentration": ("concentration", float),
                  "num_clients": ("num_clients", int)},
    "balance": {"supplement_pct": ("supplement_pct", float),
                "mix_fraction": ("mix_fraction", float),
                "k": ("k", int), "sigma": ("sigma", float),
                "deadline": ("deadline", int),
                "capacity_fraction": ("capacity_fraction", float),
                "topology": ("topology", str)},
    "noise": {"base_resolution": ("noise_base_resolution", int),
              "channels_per_scale": ("noise_channels", int),
              "wavelet_bank": ("noise_bank", str),
              "leaky_slope": ("noise_leaky_slope", float)},
    "train": {"model": ("model", str), "rounds": ("rounds", int),
              "batch_size": ("batch_size", int),
              "local_epochs": ("local_epochs", int),
              "lr": ("lr", float), "beta1": ("beta1", float),
              "beta2": ("beta2", float), "eps": ("eps", float),
              "participation_fraction": ("participation_fraction", float)},
    "run": {"seed": ("seed", int)},
    "grid": {"classes_per_client": ("grid_classes_per_client", "int_list"),
             "supplement_pct": ("grid_supplement_pct", "float_list"),
             "mix_fraction": ("grid_mix_fraction", "float_list")},
}


def _convert(raw: str, kind):
    if kind is str:
        return raw.strip()
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    if kind == "dims":
        parts = raw.lower().replace(" ", "").split("x")
        if len(parts) != 3:
            raise ValueError(f"dims must look like HxWxCh, got {raw!r}")
        return tuple(int(p) for p in parts)
    if kind == "int_list":
        return tuple(int(p) for p in raw.split(",") if p.strip())
    if kind == "float_list":
        return tuple(float(p) for p in raw.split(",") if p.strip())
    raise ValueError(f"unknown kind {kind!r}")


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Parse a key=value config file into a validated ExperimentConfig."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        # items() interpolates, so a stray '%' raises here, not in read().
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for section, pairs in items.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        known = _SECTIONS[section]
        for key, raw in pairs:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            attr, kind = known[key]
            try:
                values[attr] = _convert(raw, kind)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    cfg.validate()
    return cfg


def load_train(cfg: ExperimentConfig) -> tuple[tuple, tuple[int, int, int], int]:
    """Returns (train, dims, num_classes) for the configured dataset; train is
    a (pixels, labels) pair. The test split is not read."""
    data_seed = _data_seed(cfg)
    if cfg.dataset == "toy":
        train = datasets.make_toy_dataset(cfg.toy_per_class, cfg.toy_classes,
                                          cfg.toy_dims, derive_seed(data_seed, "toy-train"),
                                          jitter=cfg.toy_jitter)
        return train, cfg.toy_dims, cfg.toy_classes
    train, dims, num_classes = _load_split(cfg, "train")
    if cfg.subset_per_class > 0:
        train = _stratified_subset(train, cfg.subset_per_class, num_classes,
                                   rng_for(data_seed, "subset"))
    return train, dims, num_classes


def load_test(cfg: ExperimentConfig) -> tuple:
    """The configured dataset's test split as a (pixels, labels) pair."""
    if cfg.dataset == "toy":
        return datasets.make_toy_dataset(cfg.toy_test_per_class, cfg.toy_classes,
                                         cfg.toy_dims,
                                         derive_seed(_data_seed(cfg), "toy-test"),
                                         jitter=cfg.toy_jitter)
    test, _, _ = _load_split(cfg, "test")
    return test


def _load_split(cfg: ExperimentConfig, split: str) -> tuple[tuple, tuple[int, int, int], int]:
    """One split of the configured real dataset, its image dims and its 10
    classes. An empty split (nothing to partition, or to measure accuracy
    over), images of other dims, or other labels are a DatasetError."""
    load, dims = ((datasets.load_mnist_dir, (28, 28, 1)) if cfg.dataset == "mnist"
                  else (datasets.load_cifar10_dir, (32, 32, 3)))
    pixels, labels = load(cfg.data_path, split)
    if not labels.size:
        raise datasets.DatasetError(f"{cfg.data_path}: the {split} split holds no images")
    if pixels.shape[1:] != dims or labels.max() >= 10:
        raise datasets.DatasetError(f"{cfg.data_path}: the {split} split is not "
                                    f"{dims} images with labels 0-9")
    return (pixels, labels), dims, 10


def load_dataset(cfg: ExperimentConfig) -> tuple[tuple, tuple, tuple[int, int, int], int]:
    """Returns (train, test, dims, num_classes): `load_train` and `load_test`
    in one call, as `benchmarks/run.py` times the set-up."""
    train, dims, num_classes = load_train(cfg)
    return train, load_test(cfg), dims, num_classes


def _data_seed(cfg: ExperimentConfig) -> int:
    return cfg.seed if cfg.data_seed is None else cfg.data_seed


def _stratified_subset(dataset: tuple[np.ndarray, np.ndarray], per_class: int,
                       num_classes: int, rng: np.random.Generator) -> tuple:
    """Up to `per_class` examples of each label, grouped by label, each group
    in dataset order."""
    pixels, labels = dataset
    chosen = []
    for label in range(num_classes):
        idxs = np.flatnonzero(labels == label)
        pick = rng.choice(idxs.size, size=min(per_class, idxs.size), replace=False)
        chosen.append(idxs[np.sort(pick)])
    chosen = np.concatenate(chosen)
    return pixels[chosen], labels[chosen]


def build_partition_spec(cfg: ExperimentConfig) -> PartitionSpec:
    seed = derive_seed(cfg.seed, "partition")
    if cfg.scheme == "class_skew":
        return PartitionSpec.class_skew(cfg.classes_per_client, cfg.num_clients, seed)
    return PartitionSpec.dirichlet(cfg.concentration, cfg.num_clients, seed)


def balance_clients(clients: Sequence[ClientDataset], cfg: ExperimentConfig,
                    dims: tuple[int, int, int]) -> list[Record]:
    """Run the balance protocol for every client against pre-balance snapshots.

    Peers always serve from the datasets as they stood before any client
    balanced, so outcomes do not depend on the order clients run in and
    pseudo-images never become mixup sources. An empty client's target is 0,
    so it requests nothing. The clients balance in the worker processes of
    `fedbalance.workers` (see `balance_share`), which return each balanced
    client whole; each client here is pointed at its reply's arrays, so the
    main process concatenates nothing and never holds a client's old and new
    pixels together. Returns the trace records in client order.

    If it raises, the clients that had a deficit are left without pixels
    (`pixels` is None); every caller discards them.
    """
    from . import workers   # here: `import fedbalance` loads neither it nor subprocess

    plans = {}
    for client in clients:
        peak = int(client.label_histogram.max())
        deficits = plan_deficits(client, math.ceil(cfg.supplement_pct / 100.0 * peak))
        if deficits:
            plans[client.client_id] = deficits
    if not plans:
        return []
    balanced = workers.pool().balance({c.client_id: c for c in clients}, plans, cfg, dims)
    records: list[Record] = []
    for client in clients:
        if client.client_id in balanced:
            (client.pixels, client.labels, client.provenance,
             client_records) = balanced[client.client_id]
            records += client_records
    return records


def balance_share(snapshots: Mapping[int, ClientDataset],
                  plans: Mapping[int, Sequence[tuple[int, int]]], cfg: ExperimentConfig,
                  dims: tuple[int, int, int]) -> dict[int, tuple]:
    """A worker's part of `balance_clients`: balance each client of `plans`
    (id -> deficits) against `snapshots`, each on streams named after its own
    id. Returns {client id: (pixels, labels, provenance, records)}: the
    arrays of the client `run_balance` built (its snapshot's rows, then its
    pseudo-images) and its records; every snapshot is left as it was."""
    mix_cfg = DpMixConfig(cfg.k, cfg.sigma)
    topology = _parse_topology(cfg.topology)
    balanced = {}
    for cid, deficits in plans.items():
        gen_cfg = noisegen.GeneratorConfig(
            out_dims=dims, base_resolution=cfg.noise_base_resolution,
            channels_per_scale=cfg.noise_channels,
            leaky_slope=cfg.noise_leaky_slope,
            wavelet_bank=noisegen.WaveletBank(cfg.noise_bank),
            seed=derive_seed(cfg.seed, "noise-state", cid))
        client, records = run_balance(
            snapshots[cid], deficits, cfg.mix_fraction, topology, snapshots, mix_cfg,
            noisegen.init_generator(gen_cfg), derive_seed(cfg.seed, "natgen", cid),
            rng_for(cfg.seed, "balance", cid),
            capacity_fraction=cfg.capacity_fraction, deadline=cfg.deadline)
        balanced[cid] = (client.pixels, client.labels, client.provenance, records)
    return balanced


@dataclass
class ExperimentResult:
    reports: list
    final_accuracy: float
    best_accuracy: float
    tag: str


def config_tag(cfg: ExperimentConfig, num_classes: int) -> str:
    if cfg.scheme == "class_skew" and cfg.classes_per_client == num_classes:
        return "IID"
    if cfg.supplement_pct == 0:
        return "No Supplement"
    mix = round(cfg.mix_fraction * 100)
    return (f"{mix}% Mixup/ {100 - mix}% Natural "
            f"({_fmt_num(cfg.supplement_pct)}% Supplement)")


def _fmt_num(value) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


@dataclass
class PreparedClients:
    """The partitioned, balanced clients and what their files record: the
    partition manifest's rows, taken before the balance, and the balance's
    trace records (empty when `supplement_pct` is 0)."""

    clients: list[ClientDataset]
    dims: tuple[int, int, int]
    num_classes: int
    partition_rows: list[list]
    records: list[Record]


def prepare_clients(cfg: ExperimentConfig) -> PreparedClients:
    """Load, partition and (when `supplement_pct` > 0) balance the clients.
    Writes nothing, so a failed balance or training creates no file. The
    test split is not read. The loaded training set is released here: each
    client holds its own copy of its rows.
    """
    train, dims, num_classes = load_train(cfg)
    clients = datasets.partition(train, build_partition_spec(cfg))
    del train
    # The label counts, not the pre-balance pixels, outlive the balance.
    partition_rows = serialization.manifest_rows(clients)
    records = balance_clients(clients, cfg, dims) if cfg.supplement_pct > 0 else []
    return PreparedClients(clients, dims, num_classes, partition_rows, records)


def write_client_files(out_dir: str, prepared: PreparedClients,
                       balanced: bool = True) -> None:
    """`partition_manifest.csv` and, when `balanced`, `balance_manifest.csv`
    and `trace.csv`, into `out_dir`, which is made if need be."""
    os.makedirs(out_dir, exist_ok=True)
    serialization.write_csv(os.path.join(out_dir, "partition_manifest.csv"),
                            prepared.partition_rows)
    if balanced:
        serialization.write_csv(os.path.join(out_dir, "balance_manifest.csv"),
                                serialization.manifest_rows(prepared.clients))
        serialization.write_trace(os.path.join(out_dir, "trace.csv"), prepared.records)


_SUMMARY_FIELDS = ["dataset", "model", "scheme", "classes_per_client",
                   "concentration", "num_clients", "supplement_pct",
                   "mix_fraction", "k", "sigma", "rounds", "seed", "tag",
                   "final_accuracy", "best_accuracy"]


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> ExperimentResult:
    """Full pipeline: load, partition, balance, train. With `out_dir` set,
    writes every file after the last round, so a run that fails creates
    none."""
    cfg.validate()
    test_pixels, test_labels = load_test(cfg)
    prepared = prepare_clients(cfg)

    schema = build_model(cfg.model, prepared.dims, prepared.num_classes)
    params = init_model(schema, derive_seed(cfg.seed, "model-init"))
    train_cfg = TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})
    # Empty clients (a Dirichlet draw can leave some) sit out every round.
    clients = [c for c in prepared.clients if len(c)]

    reports = []
    for round_index in range(cfg.rounds):
        params, report = run_round(params, clients, test_pixels, test_labels,
                                   train_cfg, round_index)
        reports.append(report)

    final_acc = reports[-1].test_accuracy
    best_acc = max(r.test_accuracy for r in reports)
    tag = config_tag(cfg, prepared.num_classes)
    if out_dir:
        write_client_files(out_dir, prepared, balanced=cfg.supplement_pct > 0)
        serialization.write_csv(os.path.join(out_dir, "metrics.csv"), [
            ["round", "global_test_acc", "mean_train_loss"],
            *([r.round_index, f"{r.test_accuracy:.6f}", f"{r.mean_train_loss:.6f}"]
              for r in reports)])
        serialization.save_checkpoint(os.path.join(out_dir, "model.ckpt"), params)
        # Written last: run_grid never reuses a cell without its summary.
        serialization.write_csv(os.path.join(out_dir, "summary.csv"), [_SUMMARY_FIELDS, [
            cfg.dataset, cfg.model, cfg.scheme, cfg.classes_per_client,
            _fmt_num(cfg.concentration), cfg.num_clients,
            _fmt_num(cfg.supplement_pct), _fmt_num(cfg.mix_fraction),
            cfg.k, _fmt_num(cfg.sigma), cfg.rounds, cfg.seed, tag,
            f"{final_acc:.6f}", f"{best_acc:.6f}"]])
    return ExperimentResult(reports, final_acc, best_acc, tag)


def grid_cells(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Cross-product of the grid axes; each cell gets a derived seed and the
    shared dataset stream of the base seed."""
    c_values = cfg.grid_classes_per_client or (cfg.classes_per_client,)
    s_values = cfg.grid_supplement_pct or (cfg.supplement_pct,)
    m_values = cfg.grid_mix_fraction or (cfg.mix_fraction,)
    cells = []
    for c, sup, mix in itertools.product(c_values, s_values, m_values):
        tag = f"C={c};sup={_fmt_num(sup)};mix={_fmt_num(mix)}"
        cells.append(replace(
            cfg, classes_per_client=c, supplement_pct=sup, mix_fraction=mix,
            seed=derive_seed(cfg.seed, tag), data_seed=cfg.seed,
            grid_classes_per_client=(), grid_supplement_pct=(),
            grid_mix_fraction=()))
    return cells


def cell_dirname(cell: ExperimentConfig) -> str:
    return (f"C{cell.classes_per_client}_sup{_fmt_num(cell.supplement_pct)}"
            f"_mix{_fmt_num(cell.mix_fraction)}")


def run_grid(cfg: ExperimentConfig, out_dir: str) -> str:
    """Run every grid cell and assemble the grid summary CSV; returns its path.
    A cell is reused only if it has a summary and its `config.csv` fingerprint
    (every config field with its repr, plus a digest of both loaded splits for
    mnist and cifar10) can be read and matches; otherwise it is recomputed."""
    cells = grid_cells(cfg)
    for cell in cells:   # before any cell runs, so a bad axis value trains nothing
        cell.validate()
    data = []
    if cfg.dataset != "toy":   # a toy config fixes its data
        import hashlib   # here: its OpenSSL adds ~3.5 MB to every other command
        digest = hashlib.sha256()
        for split in ("train", "test"):
            for array in _load_split(cfg, split)[0]:
                # `tobytes()`'s bytes, with no copy of a C-contiguous split
                digest.update(np.ascontiguousarray(array))
        data = [["data_sha256", digest.hexdigest()]]
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    for cell in cells:
        cell_dir = os.path.join(cells_dir, cell_dirname(cell))
        fingerprint_path = os.path.join(cell_dir, "config.csv")
        fingerprint = [[f.name, repr(getattr(cell, f.name))] for f in fields(cell)] + data
        try:
            with open(fingerprint_path, newline="", encoding="utf-8") as fh:
                if (list(csv.reader(fh)) == fingerprint
                        and os.path.exists(os.path.join(cell_dir, "summary.csv"))):
                    continue
        except (OSError, UnicodeDecodeError, csv.Error):
            pass   # a missing or unreadable fingerprint matches nothing
        run_experiment(cell, cell_dir)
        # Written after the summary, so an interrupted cell is never reused.
        serialization.write_csv(fingerprint_path, fingerprint)

    rows = [_SUMMARY_FIELDS]
    for cell in cells:
        cell_summary = os.path.join(cells_dir, cell_dirname(cell), "summary.csv")
        with open(cell_summary, newline="", encoding="utf-8") as cell_fh:
            rows.append(list(csv.reader(cell_fh))[1])
    summary_path = os.path.join(out_dir, "summary.csv")
    serialization.write_csv(summary_path, rows)
    return summary_path
