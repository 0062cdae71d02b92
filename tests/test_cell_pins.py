"""SHA-256 of every file `run_experiment` writes, for a handful of
sub-second cells: each model, both ends of the mix axis, an empty Dirichlet
client, a peer topology that drops messages, a one-round deadline, partial
participation, and a capacity floor that binds under two local epochs. Any
change to an output byte fails here, and a deliberate one shows as an edit
to this table. The slow check runs the two desk cells of the benchmark and
compares them with `benchmarks/golden.json`."""

import hashlib
import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from fedbalance.cli import EXIT_OK, main
from fedbalance.experiments import ExperimentConfig, run_experiment
from helpers import load_bench_module

BASE = ExperimentConfig(dataset="toy", toy_classes=4, toy_per_class=12,
                        toy_test_per_class=6, toy_dims=(8, 8, 1), num_clients=4,
                        classes_per_client=1, supplement_pct=50, mix_fraction=0.5,
                        k=3, sigma=5.0, model="cnn", rounds=3, batch_size=8, seed=3)

CELLS = {
    "cnn-mix0": {"mix_fraction": 0.0},
    "cnn-mix1-rgb": {"mix_fraction": 1.0, "toy_dims": (6, 6, 3)},
    "mlp": {"model": "mlp"},
    "logreg": {"model": "logreg", "classes_per_client": 2},
    "dirichlet-empty-client": {"scheme": "dirichlet", "concentration": 0.05,
                               "num_clients": 12, "model": "logreg"},
    "peers-drop": {"topology": "0-1,1-2", "model": "logreg"},
    "deadline-1": {"deadline": 1, "model": "mlp"},
    "participation-half": {"participation_fraction": 0.5},
    # a holder serves floor(0.2 * 12) = 2 of the 3 mixups asked
    "capacity-0.2-epochs-2": {"capacity_fraction": 0.2, "local_epochs": 2},
}

PINNED = {
    "cnn-mix0": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "798a0fb9498b3030a8e160e4e0d648921a1d12be9b43d5715a8f681e4c54ff83",
        "model.ckpt":
            "2e5549b429ff6139abf4165f0ba959f65fd7c35b69113908a877874bf550b1f6",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "a236d054157302141fac7973d2e8728e005d3e6c3831185a692ffb8d701b0513",
        "trace.csv":
            "562f1eec90b4b17c0de3f4c4566a583d686419ce96804b8108996a65ce876275",
    },
    "cnn-mix1-rgb": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "5d64d6cae70eaf23bc92309c3637a288be262f3c70fd6e1e8a210a76fb9f3e86",
        "model.ckpt":
            "bca43bc997c496081529bf0020868332c851c80425b43cc873c4996dbf299d75",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "bd36c8ddfc578646405fd7f6326e28e9d46b1b6a9e1da34c12e8d30fbedc1b30",
        "trace.csv":
            "070e1adb9d5ca4ccecd196b5cee41de3bc1d39d03712ed77a7506c4f7e725269",
    },
    "mlp": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "ab6af2d77f8518f02325d8fb7d4cff86e75c01b6d360b6e8931462f6b892f468",
        "model.ckpt":
            "9568e1d42ab92f1435c9b7039cc0aeb3b5c3737253b580a3e15c1a3940013df1",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "4b2f07b3a88764f9284844f0320409782c2512dfa7c8bf9e4339948492d7a600",
        "trace.csv":
            "53f2de631c046ab408539d3c5ccf3836df21b0ccbd4fe02b05848cea13f3e8f3",
    },
    "logreg": {
        "balance_manifest.csv":
            "a7e05982add857f5922ae950cb5bf7fa45ed6d5cf697a376701b06134b93ca4c",
        "metrics.csv":
            "8fe0007f7656ea1dd02eec1dad320a63ed1711e2e795cd66822836e5639e478b",
        "model.ckpt":
            "ab6c5e34fd6448814024c96357aaf8a6ed335f8805baff241e6fe21a6c49672a",
        "partition_manifest.csv":
            "664bb988c2138eb1064424fa7d272703d27b237851a4686b059bcf9df7dedf06",
        "summary.csv":
            "7b2bf711c8b816a7c59fc9e026aa65f52b470ea07e206ce93235ad6bed843494",
        "trace.csv":
            "6626119fd272de93a45312e8faaccd0d8c4534af894f5dacb004822b0fd14146",
    },
    "dirichlet-empty-client": {
        "balance_manifest.csv":
            "e9f88d74b80cc0db1959936951d93497d5a9444455f3c26e5488a01a888a5dd0",
        "metrics.csv":
            "33b07033db2ab554260dd7326659d822914af487298c5de6abe1f54662ec9155",
        "model.ckpt":
            "7e423d43ffb6bdf80aca1a291f663ef79f8a64574178c588e8e3297517d9c7d2",
        "partition_manifest.csv":
            "da1d99177a06b9c1a46841e8a6b08d8293c58d6f376297033264aa38fba81d6f",
        "summary.csv":
            "8b1ea393c1fa99fbcd2255d09a715b90b23f939d8b4e4bd89665b8848db190ea",
        "trace.csv":
            "680584c9026e9b24199c271847af48174de9f9f03f1ecba510569273679a29dc",
    },
    "peers-drop": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "b90b9716d4ec106a177627558e7040b62b898ad8f1ee803cd5edc4f9d65efc5e",
        "model.ckpt":
            "3791b9e997b3cb1e0be0610cefc27c2aa6072ed13fce4be16d9f51fd9f1d55eb",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "d5b603499079952fee343fa198c9678944037cd4e0676f1f206ccf9b97f33828",
        "trace.csv":
            "02b7d123501e16129c5bf37d8c4d744c24d35d536931c12526d3ba58f00c0e38",
    },
    "deadline-1": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "f5193fc6b4ed0e415e0f3e8532383cb515f7df788bd95f31842130c2a664e8b3",
        "model.ckpt":
            "6bc999b3a67909fff7781b4e4ba67f7cae0d4b02031961dace3e8d11c155d66d",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "cd13cb8cdf83e21706e3935af4216a55a0578348dc3ca0a6aaf1c26cd176f7bb",
        "trace.csv":
            "1d5e4a37ffd1d6b009761ad87e0db5aa6abb550f184fe05ff00e38dbe1bbe569",
    },
    "participation-half": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "178d9e31cf238f0844cf359291245d95f88b13e0a792042a6482dfd3d150c2df",
        "model.ckpt":
            "936f8277ab893af571c2161003ee5561e868a13d8cf507be1d27ba6ad5741d52",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "0a2e6bf62053cf376afb118370af3a90bb9ef1167eae81fd90087931a06f8306",
        "trace.csv":
            "53f2de631c046ab408539d3c5ccf3836df21b0ccbd4fe02b05848cea13f3e8f3",
    },
    "capacity-0.2-epochs-2": {
        "balance_manifest.csv":
            "d1cff5c6a628de3bb1735aefe3fd5d5bc3bb2db1308810c573cd5a3ecb5e52bd",
        "metrics.csv":
            "382202cbdce80587ede6b0d6ab50f90e9a1e5d9de02ec4d843e92fc4caebae71",
        "model.ckpt":
            "fa799a044de95ef073ced5a6e22e8f0ed51cac96cc9b5c58e1b2263f4958a734",
        "partition_manifest.csv":
            "71fcd8a2534385b7574064b560d6939d2b57c28777911bae11c846fc124c88d1",
        "summary.csv":
            "913fa95e3e5f83d9043d810923162e418d80a7083a4c3239972919aed7612b0f",
        "trace.csv":
            "45de8d4477290a45efa8b7d4a3adb2ab6b61b9d65f4cd2dc0e7297ee1533947c",
    },
}


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_outputs_match_pinned_digests(tmp_path, name):
    run_experiment(replace(BASE, **CELLS[name]), str(tmp_path))
    assert _digests(tmp_path) == PINNED[name]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["desk_mixup", "desk_natural"])
def test_desk_cell_outputs_match_the_golden_digests(tmp_path, monkeypatch, workload):
    # The training bytes hang on OpenBLAS's block sizes, so the pins hold
    # only under the numpy build and OpenBLAS core they were made with.
    monkeypatch.setitem(sys.modules, "tracer", load_bench_module("tracer"))
    run = load_bench_module("run")
    golden = json.loads(run.GOLDEN.read_text())
    here = {"numpy": np.__version__, "blas_core": run._openblas()[1]}
    if here != golden["environment"]:
        pytest.skip(f"the digests were pinned under {golden['environment']}, not {here}")
    cfg_path = tmp_path / "workload.cfg"
    run.write_config(workload, 0, cfg_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert _digests(out) == golden["workloads"][workload]["0"]["files"]
