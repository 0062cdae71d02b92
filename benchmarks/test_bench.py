"""Self-test of the benchmark: a shortened pass over each workload path.

    python3 -m pytest -q benchmarks/test_bench.py

Each workload runs one cell on a shrunken dataset (and two training rounds),
untraced and traced, in this process.
"""

import json

import pytest

import run

SMALL = {"dataset": {"toy_per_class": "30", "toy_test_per_class": "10"},
         "train": {"rounds": "2"}}
SPEC = json.loads(run.SPEC.read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    report = run.run_workload(workload, 7, 0, trace, SMALL, out_root=tmp_path)
    lines = run.report_lines(report)
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    table = [line.split() for line in lines[1:-1]]
    for name, (_, unit, _) in {**report["metrics"], **report["printed"]}.items():
        assert [name, unit] in [[row[0], row[2]] for row in table], name
    if not trace:
        unbounded = {"pseudo_images_per_s"}
        if run.WORKLOADS[workload][0] == "train":
            unbounded |= {"train_samples_per_s", "round_s.p50", "round_s.p80", "final_acc"}
        assert set(report["printed"]) == unbounded


def test_one_byte_change_in_any_output_fails_the_run(tmp_path):
    report = run.run_workload("desk_mixup", 7, 0, False, SMALL, out_root=tmp_path)
    out = tmp_path / "work" / "desk_mixup" / "out"
    cell = report["cells"][0]
    assert set(cell["digests"]) == {"partition_manifest.csv", "balance_manifest.csv",
                                    "trace.csv", "metrics.csv", "summary.csv", "model.ckpt"}
    for name in cell["digests"]:
        path = out / name
        original = path.read_bytes()
        changed = bytearray(original)
        changed[len(changed) // 2] ^= 0x01
        path.write_bytes(bytes(changed))
        try:
            tampered = dict(cell, digests=run.file_digests(out))
            failed, _ = run.check_cells([cell, tampered], "desk_mixup", 7,
                                        report["environment"], pinned_ok=False)
            assert failed == 1, name
            assert tampered["error"] == f"mismatch: {name}"
        finally:
            path.write_bytes(original)
