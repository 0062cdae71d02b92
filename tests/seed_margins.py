"""Seed margins of acceptance criteria 9 and 10: each seed's desk accuracies
and whether it passes either criterion. A report only; it asserts nothing.

    PYTHONPATH=src python3 tests/seed_margins.py [--seeds 10]

The runs are `test_acceptance.desk_accuracy`'s, on its `DESK` config. A seed
passes criterion 9 when base < 0.40, mix - base >= 0.20, nat - base >= 0.10
and iid > 0.90, and criterion 10 when C=1 < C=2 < C=3, as in
`test_acceptance.py` (which needs 2 of seeds 0-2 for each). Ten seeds take
about five minutes on two cores.
"""

import argparse

from test_acceptance import DESK, desk_accuracy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="report seeds 0 .. N-1")
    seeds = range(parser.parse_args().seeds)
    print(f"desk: {DESK.toy_classes} classes x {DESK.toy_per_class} images, "
          f"{DESK.num_clients} clients, {DESK.model}, {DESK.rounds} rounds")
    print("seed   base    mix    nat    iid    C=2    C=3  c9  c10")
    passes = [0, 0]
    for seed in seeds:
        base = desk_accuracy(seed, 1, 0.0, 1.0)
        mix = desk_accuracy(seed, 1, 10.0, 1.0)
        nat = desk_accuracy(seed, 1, 10.0, 0.0)
        iid = desk_accuracy(seed, 10, 0.0, 1.0)
        c2, c3 = (desk_accuracy(seed, c, 0.0, 1.0) for c in (2, 3))
        verdicts = (base < 0.40 and mix - base >= 0.20 and nat - base >= 0.10
                    and iid > 0.90, base < c2 < c3)
        passes = [p + v for p, v in zip(passes, verdicts)]
        print(f"{seed:4d} " + " ".join(f"{a:6.3f}" for a in (base, mix, nat, iid, c2, c3))
              + "".join(f"  {'yes' if v else 'no':>3}" for v in verdicts), flush=True)
    print(f"criterion 9: {passes[0]}/{len(seeds)} seeds; "
          f"criterion 10: {passes[1]}/{len(seeds)} seeds")


if __name__ == "__main__":
    main()
