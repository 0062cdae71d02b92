"""Which one-line mutations of `src/fedbalance` the tests kill. A report
only; it asserts nothing and no test collects it.

    python3 tests/mutation_probe.py [-- pytest arguments, default: -q -m "not slow" --maxfail=3]

For the unmutated tree first, then for each mutation of `MUTATIONS` in turn,
it copies the checkout (every file git tracks or would track, uncommitted
edits included) to a temporary directory, applies the mutation there, runs
`python -m pytest` in that copy, and prints the mutation as killed, with the
first failing test ids, or as survived. The checkout itself is only read.
Each pytest run is its own process group, killed when the run ends, so no
worker process outlives it. A mutation whose line is no longer in its file
prints as stale. One run of the default arguments takes ~25-60 s on two
cores.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

# (name, file under src/fedbalance, line text, mutated text): the text must
# appear exactly once in the file.
MUTATIONS = [
    ("serve_bounty's capacity floor rounds up", "protocol.py",
     "n = min(quantity, math.floor(capacity_fraction * int(hist[label])))",
     "n = min(quantity, math.ceil(capacity_fraction * int(hist[label])))"),
    ("largest remainders sorted unstably", "datasets.py",
     'order = np.argsort(-(raw - counts), kind="stable")',
     "order = np.argsort(-(raw - counts))"),
    ("balance target rounds to nearest", "experiments.py",
     "math.ceil(cfg.supplement_pct / 100.0 * peak)",
     "round(cfg.supplement_pct / 100.0 * peak)"),
    ("k bounds the label's count, not the pool's", "protocol.py",
     "hist[label] == 0 or hist.sum() < cfg.k",
     "hist[label] == 0 or hist[label] < cfg.k"),
    ("trim keeps draw order", "protocol.py",
     "rows = [rows[i] for i in np.sort(rng.choice(len(rows), size=quantity,",
     "rows = [rows[i] for i in (rng.choice(len(rows), size=quantity,"),
    ("FedAvg accumulates in float32", "training.py",
     "acc = np.zeros(client_params[0].flat.size, dtype=np.float64)",
     "acc = np.zeros(client_params[0].flat.size, dtype=np.float32)"),
    ("Laplace sign flipped", "mixing.py",
     "return -sigma * np.sign(u) * np.log(inner)",
     "return sigma * np.sign(u) * np.log(inner)"),
    ("no one-image chunk merge", "training.py",
     "if len(bounds) > 2 and n - bounds[-2] == 1:",
     "if len(bounds) > 2 and n - bounds[-2] == -1:"),
    ("deficit ties broken by the higher label", "protocol.py",
     "deficits.sort()",
     "deficits.sort(key=lambda d: (d[0], -d[1]))"),
    ("round loss is the median", "training.py",
     "report = RoundReport(round_index, accuracy, tuple(losses), float(np.mean(losses)))",
     "report = RoundReport(round_index, accuracy, tuple(losses), float(np.median(losses)))"),
    ("route reverses the records", "protocol.py",
     "return [r for r in records if topology.connected(r.src, r.dst)]",
     "return [r for r in reversed(records) if topology.connected(r.src, r.dst)]"),
    ("one shuffle for all epochs", "training.py",
     "perm = rng.permutation(n)",
     "perm = rng.permutation(n) if _ == 0 else perm"),
    ("capacity over the whole pool", "protocol.py",
     "n = min(quantity, math.floor(capacity_fraction * int(hist[label])))",
     "n = min(quantity, math.floor(capacity_fraction * int(hist.sum())))"),
    ("participants in draw order", "training.py",
     'chosen = sorted(rng_for(cfg.seed, "participation", round_index).choice(',
     'chosen = list(rng_for(cfg.seed, "participation", round_index).choice('),
    ("mixups stacked in reversed response order", "protocol.py",
     "rows = [row for r in responses for row in served[r.src]]",
     "rows = [row for r in reversed(responses) for row in served[r.src]]"),
]


def copy_checkout(dest: Path) -> None:
    """Every file git tracks or would track (ignored files left out)."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_pytest(tree: Path, pytest_args: list[str]) -> tuple[int | None, list[str]]:
    """(exit code or None on timeout, failing test ids) of pytest in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                             "-rfE", *pytest_args], cwd=tree, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # any worker left behind
        except ProcessLookupError:
            pass
    if code is None:
        out, _ = proc.communicate()
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return code, failed


def probe(mutation, pytest_args: list[str]) -> tuple[str, str]:
    """(verdict, detail) of pytest over a copy of the checkout with
    `mutation` applied (None: unmutated): "failed" with the first failing
    test ids, "passed", "stale" or "timed out"."""
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        if mutation is not None:
            file, old, new = mutation
            path = tree / "src" / "fedbalance" / file
            text = path.read_text()
            if text.count(old) != 1:
                return "stale", f"{file} holds the line {text.count(old)} times"
            path.write_text(text.replace(old, new))
        code, failed = run_pytest(tree, pytest_args)
    if code is None:
        return "timed out", f"after {TIMEOUT_S} s"
    if code == 0:
        return "passed", ""
    return "failed", " ".join(failed[:3]) or f"pytest exit {code}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pytest_args", nargs="*",
                        default=["-q", "-m", "not slow", "--maxfail=3"],
                        help='arguments for `python -m pytest` (default: -q -m "not slow" '
                             "--maxfail=3)")
    args = parser.parse_args()
    verdict, detail = probe(None, args.pytest_args)
    print(f"unmutated: tests {verdict} {detail}".rstrip(), flush=True)
    for name, file, old, new in MUTATIONS:
        verdict, detail = probe((file, old, new), args.pytest_args)
        verdict = {"failed": "killed", "passed": "survived"}.get(verdict, verdict)
        print(f"{verdict:<10}{name}{': ' + detail if detail else ''}", flush=True)


if __name__ == "__main__":
    main()
