"""Print the sha256 digest of every artifact of a fixed set of CLI runs.

The runs are the four shipped configs in ``configs/``, ``verify`` at
b = 163.4, 287.1 and 500 on the tower-bisect base config of
``perfbench/workloads.json`` (b = 500 is the tower-scan regime, where the
level-1 scan finds far fewer components), ``verify`` on that base config
(b = 200) with ``refine_tol`` 4e-7, where every exclusion edge runs 13
bisection rounds (one grid step of 6/2048 over 4e-7 is about 2^12.8), so the
last multi-round pass of ``tower.exclusion_sets`` takes fewer than
``BISECT_DEPTH`` = 3 rounds, ``verify`` on that base config with ``H`` 2.9,
whose grid steps differ in the last bits, so every exclusion edge takes the
rounds of the largest step, ``verify`` on that base config with
``accel_energies`` 2,049 and ``accel_r_max`` 8, where one window class is
2,049 matrices and every length's class products form one large stack in
``tower.verify_windows``, ``decay`` on its spectra base config with a seeded
random 4,096-letter sample word (a factor set of about 3,200 words, where
the shipped Fibonacci config has 14), ``tower`` on the shipped λ = 400
config with the silver-mean rules a → aab, b → a and b = 200, the one run
whose marker bound C (``tower.critical_matrix_bound``, runs of up to three
marker letters) is set by a derivative norm, ||d/dE C^3||, rather than by a
power's norm, and one run each of ``tower``, ``words``, ``spectrum`` and
every ``measure`` op.  Each goes through
``cli.dispatch`` into its own directory under one temporary directory;
measure inputs are referenced by relative path, so every digest is
independent of where the temporary directory lives.  Output is one
``sha256  relative/path`` line per artifact, sorted by path, so two
checkouts write identical artifacts exactly when their outputs are equal.  A
run that exits non-zero is named on stderr and makes the tool exit 1, since
its artifacts are missing from the list:

    python3 tools/artifact_digests.py > before.txt   # in one checkout
    python3 tools/artifact_digests.py > after.txt    # in the other
    diff before.txt after.txt

``--keep DIR`` also copies the artifact tree to DIR (which must not exist),
so ``tools/artifact_diff.py`` can show which values of a moved file changed:

    python3 tools/artifact_digests.py --keep before   # in one checkout
    python3 tools/artifact_digests.py --keep after    # in the other
    python3 tools/artifact_diff.py before after

``tests/artifact_digests.txt`` holds the expected output, and a Tier-1 test
compares the tool's output with it.

Uses only the standard library and the package under ``src/``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

from subshift_spectra import cli  # noqa: E402

SET_X = [(-2.5, -1.0), (0.0, 1.25), (3.0, 4.0)]
SET_Y = [(-1.5, 0.5), (3.5, 6.0)]


def runs() -> list[tuple[str, str, dict]]:
    """(output name, command, config) of every run."""

    def shipped(name: str) -> dict:
        return json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))

    lam400 = shipped("acceptance_verify_lam400.json")
    out = [
        ("verify200", "verify", shipped("acceptance_verify_lam200.json")),
        ("verify400", "verify", lam400),
        ("decay", "decay", shipped("acceptance_decay.json")),
        ("adz", "adz", shipped("acceptance_adz.json")),
        ("tower400", "tower", lam400),
    ]
    silver = copy.deepcopy(lam400)
    silver["subshift"]["rules"] = {"a": "aab", "b": "a"}
    silver["potential"]["b"] = 200.0
    out.append(("tower_silver200", "tower", silver))
    spec = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    for b in (163.4, 287.1, 500.0):
        raw = copy.deepcopy(spec["workloads"]["tower-bisect"]["base_config"])
        raw["potential"]["b"] = b
        out.append((f"verify_b{b}", "verify", raw))
    raw = copy.deepcopy(spec["workloads"]["tower-bisect"]["base_config"])
    raw["refine_tol"] = 4e-7
    out.append(("verify_tol4e-7", "verify", raw))
    raw = copy.deepcopy(spec["workloads"]["tower-bisect"]["base_config"])
    raw["H"] = 2.9
    out.append(("verify_H2.9", "verify", raw))
    raw = copy.deepcopy(spec["workloads"]["tower-bisect"]["base_config"])
    raw["tower"].update(accel_energies=2049, accel_r_max=8)
    out.append(("verify_accel2049_r8", "verify", raw))
    sample = random.Random("artifact-digests:decay")
    raw = copy.deepcopy(spec["workloads"]["spectra"]["base_config"])
    raw["subshift"]["word"] = "".join(sample.choice("ab") for _ in range(4096))
    out.append(("decay_sample", "decay", raw))
    fibonacci = {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"}
    words = {"sample_len": 1024, "complexity_lengths": [1, 2, 4, 8, 16], "alphabet": ["a", "b"]}
    out.append(("words", "words", {"seed": 7, "subshift": fibonacci, "words": words}))
    spectrum = {"seed": 7, "potential": {"a": 0.0, "b": 1.5}, "spectrum": {"word": "aab"}}
    out.append(("spectrum", "spectrum", spectrum))
    for op in ("union", "intersect", "difference", "subset", "measure", "dilate"):
        y = 0.25 if op == "dilate" else "y.csv"
        out.append((f"measure_{op}", "measure", {"seed": 7, "measure": {"op": op, "x": "x.csv", "y": y}}))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="sha256 of every artifact of a fixed run set")
    ap.add_argument("--keep", type=Path, help="also copy the artifact tree to this new directory")
    args = ap.parse_args(argv)
    keep = args.keep.resolve() if args.keep else None
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        cli.write_csv(work / "x.csv", ["lo", "hi"], [list(p) for p in SET_X])
        cli.write_csv(work / "y.csv", ["lo", "hi"], [list(p) for p in SET_Y])
        outputs = work / "out"
        failed = False
        for name, command, raw in runs():
            code = cli.dispatch(command, cli.RunConfig(copy.deepcopy(raw)), outputs / name, quiet=True)
            if code != 0:
                print(f"{name}: {command} exited {code}", file=sys.stderr)
                failed = True
        for path in sorted(p for p in outputs.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(outputs).as_posix()}")
        if keep is not None:
            shutil.copytree(outputs, keep)
        os.chdir(ROOT)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
