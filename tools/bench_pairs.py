"""Run the benchmark on two checkouts in alternating pairs; write one JSON file.

    python3 tools/bench_pairs.py --before DIR --after DIR --out BENCH_n.json \\
        [--workload tower-bisect --seeds 1901-1910] [--workload spectra --seeds ...] \\
        [--trace tower-bisect --trace-pairs 5] [--seconds 56] [--ablation NAME]

For each workload and seed, ``perfbench/run.py --workload W --seed S`` runs
once in each checkout, one after the other; the side that goes first
alternates from pair to pair, so a slow spell of a shared machine does not
always fall on the same side.  Each run's record holds its exit code, the
four end-to-end metrics of its last output line, its attempted and failed
ops, and the timed ops of each of its workers (counted from the op lines
between two warm-up lines).  Per workload, each metric gets both sides'
medians and quartiles and the number of pairs the after side won.  Each
workload named by ``--trace`` gets ``--trace-pairs`` alternating pairs of
traced runs (``--trace 1``, seed 1) with their per-layer metrics; a traced
run reports the ops of the first cycle of configs whatever ``--seconds``
is, but has no probe, so only pairs run close together compare.  An
existing ``--out`` file is updated, so the untraced and traced runs can be
made by separate calls.  With ``--ablation NAME`` the untraced pairs are
filed under ``ablations.NAME`` instead of ``workloads``: there ``--before``
is the change and ``--after`` a copy of it with one mechanism taken out, so
the measured cost of a mechanism joins the change's own pairs in one file.
The machine line is the one ``run.py`` prints.
Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run: dict = {"exit": proc.returncode}
    if proc.returncode != 0 or not lines:
        run["stderr_tail"] = proc.stderr[-2000:]
        return run
    result = json.loads(lines[-1])
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    run["attempted"], run["failed"] = result["attempted"], result["failed"]
    per_worker: list[int] = []
    for line in lines:
        if line.startswith("warmup "):
            per_worker.append(0)
        elif line.startswith("op ") and per_worker:
            per_worker[-1] += 1
    run["ops_per_worker"] = per_worker
    for line in lines:
        if line.startswith("info machine "):
            run["machine"] = json.loads(line[len("info machine "):])
        elif line.startswith("info loadavg_1min "):
            run["loadavg_1min"] = line[len("info loadavg_1min "):]
    return run


def summary(pairs: list[dict]) -> dict:
    """Medians, quartiles and after-side wins of every metric over the pairs
    in which both runs exited 0."""
    ok = [p for p in pairs if p["before"]["exit"] == 0 and p["after"]["exit"] == 0]
    out = {"pairs": len(pairs), "pairs_both_exit_0": len(ok)}
    if len(ok) < 2:
        return out
    for name in ok[0]["before"]["metrics"]:
        row = {}
        for side in ("before", "after"):
            q1, q2, q3 = statistics.quantiles([p[side]["metrics"][name] for p in ok], n=4)
            row[side] = {"q1": q1, "median": q2, "q3": q3}
        row["after_lower"] = sum(
            p["after"]["metrics"][name] < p["before"]["metrics"][name] for p in ok
        )
        out[name] = row
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", action="append", default=[], help="one range per workload")
    ap.add_argument("--trace", action="append", default=[])
    ap.add_argument("--trace-pairs", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--ablation", help="file the untraced pairs under ablations.NAME")
    args = ap.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        ap.error("give one --seeds range per --workload")

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}

    def pairs_of(workload: str, seed_list: list[int], trace: bool) -> list[dict]:
        pairs = []
        for k, seed in enumerate(seed_list):
            order = ["before", "after"] if k % 2 == 0 else ["after", "before"]
            pair: dict = {"seed": seed, "order": order}
            for side in order:
                run = bench_run(sides[side], workload, seed, args.seconds, trace)
                doc.setdefault("machine", run.pop("machine", None))
                pair[side] = run
                print(f"{workload} seed {seed} {side}: exit {run['exit']}", flush=True)
            pairs.append(pair)
        return pairs

    filed = (
        doc.setdefault("ablations", {}).setdefault(args.ablation, {})
        if args.ablation
        else doc.setdefault("workloads", {})
    )
    for workload, seed_range in zip(args.workload, args.seeds):
        pairs = pairs_of(workload, seeds(seed_range), False)
        filed[workload] = {
            "seconds": args.seconds, "summary": summary(pairs), "runs": pairs
        }
    for workload in args.trace:
        pairs = pairs_of(workload, [1] * args.trace_pairs, True)
        doc.setdefault("traced", {})[workload] = {
            "seconds": args.seconds, "summary": summary(pairs), "runs": pairs
        }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
