"""Benchmark of the subshift-spectra CLI: seeded workloads through ``cli.dispatch``.

One run of one workload:

    python3 perfbench/run.py --workload tower-bisect --seed 1 --seconds 56 --trace 0

starts fresh worker processes one after another (``worker.py``).  Each sets
up (imports, warm-up config, one untimed warm-up op), then runs ops in a
closed loop with one client until its share of ``--seconds`` is used.  Op
``i`` runs config ``i mod configs`` of the workload (see workloads.json), so
every config recurs through the run.  Every op's artifacts are checked, and
all runs of one config (the warm-up config included) must write the same
bytes.

The other tenants of a shared machine slow its CPUs by up to 2x, for seconds
to minutes at a time, and a process sees that in its CPU time too.  So each
worker runs a fixed probe task inside its own process every 25 ms
(``worker.Probe``), and an op's wall and CPU time, without the probes' share,
are counted in units of the probes' mean duration during that op.  The gated
``wall_ref_s`` and ``cpu_ref_s`` are these counts times the fixed
``worker.PROBE_REF_S``, in seconds at that reference speed: each config's
median, averaged over the configs so that every config weighs the same.
``setup_s``, from process start to the first timed op, is scaled the same
way, and its median over workers is taken.  The raw seconds, ``wall_s`` and
``cpu_s`` (each config's fastest op, averaged over the configs), the raw
set-up times and the per-op quartiles are printed beside them.

BENCHMARK.json lists the workloads a run is gated on; ``tower-scan`` runs
through the same command and in ``--all`` but is not gated there, because
on a shared two-vCPU machine three gated workloads leave too little time per
run for steady figures.

With ``--trace 0`` the last output line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken from spans
recorded around the library's functions (see tracing.py) in the first cycle
of configs; a traced run has no probe.  It runs each op twice back to back,
recorded and not, and reports the tracing overhead as the median ratio of
such a pair.

    python3 perfbench/run.py --all [--seed 1] [--seconds 56]

runs every workload untraced and twice traced, prints every metric with its
unit, the tracing overhead, and the trace self-checks.  ``--smoke`` does the
same on one small op per worker and fails unless every metric is printed
with its unit and no op failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RUN_DEADLINE_S = 170.0
WORKERS = 5  # fresh processes per run, so setup_s is a median of five
SMOKE_WORKERS = 2

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from worker import PROBE_REF_S, in_probes  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def machine_facts(spec: dict) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "blas_env": spec["blas_env"],
    }


def quantiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def high_percentile(xs: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(xs)
    if n < 11:
        return f"n/a (needs 11 ops, have {n})"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(xs)[n - 11]:.4f}"


# ---------------------------------------------------------------------------
# One run of one workload


def run_workload(
    spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run the workers of one benchmark run; return everything measured."""
    wl = spec["workloads"][name]
    # A traced run reports no set-up time and needs only its first cycle of
    # configs, which one worker runs in full whatever the budget.
    n_workers = 1 if trace else SMOKE_WORKERS if smoke else WORKERS
    trace_ops = 1 if smoke else int(wl["generator"]["configs"])
    env = {**os.environ, **spec["blas_env"]}
    scratch = WORK / f"{name}-{os.getpid()}"
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    t_begin = time.monotonic()
    workers: list[dict] = []
    measured, next_index = 0.0, 0
    try:
        for w in range(n_workers):
            budget = 0.0 if smoke else max(0.0, seconds - measured) / (n_workers - w)
            min_ops = trace_ops if trace and next_index < trace_ops else 1
            cmd = [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", name,
                "--seed", str(seed),
                "--start", str(next_index),
                "--budget", f"{budget:.3f}",
                "--min-ops", str(min_ops),
                "--trace", str(int(trace)),
                "--work", str(scratch),
            ]
            if trace:
                cmd += ["--trace-file", str(trace_dir / f"{name}-s{seed}-w{w}.json")]
            if smoke:
                cmd.append("--smoke")
            timeout = max(5.0, RUN_DEADLINE_S - (time.monotonic() - t_begin))
            spawned = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"worker {w} of {name} exceeded {timeout:.0f} s") from exc
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-4000:])
                raise BenchError(f"worker {w} of {name} exited with code {proc.returncode}")
            sys.stderr.write(proc.stderr[-2000:])
            res = json.loads(lines[-1])
            res["log"] = lines[:-1]
            res["setup_raw_s"] = res["ready_monotonic"] - spawned
            if res["setup_speed"]:
                probes = in_probes(res["setup_raw_s"], res["setup_speed"], "wall")
                res["setup_s"] = probes * PROBE_REF_S
            workers.append(res)
            measured += res["measured_s"]
            next_index = res["next_index"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for res in workers for op in res["ops"]]
    all_ops = ops + [res["warmup"] for res in workers]
    first: dict[str, str] = {}
    for op in all_ops:
        ref = first.setdefault(op["label"], op["digest"])
        if op["digest"] and ref and op["digest"] != ref:
            op["problems"].append(f"artifact bytes differ from the first run of {op['label']}")
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "workers": workers,
        "ops": ops,
        "setups": [res.get("setup_s", math.nan) for res in workers],
        "setups_raw": [res["setup_raw_s"] for res in workers],
        "attempted": len(all_ops),
        "failed": sum(1 for op in all_ops if op["problems"]),
        "peak_rss_mb": max(res["peak_rss_mb"] for res in workers),
        "numpy": workers[0]["numpy"],
        "trace_ops": trace_ops,
    }


def fastest_per_config(ops: list[dict], key: str) -> dict[str, float]:
    best: dict[str, float] = {}
    for op in ops:
        best[op["label"]] = min(best.get(op["label"], op[key]), op[key])
    return best


def ref_seconds(ops: list[dict], key: str) -> float:
    """Median op cost in probes of each config, averaged over the configs,
    in seconds at the reference probe speed."""
    by_label: dict[str, list[float]] = {}
    for op in ops:
        by_label.setdefault(op["label"], []).append(op[key])
    return statistics.fmean(statistics.median(xs) for xs in by_label.values()) * PROBE_REF_S


def end_to_end(run: dict) -> dict[str, float]:
    return {
        "wall_ref_s": ref_seconds(run["ops"], "wall_probes"),
        "cpu_ref_s": ref_seconds(run["ops"], "cpu_probes"),
        "setup_s": statistics.median(run["setups"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def trace_overhead(run: dict) -> str:
    """Median over ops of recorded over unrecorded wall time, minus 1."""
    pairs: dict[int, dict[bool, float]] = {}
    for op in run["ops"]:
        pairs.setdefault(op["index"], {})[op["traced"]] = op["wall_s"]
    ratios = [p[True] / p[False] for p in pairs.values() if len(p) == 2]
    if not ratios:
        return "n/a (no op ran both ways)"
    return f"{statistics.median(ratios) - 1.0:+.4f} ratio over {len(ratios)} pairs"


def per_layer(run: dict, names: list[str]) -> dict[str, float]:
    tot: dict[str, float] = {}
    n = 0
    for res in run["workers"]:
        for idx, t in res["trace_totals"].items():
            if int(idx) < run["trace_ops"]:
                n += 1
                for k, v in t.items():
                    tot[k] = tot.get(k, 0.0) + v
    if n != run["trace_ops"]:
        raise BenchError(f"traced {n} of the first {run['trace_ops']} ops")
    return tracing.layer_metrics(tot, n, names)


def report(run: dict, bench: dict, facts: dict) -> dict:
    """Print one run's lines and return its result object (the last line)."""
    for res in run["workers"]:
        for line in res["log"]:
            print(line)
    fail_frac = run["failed"] / run["attempted"]
    print(
        f"info workload {run['workload']} seed {run['seed']} trace {int(run['trace'])} "
        f"ops {len(run['ops'])} workers {len(run['workers'])}"
    )
    labels = fastest_per_config(run["ops"], "wall_s")
    print(f"info configs {len(labels)}: {' '.join(labels)}")
    print(f"info machine {json.dumps({**facts, 'numpy': run['numpy']}, sort_keys=True)}")
    print(f"info fail_frac = {fail_frac:.6g} ratio ({run['failed']} of {run['attempted']} ops)")
    for key in ("wall_s", "cpu_s"):
        if not run["trace"]:
            fastest = statistics.fmean(fastest_per_config(run["ops"], key).values())
            print(f"info {key} = {fastest:.6g} s (fastest op of each config, mean over configs)")
        xs = [op[key] for op in run["ops"]]
        q1, q2, q3 = quantiles(xs)
        print(
            f"info {key} per op: min {min(xs):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} "
            f"{high_percentile(xs)} n {len(xs)}"
        )
    for key in ("setups", "setups_raw"):
        print(f"info {key} per worker: {' '.join(f'{s:.4f}' for s in run[key])} s")

    if run["trace"]:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(run, names)
        seen = sorted({f for res in run["workers"] for f in res["funcs_seen"]})
        print(f"info traced functions with spans: {' '.join(seen)}")
        for func, mods in run["workers"][0]["replaced"].items():
            print(f"info wrapped {func} in {' '.join(mods)}")
        print(f"info per-layer values are per-op means over ops 0..{run['trace_ops'] - 1}")
        print(f"info trace_overhead = {trace_overhead(run)} (recorded vs unrecorded op)")
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(run)
    for n in names:
        print(f"metric {n} = {values[n]:.6g} {units[n]}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def single(args, spec: dict, bench: dict) -> int:
    facts = machine_facts(spec)
    load0 = os.getloadavg()[0]
    run = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(run, bench, facts)
    print(f"info loadavg_1min start {load0:.2f} end {os.getloadavg()[0]:.2f}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# All workloads, with the trace self-checks


def suite(args, spec: dict, bench: dict, smoke: bool) -> int:
    facts = machine_facts(spec)
    load0 = os.getloadavg()[0]
    names = list(spec["workloads"])
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems: list[str] = []
    rows: dict[str, dict] = {}
    for name in names:
        untraced = run_workload(spec, name, args.seed, args.seconds, False, smoke)
        r0 = report(untraced, bench, facts)
        traced = [run_workload(spec, name, args.seed, args.seconds, True, smoke) for _ in range(2)]
        r1, r2 = (report(t, bench, facts) for t in traced)
        seen = {f for t in traced for res in t["workers"] for f in res["funcs_seen"]}
        raw = {
            k: statistics.fmean(fastest_per_config(untraced["ops"], k).values())
            for k in ("wall_s", "cpu_s")
        }
        overhead = trace_overhead(traced[0])
        rows[name] = {"r0": r0, "r1": r1, "raw": raw, "seen": seen, "overhead": overhead}
        for r in (r0, r1, r2):
            if r["failed"]:
                problems.append(f"{name}: {r['failed']} of {r['attempted']} ops failed")
        for m, unit in layer.items():
            if unit != "s" and r1["metrics"][m]["value"] != r2["metrics"][m]["value"]:
                problems.append(f"{name}: {m} differs between two traced runs")

    print(f"== summary seed {args.seed} seconds {args.seconds:g}")
    print(f"info machine {json.dumps(facts, sort_keys=True)}")
    for name, row in rows.items():
        r0 = row["r0"]
        fail_frac = r0["failed"] / r0["attempted"]
        print(f"{name}: metric fail_frac = {fail_frac:.6g} ratio")
        for m, v in row["raw"].items():
            print(f"{name}: metric {m} = {v:.6g} s")
        for m, unit in e2e.items():
            print(f"{name}: metric {m} = {r0['metrics'][m]['value']:.6g} {unit}")
        for m, unit in layer.items():
            print(f"{name}: metric {m} = {row['r1']['metrics'][m]['value']:.6g} {unit}")
        print(f"{name}: trace_overhead = {row['overhead']}")

    every = {t.func for t in tracing.TARGETS}
    seen_any = set().union(*(row["seen"] for row in rows.values()))
    missing = sorted(every - seen_any)
    if missing:
        problems.append(f"wrapped functions without a span on any workload: {missing}")
    print(f"check every wrapped function has spans: {'ok' if not missing else missing}")

    if not smoke:
        lm = {n: row["r1"]["metrics"] for n, row in rows.items()}
        val = lambda n, m: lm[n][m]["value"]  # noqa: E731
        kernel = val("tower-bisect", "sl2.cocycle_stack.self_s") + val(
            "tower-bisect", "sl2.svd_angles_stack.self_s"
        )
        op_mean = val("tower-bisect", "traced.op_wall_s")
        claims = {
            "tower-bisect kernel self time >= half the op": kernel >= 0.5 * op_mean,
            "tower-bisect L1 components >= 10x tower-scan": val(
                "tower-bisect", "tower.exclusion_sets.L1.components"
            )
            >= 10.0 * val("tower-scan", "tower.exclusion_sets.L1.components"),
            "spectra records no tower span": not any(
                f.startswith("tower.") for f in rows["spectra"]["seen"]
            ),
        }
        print(f"info tower-bisect kernel self time {kernel:.4f} s of a {op_mean:.4f} s traced op")
        for claim, ok in claims.items():
            print(f"check {claim}: {'ok' if ok else 'FAIL'}")
            if not ok:
                problems.append(f"claim failed: {claim}")

    print(f"info loadavg_1min start {load0:.2f} end {os.getloadavg()[0]:.2f}")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"ok": not problems, "problems": problems}))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    mode.add_argument("--smoke", action="store_true", help="--all on one small op per worker")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "subshift_spectra" / "__init__.py").is_file():
        print(f"no subshift_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_json(bench_path)
    spec = load_json(HERE / "workloads.json")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload and args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            return single(args, spec, bench)
        return suite(args, spec, bench, smoke=args.smoke)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
