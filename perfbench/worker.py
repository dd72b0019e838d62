"""One benchmark process: set up, run ops in a closed loop, check every output.

``run.py`` starts this script as a fresh process so that set-up time (imports,
config generation and one untimed warm-up op) is measured from process start.
The last line of its standard output is a JSON object that ``run.py`` reads.

Outside a traced run a speed probe (``Probe``) runs from just after numpy is
imported: a timer signal interrupts the process every ``PROBE_PERIOD_S`` and
runs a fixed task of the benchmark's own, so the machine's speed is sampled
on the same CPU, at the same moments, as the op itself.  An op's time with
the probe's time taken out, divided by the probe's mean duration over the
op, is its cost in probes; set-up time is measured the same way.
"""

from __future__ import annotations

import argparse
import atexit
import copy
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ACCEL_COUNTERS = (
    "hyper_violations",
    "drift_failures",
    "growth_chi_failures",
    "growth_product_failures",
    "block_floor_failures",
)


PROBE_PERIOD_S = 0.025
# Turns a count of probes back into seconds: about the probe's duration
# inside an op on a quiet machine of the kind the benchmark was defined on
# (2-vCPU Xeon VM).  It is a fixed scale; changing it rescales every figure
# measured before.
PROBE_REF_S = 2.5e-4


def load_spec() -> dict:
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Config generation


class Generator:
    """Configs of one workload as a function of (seed, op index).

    Timed ops run the full-size configs.  The warm-up op, and every op of a
    smoke run, run the workload's small configs, labelled ``small:``.
    """

    def __init__(self, spec: dict, name: str, seed: int, smoke: bool) -> None:
        wl = spec["workloads"][name]
        base = wl["base_config"]
        if isinstance(base, str):
            base = spec["workloads"][base]["base_config"]
        small = copy.deepcopy(wl["small"])
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.command = wl["command"]
        self.configs = int(wl["generator"]["configs"])
        self.full = (base, wl["generator"])
        self.small = ({**base, **small.pop("config")}, {**wl["generator"], **small})

    def config(self, index: int | None) -> tuple[dict, str]:
        """Config of op ``index`` (None for the warm-up op) and its label.

        Op ``i`` runs config ``i mod configs``, so each config recurs through
        the run and its repeats can be compared.  The couplings of the
        configs take one point in each of ``configs`` equal strata of the
        range, so the seed moves the set only within its strata.
        """
        is_small = index is None or self.smoke
        base, gen = self.small if is_small else self.full
        raw = copy.deepcopy(base)
        tag = "warmup" if index is None else index % self.configs
        if gen["param"] == "potential.b":
            if is_small:
                b = float(gen["warmup"])
            else:
                lo, hi = gen["range"]
                u = random.Random(f"{self.name}:{self.seed}").random()
                b = round(lo + (hi - lo) * (tag + u) / self.configs, 3)
            raw["potential"]["b"] = b
            label = f"b={b:g}"
        else:
            rng = random.Random(f"{self.name}:{self.seed}:{tag}")
            word = "".join(rng.choices(gen["alphabet"], k=int(gen["length"])))
            raw["subshift"] = {"kind": "sample", "word": word}
            label = f"word={hashlib.sha256(word.encode()).hexdigest()[:8]}"
        return raw, ("small:" if is_small else "") + label


# ---------------------------------------------------------------------------
# Output checks


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def check_outputs(command: str, raw: dict, out: Path) -> list[str]:
    """Problems found in one op's artifacts; empty when the op is correct."""
    problems = []
    if command == "verify":
        sched = _load(out, "schedule.json")
        required = [c for c in sched["checks"] if c["required"]]
        if not required or not all(c["ok"] for c in required):
            problems.append("required schedule check failed")
        accel = _load(out, "acceleration.json")
        if accel["all_passed"] is not True:
            problems.append("acceleration all_passed is false")
        for key in ACCEL_COUNTERS:
            if accel[key] != 0:
                problems.append(f"acceleration {key} = {accel[key]}")
        cov = _load(out, "covering.json")
        max_res = float(raw["tower"]["covering_max_residue_fraction"])
        if not cov["residue_fraction"] <= max_res:
            problems.append(f"covering residue_fraction {cov['residue_fraction']} > {max_res}")
        if _load(out, "suite.json")["all_passed"] is not True:
            problems.append("suite all_passed is false")
    elif command == "decay":
        two_h = 2.0 * float(raw["H"])
        for row in _load(out, "decay.json")["rows"]:
            m = row["measure"]
            if not (isinstance(m, float) and math.isfinite(m) and 0.0 < m <= two_h):
                problems.append(f"decay measure {m!r} at lam {row['lam']} outside (0, {two_h}]")
    else:
        problems.append(f"no output check for command {command!r}")
    return problems


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Speed probe


class Probe:
    """Samples the machine's speed from inside the benchmark's own process.

    On a shared machine the other tenants slow a CPU down by up to 2x for
    seconds at a time, and a process sees that in its CPU time as well as
    its wall time.  Once started, a timer signal runs ``task`` every
    ``PROBE_PERIOD_S``, interrupting whatever runs, and adds up how long it
    took.  The task is fixed benchmark code that mixes what the library
    spends its time on (2x2 transfer-matrix products over an energy array,
    a small symmetric eigensolve, interpreted arithmetic), so its duration
    rises and falls with the library's.  It never touches the library.
    Tasks on smaller arrays or in longer loops tracked the ops less well:
    under contention the ops slowed by their slowdown to a power of 1.3 to
    1.5, this task by a power of about 1.1.
    """

    def __init__(self, np) -> None:
        self.np = np
        energies = np.linspace(-2.0, 2.0, 512)
        self.diag = [energies - v for v in (0.0, 0.3, 0.6, 0.0, 0.3, 0.6)]
        self.step = np.zeros((512, 2, 2))
        self.step[:, 0, 1], self.step[:, 1, 0] = -1.0, 1.0
        self.one = np.zeros((512, 2, 2))
        self.one[:, 0, 0] = self.one[:, 1, 1] = 1.0
        h = np.random.default_rng(20260809).standard_normal((13, 13))
        self.h = h + h.T
        self.n, self.wall, self.cpu = 0, 0.0, 0.0
        for _ in range(50):  # load the code paths before anything is timed
            self.task()

    def task(self) -> float:
        """A six-letter Schroedinger cocycle over 512 energies, one 13x13
        eigensolve and a short interpreted loop."""
        np = self.np
        m = self.one
        for d in self.diag:
            self.step[:, 0, 0] = d
            m = np.matmul(self.step, m)
            m /= np.abs(m).max()
        s = float(np.linalg.eigvalsh(self.h)[0]) + float(m[0, 0, 0])
        for i in range(300):
            s += (i * i) % 7
        return s

    def _sample(self, *_) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        self.task()
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        self.n += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        atexit.register(self.stop)  # a signal after interpreter teardown would kill it

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def mark(self) -> tuple[int, float, float]:
        return self.n, self.wall, self.cpu

    def since(self, mark: tuple[int, float, float]) -> dict:
        """Probe samples taken since ``mark``: their count, their total wall
        and CPU time, and the mean duration of one."""
        n, wall, cpu = (now - then for now, then in zip(self.mark(), mark))
        if n == 0:  # shorter than the period: take one sample now, outside it
            mark = self.mark()
            self._sample()
            _, mean_wall, mean_cpu = (now - then for now, then in zip(self.mark(), mark))
            return {"probe_n": 0, "probe_wall_s": 0.0, "probe_cpu_s": 0.0,
                    "probe_mean_wall_s": mean_wall, "probe_mean_cpu_s": mean_cpu}
        return {"probe_n": n, "probe_wall_s": wall, "probe_cpu_s": cpu,
                "probe_mean_wall_s": wall / n, "probe_mean_cpu_s": cpu / n}


def in_probes(seconds: float, speed: dict, kind: str) -> float:
    """Time not spent in the probe, in units of the probe's mean duration."""
    return (seconds - speed[f"probe_{kind}_s"]) / speed[f"probe_mean_{kind}_s"]


# ---------------------------------------------------------------------------
# Ops


class Runner:
    def __init__(self, cli, gen: Generator, work: Path, rec, probe: Probe | None) -> None:
        self.cli = cli
        self.gen = gen
        self.work = work
        self.rec = rec
        self.probe = probe

    def op(self, index: int | None, record: bool = False) -> dict:
        """Run one op, recording its spans if ``record`` or sampling the
        machine's speed if the runner has a probe; time it from config file
        to last artifact, then check it."""
        raw, label = self.gen.config(index)
        tag = "warmup" if index is None else f"op{index}"
        cfg_path = self.work / f"{tag}.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        out = self.work / tag
        code, error = None, None
        mark = self.probe.mark() if self.probe is not None else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if record:
                with self.rec.op_span(index):
                    code = self._dispatch(cfg_path, out)
            else:
                code = self._dispatch(cfg_path, out)
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        speed = self.probe.since(mark) if self.probe is not None else {}
        problems = [error] if error else []
        if code not in (0, None):
            problems.append(f"exit code {code}")
        dig = ""
        if not problems:
            try:
                problems += check_outputs(self.gen.command, raw, out)
                dig = digest(out)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        cfg_path.unlink()
        r = {
            "index": index,
            "label": label,
            "traced": record,
            "wall_s": wall,
            "cpu_s": cpu,
            "digest": dig,
            "problems": problems,
        }
        if speed:
            r.update(speed)
            r["wall_probes"] = in_probes(wall, speed, "wall")
            r["cpu_probes"] = in_probes(cpu, speed, "cpu")
        return r

    def _dispatch(self, cfg_path: Path, out: Path) -> int:
        cfg = self.cli.load_config(cfg_path)
        return self.cli.dispatch(self.gen.command, cfg, out, quiet=True)


def op_line(r: dict) -> str:
    idx = "warmup" if r["index"] is None else f"op {r['index']}"
    status = "ok" if not r["problems"] else "FAIL " + "; ".join(r["problems"])
    if r["traced"]:
        idx += " traced"
    probes = ""
    if "wall_probes" in r:
        ref_s, probe_us = r["wall_probes"] * PROBE_REF_S, r["probe_mean_wall_s"] * 1e6
        probes = f" = {ref_s:.4f} ref s (probe {probe_us:.0f} us)"
    return (
        f"{idx} {r['label']} wall {r['wall_s']:.4f} s{probes} cpu {r['cpu_s']:.4f} s "
        f"digest {r['digest'][:16] or '-'} {status}"
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0, help="index of the first timed op")
    ap.add_argument("--budget", type=float, required=True, help="seconds of timed ops")
    ap.add_argument("--min-ops", type=int, default=1, help="op indices to run whatever the budget")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--smoke", action="store_true", help="one timed op on a small config")
    ap.add_argument("--work", required=True, help="scratch directory for configs and artifacts")
    args = ap.parse_args(argv)

    spec = load_spec()
    for key, value in spec["blas_env"].items():
        os.environ.setdefault(key, value)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy

    # The probe would add its own time to whichever span it interrupts, so
    # a traced run goes without it.  Otherwise it runs from here to the end,
    # through the rest of set-up too.
    probe = None if args.trace else Probe(numpy)
    if probe is not None:
        probe.start()
        setup_mark = probe.mark()

    import subshift_spectra
    from subshift_spectra import cli

    if Path(subshift_spectra.__file__).resolve().parent != src / "subshift_spectra":
        print(f"imported {subshift_spectra.__file__}, not the checkout's src/", file=sys.stderr)
        return 3

    import tracing

    gen = Generator(spec, args.workload, args.seed, args.smoke)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    rec = None
    replaced = {}
    if args.trace:
        rec = tracing.Recorder()
        replaced = tracing.install(rec)
    runner = Runner(cli, gen, work, rec, probe)

    warm = runner.op(None)
    ready = time.monotonic()
    setup_speed = probe.since(setup_mark) if probe is not None else {}
    print(op_line(warm), flush=True)

    ops = []
    t_start = time.perf_counter()
    index = args.start
    while True:
        # A traced run runs each op twice back to back, recorded and not, in
        # alternating order, so that the pair shares the machine's state and
        # its ratio gives the tracing overhead.
        modes = [False] if rec is None else [index % 2 == 0, index % 2 == 1]
        for record in modes:
            r = runner.op(index, record)
            ops.append(r)
            print(op_line(r), flush=True)
        index += 1
        elapsed = time.perf_counter() - t_start
        done = index - args.start >= args.min_ops
        if args.smoke or (done and elapsed + 0.5 * len(modes) * r["wall_s"] >= args.budget):
            break
    measured = time.perf_counter() - t_start

    result = {
        "ready_monotonic": ready,
        "setup_speed": setup_speed,
        "warmup": warm,
        "ops": ops,
        "next_index": index,
        "measured_s": measured,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if rec is not None:
        spans = rec.spans
        by_op = tracing.totals_by_op(spans)
        result["replaced"] = replaced
        result["funcs_seen"] = sorted({s[0] for s in spans})
        result["trace_totals"] = {str(i): t for i, t in by_op.items()}
        if args.trace_file:
            rec.write(Path(args.trace_file))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
