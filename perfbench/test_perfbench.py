"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke test runs ``run.py --smoke`` (one small op per worker and workload,
untraced and twice traced) and checks that every metric of BENCHMARK.json is
printed with its unit and that no op failed.
"""

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def test_smoke_prints_every_metric_with_unit_and_no_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = proc.stdout
    num = r"[-+0-9.e]+"
    for wl in SPEC["workloads"]:
        assert re.search(rf"^{wl}: metric fail_frac = 0 ratio$", out, re.M), wl
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            pattern = rf"^{wl}: metric {re.escape(m['name'])} = {num} {re.escape(m['unit'])}$"
            assert re.search(pattern, out, re.M), (wl, m["name"])
    assert "check every wrapped function has spans: ok" in out
    # the kernel is imported by name into these modules; each copy must be wrapped
    for func, mods in (
        ("sl2.cocycle_stack", ("sl2", "bands", "tower")),
        ("sl2.svd_angles_stack", ("sl2", "tower", "experiments")),
    ):
        line = re.search(rf"^info wrapped {func} in (.*)$", out, re.M)
        assert line, func
        wrapped_in = set(line.group(1).split())
        assert {f"subshift_spectra.{m}" for m in mods} <= wrapped_in, (func, wrapped_in)
    assert json.loads(out.strip().splitlines()[-1]) == {"ok": True, "problems": []}


def test_self_time_subtracts_direct_children():
    # op [0, 10] > a [1, 5] > b [2, 3]; op > c [6, 9]
    spans = [
        ("op", "op", 0.0, 10.0, -1, 0, {}),
        ("m.a", "a", 1.0, 5.0, 0, 0, {}),
        ("m.b", "b", 2.0, 3.0, 1, 0, {"n": 2}),
        ("m.c", "c", 6.0, 9.0, 0, 0, {}),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    tot = tracing.totals_by_op(spans)[0]
    assert tot["op.self_s"] == 3.0 and tot["op.wall_s"] == 10.0
    assert tot["b.n"] == 2 and tot["a.calls"] == 1


def test_benchmark_json_matches_layer_map_and_workloads():
    mapped = [m for row in SPEC["layer_map"] for m in row["metrics"]]
    assert [m["name"] for m in BENCH["per_layer"]] == mapped
    assert {w["name"] for w in BENCH["workloads"]} <= set(SPEC["workloads"])
    for row in SPEC["layer_map"]:
        assert set(row["workloads"]) <= set(SPEC["workloads"])


def test_probe_samples_while_busy_and_its_time_is_taken_out():
    import numpy

    probe = worker.Probe(numpy)
    probe.start()
    try:
        mark = probe.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        busy = probe.since(mark)
        short = probe.since(probe.mark())
    finally:
        probe.stop()
    assert busy["probe_n"] >= 5
    assert math.isclose(busy["probe_mean_wall_s"] * busy["probe_n"], busy["probe_wall_s"])
    assert 0.3 / busy["probe_mean_wall_s"] > worker.in_probes(0.3, busy, "wall") > 0
    # shorter than the period: one sample is taken after it, outside it
    assert short["probe_n"] == 0 and short["probe_wall_s"] == 0.0
    assert short["probe_mean_wall_s"] > 0.0
