"""Span recorder for the benchmark's traced run.

The library has no tracing of its own, so the benchmark wraps selected
functions from the outside.  ``install`` replaces each function in every
``subshift_spectra`` module that holds a reference to it: ``tower``, ``bands``
and ``experiments`` import ``cocycle_stack`` and ``svd_angles_stack`` by name,
so patching ``sl2`` alone would let their calls escape the trace.

A span is ``(func, group, start, end, parent, op, counts)``.  ``group`` names
the layer metric the span feeds (several functions may share one, such as the
interval set operations), ``parent`` is the index of the enclosing span or -1,
and ``op`` identifies the benchmark op.  Spans are kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

PACKAGE = "subshift_spectra"
_FAILED = object()  # result placeholder while a wrapped call raises


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _exclusion_group(args, kwargs) -> str:
    return f"tower.exclusion_sets.L{int(_arg(args, kwargs, 1, 'level'))}"


def _exclusion_counts(args, kwargs, res) -> dict:
    structure = _arg(args, kwargs, 0, "structure")
    level = int(_arg(args, kwargs, 1, "level"))
    return {
        "triples": len(res.triples),
        "components": sum(len(t.intervals) for t in res.triples),
        "cores": len(set(structure.level(level).cores)),
    }


def _bytes_written(args, kwargs, res) -> dict:
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``attr`` may be ``Class.method`` inside ``module``."""

    module: str
    attr: str
    group: str | Callable[[tuple, dict], str]
    counts: Callable[[tuple, dict, Any], dict] | None = None

    @property
    def func(self) -> str:
        return f"{self.module}.{self.attr}"


_SETOPS = ("union", "intersect", "difference", "dilate", "clip")

TARGETS: tuple[Target, ...] = (
    Target(
        "sl2",
        "cocycle_stack",
        "sl2.cocycle_stack",
        lambda a, k, r: {
            "letter_energies": len(_arg(a, k, 0, "word")) * _size(_arg(a, k, 1, "energies"))
        },
    ),
    Target(
        "sl2",
        "svd_angles_stack",
        "sl2.svd_angles_stack",
        lambda a, k, r: {"mats": _size(_arg(a, k, 0, "mats")) // 4},
    ),
    Target(
        "words",
        "factor_set",
        "words.factor_set",
        lambda a, k, r: {"factors": len(r)},
    ),
    Target("words", "return_structure", "words.return_structure"),
    Target("intervals", "IntervalSet.from_pairs", "intervals.from_pairs"),
    *(Target("intervals", f"IntervalSet.{op}", "intervals.setops") for op in _SETOPS),
    Target(
        "bands",
        "periodic_bands",
        "bands.periodic_bands",
        lambda a, k, r: {"sites": len(_arg(a, k, 0, "word"))},
    ),
    Target("tower", "exclusion_sets", _exclusion_group, _exclusion_counts),
    Target(
        "tower",
        "acceleration_verify",
        "tower.acceleration_verify",
        lambda a, k, r: {"windows": int(r.n_windows)},
    ),
    Target("tower", "critical_matrix_bound", "tower.critical_matrix_bound"),
    Target("tower", "covering_and_measure_check", "tower.covering"),
    Target("experiments", "scaled_product_suite", "experiments.scaled_product_suite"),
    Target("experiments", "decay_sweep", "experiments.decay_sweep"),
    Target("cli", "load_config", "cli.load_config"),
    Target("cli", "write_json", "cli.write", _bytes_written),
    Target("cli", "write_csv", "cli.write", _bytes_written),
    # intervals_csv delegates to write_csv, which counts the bytes
    Target("cli", "intervals_csv", "cli.write"),
)


class Recorder:
    """In-memory span store; records nothing while ``op`` is None."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, target: Target, fn: Callable) -> Callable:
        func = target.func
        group = target.group
        counts = target.counts

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            res = _FAILED
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                name = group if isinstance(group, str) else group(args, kwargs)
                work = counts(args, kwargs, res) if counts and res is not _FAILED else {}
                self.spans[idx] = (func, name, t0, t1, parent, self.op, work)

        traced.__name__ = getattr(fn, "__name__", func)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op_span(self, op: int):
        """Record one benchmark op: the root span the layers nest under."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = ("op", "op", t0, t1, -1, op, {})
            self.op = None

    def write(self, path: Path) -> None:
        keys = ["func", "group", "start", "end", "parent", "op", "counts"]
        path.write_text(json.dumps({"keys": keys, "spans": self.spans}), encoding="utf-8")


def install(rec: Recorder) -> dict[str, list[str]]:
    """Wrap every target; return, per function, the modules whose name was replaced."""
    modules = [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    replaced: dict[str, list[str]] = {}
    for t in TARGETS:
        home = sys.modules[f"{PACKAGE}.{t.module}"]
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(t, raw.__func__)))
            else:
                setattr(cls, meth, rec.wrap(t, raw))
            replaced[t.func] = [f"{home.__name__}.{cls_name}"]
            continue
        original = getattr(home, t.attr)
        wrapped = rec.wrap(t, original)
        replaced[t.func] = []
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)
                    replaced[t.func].append(m.__name__)
    return replaced


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Children of one span run one after another, so their durations add up to
    the covered part of the parent's interval.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


def _ancestor_group(spans: list[tuple], idx: int, prefixes: tuple[str, ...]) -> str | None:
    p = spans[idx][4]
    while p >= 0:
        g = spans[p][1]
        for pre in prefixes:
            if g.startswith(pre):
                return pre
        p = spans[p][4]
    return None


def totals_by_op(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per-op sums keyed ``<group>.calls``, ``<group>.self_s`` and
    ``<group>.<count>``, plus the numerators of the cross-layer ratios."""
    st = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    under = ("tower.exclusion_sets", "bands.periodic_bands")
    for i, (_, group, t0, t1, _, op, work) in enumerate(spans):
        tot = out.setdefault(op, {})
        keys = [(f"{group}.calls", 1), (f"{group}.self_s", st[i])]
        keys += [(f"{group}.{k}", v) for k, v in work.items()]
        if group == "op":
            keys.append(("op.wall_s", t1 - t0))
        if group == "sl2.cocycle_stack":
            anc = _ancestor_group(spans, i, under)
            if anc:
                keys.append((f"sl2.cocycle_stack.calls_under.{anc}", 1))
        for key, v in keys:
            tot[key] = tot.get(key, 0.0) + v
    return out


def layer_metrics(tot: dict[str, float], n_ops: int, names: list[str]) -> dict[str, float]:
    """Per-op means over the ``n_ops`` ops summed in ``tot`` of the named
    per-layer metrics (0.0 where a layer never ran)."""

    def t(key: str) -> float:
        return tot.get(key, 0.0)

    cores = sum(
        v for k, v in tot.items() if k.startswith("tower.exclusion_sets.L") and k.endswith(".cores")
    )
    bands_calls = t("bands.periodic_bands.calls")
    derived = {
        "tower.exclusion_sets.calls_per_core": (
            t("sl2.cocycle_stack.calls_under.tower.exclusion_sets") / cores if cores else 0.0
        ),
        "bands.periodic_bands.disc_check_frac": (
            t("sl2.cocycle_stack.calls_under.bands.periodic_bands") / bands_calls
            if bands_calls
            else 0.0
        ),
        "cli.bytes_written": t("cli.write.bytes") / n_ops,
        "unattributed.self_s": t("op.self_s") / n_ops,
        "traced.op_wall_s": t("op.wall_s") / n_ops,
        "traced.spans_per_op": sum(v for k, v in tot.items() if k.endswith(".calls")) / n_ops,
    }
    return {n: derived[n] if n in derived else t(n) / n_ops for n in names}
