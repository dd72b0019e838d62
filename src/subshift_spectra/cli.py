"""Command-line front end with bit-stable artifact output.

One JSON config file drives every command; identical config + seed yields
byte-identical artifacts (sorted JSON keys, canonical float formatting, no
timestamps).  Exit codes: 0 success, 1 a verification-style check failed,
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

from . import __version__
from .bands import periodic_bands
from .experiments import (
    adz_construct,
    complexity_growth_check,
    decay_sweep,
    scaled_product_suite,
)
from .intervals import IntervalSet, interval_algebra
from .tower import Constants, CouplingTooSmallError, TowerResult, tower_pipeline
from .words import (
    AdzStages,
    Periodic,
    Potential,
    Sample,
    SubshiftSpec,
    Substitution,
    UnknownLetterError,
    complexity,
    run_stats,
    sample_word,
)

COMMANDS = ("words", "spectrum", "measure", "decay", "adz", "tower", "verify")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# ---------------------------------------------------------------------------
# Canonical formatting


def fmt_num(x) -> str:
    """Shortest unambiguous decimal: integers without a trailing .0."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v.is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _record(
    obj, rename: dict[str, str] | None = None, omit: tuple[str, ...] = (), **derived
) -> dict:
    """Artifact record of a result dataclass.

    Every field appears under its own name, or under ``rename[field]``, unless
    it is in ``omit``; ``derived`` adds computed values and replaces fields of
    the same key.  Artifact key names are a contract: tests pin them.
    """
    rename = rename or {}
    out = {
        rename.get(f.name, f.name): getattr(obj, f.name)
        for f in fields(obj)
        if f.name not in omit
    }
    out.update(derived)
    return out


_encode_str = json.encoder.encode_basestring  # a JSON string literal, non-ASCII kept


def _encode(obj, indent: str, out: list[str]) -> None:
    """Append the canonical JSON text of ``obj`` to ``out``, nested under
    ``indent``."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        finite = not (math.isnan(obj) or math.isinf(obj))
        out.append(float.__repr__(obj) if finite else _encode_str(fmt_num(obj)))
    elif isinstance(obj, IntervalSet):
        _encode(obj.intervals, indent, out)
    elif is_dataclass(obj) and not isinstance(obj, type):
        _encode(_record(obj), indent, out)
    elif isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        if not items:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in items:
            out.append(sep + _encode_str(key) + ": ")
            _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif hasattr(obj, "item"):  # numpy scalar
        _encode(obj.item(), indent, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Artifact text of ``obj``: sorted keys, two-space indent, non-ASCII
    kept, floats by ``repr`` and non-finite floats as the strings "nan",
    "inf" and "-inf", interval sets as ``[[lo, hi], ...]`` lists and other
    dataclasses as their ``_record``, then a newline, in one walk."""
    out: list[str] = []
    _encode(obj, "", out)
    out.append("\n")
    return "".join(out)


def config_hash(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_json(path: Path, obj) -> None:
    path.write_text(canonical_json(obj), encoding="utf-8", newline="\n")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt_num(v) if not isinstance(v, str) else v for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def intervals_csv(path: Path, iv: IntervalSet) -> None:
    write_csv(path, ["lo", "hi"], [[lo, hi] for lo, hi in iv])


def read_intervals_csv(path: Path) -> IntervalSet:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    pairs = []
    for line in lines[1:]:  # skip header
        lo, hi = line.split(",")
        pairs.append((float(lo), float(hi)))
    return IntervalSet.from_pairs(pairs, merge_tol=0.0)


# ---------------------------------------------------------------------------
# Config parsing

#: every key some command reads; any other key is rejected as a typo
TOP_KEYS = frozenset(
    {
        "seed", "gamma", "gamma_prime", "c", "grid", "refine_tol", "H", "cone_gap",
        "cone_eps", "P", "C", "C_prime", "C2", "c_slack", "K_max", "potential",
    }
)
SECTION_KEYS = {
    "subshift": {"kind", "word", "rules", "seed_letter", "stages"},
    "words": {"sample_len", "complexity_lengths", "alphabet"},
    "spectrum": {"word"},
    "measure": {"op", "x", "y"},
    "decay": {"lam_list", "factor_len", "e0_letter", "sample_len"},
    "adz": {
        "k", "eps", "stages", "n_cap", "n_floor", "max_word_len", "complexity_l_max",
        "complexity_sample_len",
    },
    "tower": {
        "alpha0", "levels", "sample_len", "approx_len", "approx_sample_len",
        "accel_energies", "accel_r_max", "covering_max_residue_fraction",
    },
    "suite": {"trials", "c0", "lam_floors"},
}


def _as(kind, value):
    """``kind(value)``, where ``str`` takes only a JSON string, ``int`` only a
    JSON integer and ``float`` only a JSON number: nothing is coerced."""
    if kind in (int, float, str) and type(value) not in (kind, int if kind is float else kind):
        raise TypeError(f"not {kind.__name__}")
    return kind(value)


def _bound(kind, op, low):
    """Converter of a ``kind`` value x with ``x op low`` (``op`` is ">" or ">="); a value
    of the right type outside that range is a ``ConfigError``."""

    def convert(value):
        x = _as(kind, value)
        if not (x > low or op == ">=" and x == low):
            raise ConfigError(f"need {op} {low}, got {x!r}")
        return x

    return convert


def _list_of(kind):
    """Converter of a nonempty JSON list whose items are each converted by ``kind``."""

    def convert(value):
        if not isinstance(value, list):
            raise TypeError("not a list")
        if not value:
            raise ConfigError("need at least one value")
        return [_as(kind, x) for x in value]

    return convert


def _reject_unknown(obj: dict, known, where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}")


class RunConfig:
    """Validated view of the JSON config file."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(raw, TOP_KEYS.union(SECTION_KEYS), "config")
        for name, known in SECTION_KEYS.items():
            if name in raw:
                if not isinstance(raw[name], dict):
                    raise ConfigError(f"config section {name!r} must be an object")
                _reject_unknown(raw[name], known, f"config section {name!r}")
        self.raw = raw
        self.seed = self.get("seed", int, 20260809)
        self.gamma = self.get("gamma", float, 0.1)
        self.gamma_prime = self.get("gamma_prime", float, 0.2)
        self.c = self.get("c", float, 1.0)
        self.grid = self.get("grid", int, 2049)
        self.refine_tol = self.get("refine_tol", _bound(float, ">", 0.0), 1e-7)
        self.consts = Constants(
            H=self.get("H", _bound(float, ">", 0.0), 3.0),
            cone_gap=self.get("cone_gap", float, 3.0),
            cone_eps=self.get("cone_eps", float, 0.5),
            P=self.get("P", int, 3),
            C=None if raw.get("C") is None else self.get("C", float),
            C_prime=self.get("C_prime", float, 0.1),
            C2=self.get("C2", float, 1.0),
            c_slack=self.get("c_slack", float, 100.0),
            K_max=self.get("K_max", int, 64),
        )

    def get(self, path: str, kind, default=None):
        """``kind(value)`` of the value at ``key`` or ``section.key``, or of
        ``default`` when it is absent; a value ``kind`` rejects is a
        ``ConfigError`` that names the key."""
        *section, key = path.split(".", 1)
        value = (self.raw.get(section[0], {}) if section else self.raw).get(key, default)
        try:
            return _as(kind, value)
        except (TypeError, ValueError, OverflowError) as exc:
            problem = "is missing or null" if value is None else f"has the wrong type: {value!r}"
            if isinstance(exc, (OverflowError, ConfigError)):
                problem = f"is out of range: {exc}"
            raise ConfigError(f"config value {path!r} {problem}") from exc

    def section(self, name: str) -> dict:
        sec = self.raw.get(name)
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} is required for this command")
        return sec

    def potential(self) -> Potential:
        sec = self.raw.get("potential")
        if not isinstance(sec, dict) or not sec:
            raise ConfigError("config needs a 'potential' object of letter -> value")
        try:
            return Potential({str(k): self.get(f"potential.{k}", float) for k in sec})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    def subshift(self) -> SubshiftSpec:
        sec = self.raw.get("subshift")
        if not isinstance(sec, dict):
            raise ConfigError("config needs a 'subshift' object")
        kind = sec.get("kind")
        try:
            if kind == "periodic":
                return Periodic(str(sec["word"]))
            if kind == "substitution":
                rules = {str(k): str(v) for k, v in sec["rules"].items()}
                return Substitution(rules, str(sec["seed_letter"]))
            if kind == "adz_stages":
                return AdzStages(tuple(tuple(str(w) for w in st) for st in sec["stages"]))
            if kind == "sample":
                return Sample(str(sec["word"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad subshift spec: {exc}") from exc
        raise ConfigError(f"unknown subshift kind {kind!r}")


def _finite_number(text: str) -> float:
    """JSON number hook: NaN, Infinity and literals that overflow are config errors."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} is not finite")
    return x


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig(raw)


# ---------------------------------------------------------------------------
# Serialization of results


def _meta(cfg: RunConfig) -> dict:
    return {
        "tool_version": __version__,
        "config_sha256": config_hash(cfg.raw),
        "seed": cfg.seed,
        "config": cfg.raw,
    }


def _write_tower(out: Path, res: TowerResult, meta: dict) -> None:
    """Write the artifacts of the ``tower`` command, each with ``meta``."""
    sched = res.schedule
    records = {
        "structure": _record(
            res.structure,
            omit=("sample", "first_start"),
            levels={
                str(lv.index): _record(
                    lv,
                    omit=("index", "entries"),
                    n_entries=len(lv.entries),
                    alphabet=lv.alphabet,
                    inf_l=lv.inf_l,
                    sup_l=lv.sup_l,
                )
                for lv in res.structure.levels
            },
        ),
        "schedule": _record(
            sched,
            rename={"c_value": "C"},
            omit=("consts",),
            P=sched.consts.P,
            levels={
                str(lv.n): _record(
                    lv,
                    omit=("n",),
                    kappa=lv.kappa,
                    log_kappa=lv.log_kappa,
                    lam_bar=lv.lam_bar,
                    zeta=sched.zeta(lv.n),
                    log_zeta=sched.log_zeta(lv.n),
                )
                for lv in sched.levels
            },
            checks=sched.check_invariants(),
        ),
        **{
            f"exclusion_level_{r.level}": _record(
                r,
                rename={"j_set": "Jn", "c1_hat": "C1_hat", "c5_hat": "C5_hat"},
                triples=[_record(t, measure=t.measure) for t in r.triples],
                measure=r.measure,
            )
            for r in res.exclusions
        },
    }
    for stem, d in records.items():
        write_json(out / f"{stem}.json", {**d, **meta})
    intervals_csv(out / "jbar.csv", res.jbar)


# ---------------------------------------------------------------------------
# Command implementations


def _run_words(cfg: RunConfig, out: Path, log) -> int:
    sec = cfg.section("words")
    spec = cfg.subshift()
    sample_len = cfg.get("words.sample_len", int, 1024)
    lengths = cfg.get("words.complexity_lengths", _list_of(int), [1, 2, 4, 8, 16])
    alphabet = sec.get("alphabet")
    if alphabet is not None:
        alphabet = cfg.get("words.alphabet", _list_of(str))
    # compute everything before writing, so a rejected length leaves no artifact
    sample = sample_word(spec, sample_len)
    rows = [[n, complexity(spec, n, sample_len)] for n in lengths]
    stats = run_stats(spec, sample_len, alphabet)
    (out / "sample.txt").write_text(sample + "\n", encoding="utf-8", newline="\n")
    write_csv(out / "complexity.csv", ["n", "p"], rows)
    write_json(out / "run_stats.json", {**_record(stats), **_meta(cfg)})
    log(f"words: sample of {sample_len} letters, p({lengths[-1]}) = {rows[-1][1]}")
    return 0


def _run_spectrum(cfg: RunConfig, out: Path, log) -> int:
    cfg.section("spectrum")
    word = cfg.get("spectrum.word", str, "")
    if not word:
        raise ConfigError("spectrum.word is required")
    pot = cfg.potential()
    bands = periodic_bands(word, pot)
    intervals_csv(out / "bands.csv", bands)
    edges = [x for pair in bands for x in pair]
    write_json(
        out / "spectrum.json",
        {"word": word, "edges": edges, "measure": bands.measure, **_meta(cfg)},
    )
    log(f"spectrum: {len(bands)} band(s), measure {bands.measure:.6g}")
    return 0


def _read_set(sec: dict, key: str) -> IntervalSet:
    if key not in sec:
        raise ConfigError(f"measure.{key} is required")
    try:
        return read_intervals_csv(Path(sec[key]))
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"measure.{key}: cannot read an interval CSV: {exc}") from exc


def _run_measure(cfg: RunConfig, out: Path, log) -> int:
    sec = cfg.section("measure")
    op = cfg.get("measure.op", str, "")
    x = _read_set(sec, "x")
    y = sec.get("y")
    if op in ("union", "intersect", "difference", "subset"):
        y = _read_set(sec, "y")
    try:
        result = interval_algebra(op, x, y)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"measure: {exc}") from exc
    payload = {"op": op, **_meta(cfg)}
    if isinstance(result, IntervalSet):
        intervals_csv(out / "result.csv", result)
        payload.update({"intervals": result, "measure": result.measure})
    else:
        payload["result"] = result
    write_json(out / "result.json", payload)
    log(f"measure: {op} -> {payload.get('measure', payload.get('result'))}")
    return 0


def _run_decay(cfg: RunConfig, out: Path, log) -> int:
    cfg.section("decay")
    spec = cfg.subshift()
    v_base = cfg.potential()
    table = decay_sweep(
        spec,
        v_base,
        cfg.get("decay.lam_list", _list_of(_bound(float, ">", 0.0))),
        cfg.get("decay.factor_len", int, 13),
        cfg.get("decay.e0_letter", str, "a"),
        float(cfg.consts.H),
        cfg.get("decay.sample_len", int, 4096),
    )
    rows = [[r.lam, r.factor_len, r.measure] for r in table.rows]
    write_csv(out / "decay.csv", ["lam", "factor_len", "measure"], rows)
    write_json(out / "decay.json", {**_record(table, rename={"h": "H"}), **_meta(cfg)})
    log(f"decay: measures {[f'{m:.3e}' for m in table.measures]}, gamma_hat={table.gamma_hat}")
    return 0


def _run_adz(cfg: RunConfig, out: Path, log) -> int:
    sec = cfg.section("adz")
    pot = cfg.potential()
    run = adz_construct(
        cfg.get("adz.k", int, 2),
        cfg.get("adz.eps", float, 0.5),
        pot,
        cfg.get("adz.stages", int, 3),
        cfg.get("adz.n_cap", int, 10000),
        cfg.get("adz.n_floor", int, 4),
        cfg.get("adz.max_word_len", int, 2048),
    )
    growth = None
    if "complexity_l_max" in sec:
        growth = complexity_growth_check(
            run,
            cfg.get("adz.eps", float, 0.5),
            cfg.get("adz.complexity_l_max", int),
            cfg.get("adz.complexity_sample_len", int, 8192),
        )
    for st in run.stages:
        (out / f"stage_{st.index}.txt").write_text(
            "\n".join(st.words) + "\n", encoding="utf-8", newline="\n"
        )
    stages = [
        _record(
            st,
            rename={"chosen_n": "chosen_N"},
            n_words=len(st.words),
            max_word_len=max(len(w) for w in st.words),
            band_measure=st.bands.measure,
        )
        for st in run.stages
    ]
    columns = ["index", "n_words", "max_word_len", "band_measure", "chosen_N", "deficit", "budget"]
    write_csv(
        out / "adz.csv",
        ["stage", *columns[1:]],
        [["" if st[k] is None else st[k] for k in columns] for st in stages],
    )
    d = _record(
        run,
        omit=("pot", "searched"),
        potential=run.pot.values,
        stages=stages,
        search_trace=[{"stage": s, "N": n, "deficit": d} for s, n, d in run.searched],
    )
    if growth is not None:
        d["complexity"] = _record(
            growth,
            rename={"c_hat": "C_hat"},
            rows=[{"L": L, "p": p, "bound": b} for L, p, b in growth.rows],
        )
    write_json(out / "adz.json", {**d, **_meta(cfg)})
    log(
        f"adz: {len(run.stages)} stages, final measure {run.final_measure:.6g} "
        f"(half of stage 1: {0.5 * run.sigma1_measure:.6g})"
    )
    ok = run.retained_half and (growth is None or growth.within_bound)
    return 0 if ok else 1


def _tower_result(cfg: RunConfig) -> TowerResult:
    cfg.section("tower")
    return tower_pipeline(
        cfg.subshift(),
        cfg.potential(),
        cfg.get("tower.alpha0", str, "a"),
        gamma=cfg.gamma,
        gamma_prime=cfg.gamma_prime,
        c=cfg.c,
        consts=cfg.consts,
        levels=cfg.get("tower.levels", int, 1),
        sample_len=cfg.get("tower.sample_len", int, 650),
        grid=cfg.grid,
        refine_tol=cfg.refine_tol,
        approx_len=cfg.get("tower.approx_len", int, 13),
        approx_sample_len=cfg.get("tower.approx_sample_len", int, 1024),
        accel_energies=cfg.get("tower.accel_energies", int, 64),
        accel_r_max=cfg.get("tower.accel_r_max", int, 5),
    )


def _run_tower(cfg: RunConfig, out: Path, log) -> int:
    res = _tower_result(cfg)
    _write_tower(out, res, _meta(cfg))
    required_fails = [c for c in res.schedule.failed_checks() if c.required]
    log(
        f"tower: {len(res.schedule.levels)} levels, Jbar measure {res.jbar.measure:.6g}, "
        f"{len(required_fails)} required check failure(s)"
    )
    return 1 if required_fails else 0


def _run_verify(cfg: RunConfig, out: Path, log) -> int:
    cfg.get("tower.levels", _bound(int, ">=", 1), 1)  # verify checks level 1
    max_residue = cfg.get("tower.covering_max_residue_fraction", _bound(float, ">=", 0.0), 1e-3)
    res = _tower_result(cfg)
    suite = scaled_product_suite(
        cfg.get("suite.trials", int, 10000),
        cfg.get("suite.c0", _bound(float, ">=", 1.0), 10.0),
        cfg.get("suite.lam_floors", _list_of(_bound(float, ">", 0.0)), [1000.0]),
        cfg.seed,
        cfg.consts.c_slack,
    )
    meta = _meta(cfg)
    _write_tower(out, res, meta)
    accel = res.accel
    accel_d = _record(accel, n_energies=len(accel.energies), all_passed=accel.all_passed)
    write_json(out / "acceleration.json", {**accel_d, **meta})
    write_json(out / "covering.json", {**_record(res.covering, interval=res.interval), **meta})
    suite_d = _record(suite, rename={"c0": "C0"}, all_passed=suite.all_passed)
    write_json(out / "suite.json", {**suite_d, **meta})

    required_fails = [c for c in res.schedule.failed_checks() if c.required]
    ok = (
        not required_fails
        and res.accel.all_passed
        and suite.all_passed
        and res.covering.residue_fraction <= max_residue
    )
    log(
        "verify: "
        f"accel {'ok' if res.accel.all_passed else 'FAIL'}, "
        f"covering residue_fraction {res.covering.residue_fraction:.3e}, "
        f"suite {'ok' if suite.all_passed else 'FAIL'}"
    )
    return 0 if ok else 1


RUNNERS = {
    "words": _run_words,
    "spectrum": _run_spectrum,
    "measure": _run_measure,
    "decay": _run_decay,
    "adz": _run_adz,
    "tower": _run_tower,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# Entry point


def dispatch(command: str, cfg: RunConfig, out_dir: str | Path, quiet: bool = False) -> int:
    """Run one command against a parsed config, writing artifacts to ``out_dir``."""
    if command not in RUNNERS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def log(msg: str) -> None:
        if not quiet:
            print(msg)

    return RUNNERS[command](cfg, out, log)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subshift-spectra",
        description="Spectra of Schrodinger operators with subshift potentials",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.raw["seed"] = args.seed
            cfg.seed = args.seed
        return dispatch(args.command, cfg, args.out, args.quiet)
    except (ValueError, UnknownLetterError) as exc:
        prefix = "" if isinstance(exc, CouplingTooSmallError) else "configuration error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
