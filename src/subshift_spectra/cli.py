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
from .intervals import IntervalSet
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


# ---------------------------------------------------------------------------
# Config parsing

def _as(kind, value):
    """``kind(value)``, where ``str`` takes only a JSON string, ``int`` only a
    JSON integer and ``float`` only a JSON number: nothing is coerced."""
    if kind in (int, float, str) and type(value) not in (kind, int if kind is float else kind):
        raise TypeError(f"not {kind.__name__}")
    return kind(value)


def _bound(kind, op, low, high=math.inf):
    """Converter of a ``kind`` value x with ``x op low`` (``op`` is ">" or ">=") and
    x <= ``high``; a value of the right type outside that range is a ``ConfigError``."""

    def convert(value):
        x = _as(kind, value)
        if not (x > low or op == ">=" and x == low):
            raise ConfigError(f"need {op} {low}, got {x!r}")
        if x > high:
            raise ConfigError(f"need <= {high}, got {x!r}")
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


def _dict_of(kind):
    """Converter of a JSON object whose values are each converted by ``kind``."""

    def convert(value):
        if not isinstance(value, dict):
            raise TypeError("not an object")
        return {k: _as(kind, v) for k, v in value.items()}

    return convert


def _or_null(kind):
    """Converter that keeps null and converts any other value by ``kind``."""
    return lambda value: None if value is None else _as(kind, value)


#: every key some command reads (any other is rejected as a typo), mapped to
#: ``(converter, default)``, or to ``(converter,)`` when the key is required, may
#: be null, or feeds a library parameter that has a default.  A key of the last
#: kind is passed only when the config sets it (``RunConfig.given``), so the default
#: of ``Constants``, ``tower_pipeline``, ``decay_sweep`` or ``adz_construct`` holds.
#: A ``None`` converter marks a key that its command reads and checks itself.
KEYS = {
    "seed": (_bound(int, ">=", 0), 20260809),
    "gamma": (float, 0.1), "gamma_prime": (float, 0.2), "c": (float, 1.0),
    "grid": (int,), "refine_tol": (_bound(float, ">", 0.0),),
    # H <= 1e4 keeps the marker bound's analytic cap max_run (2 + H)^max_run finite
    # for runs up to the default K_max; C bounds SL(2, R) norms, which are >= 1
    "H": (_bound(float, ">", 0.0, 1e4),), "C": (_or_null(_bound(float, ">=", 1.0)),),
    # c_slack and C2 divide or take a log, cone_gap guards the coupling, C_prime
    # floors chi, and P and K_max count steps
    "cone_gap": (_bound(float, ">", 0.0),), "cone_eps": (float,), "P": (_bound(int, ">=", 1),),
    "C_prime": (_bound(float, ">", 0.0),), "C2": (_bound(float, ">", 0.0),),
    "c_slack": (_bound(float, ">", 0.0),), "K_max": (_bound(int, ">=", 1),),
    "subshift.kind": (None,), "subshift.word": (str,), "subshift.rules": (_dict_of(str),),
    "subshift.seed_letter": (str,), "subshift.stages": (_list_of(_list_of(str)),),
    "words.sample_len": (int, 1024), "words.alphabet": (_or_null(_list_of(str)),),
    "words.complexity_lengths": (_list_of(int), [1, 2, 4, 8, 16]),
    "spectrum.word": (str, ""),
    "decay.lam_list": (_list_of(_bound(float, ">", 0.0)),), "decay.factor_len": (int, 13),
    "decay.e0_letter": (str, "a"), "decay.sample_len": (int,),
    "adz.k": (int, 2), "adz.eps": (float, 0.5), "adz.stages": (int, 3), "adz.n_cap": (int, 10000),
    "adz.n_floor": (int,), "adz.max_word_len": (int,), "adz.complexity_l_max": (int,),
    "adz.complexity_sample_len": (int, 8192),
    # tower_pipeline checks acceleration at level 1, so it needs one level at least
    "tower.alpha0": (str, "a"), "tower.levels": (_bound(int, ">=", 1),), "tower.sample_len": (int,),
    "tower.approx_len": (int,), "tower.approx_sample_len": (int,),
    "tower.accel_energies": (int,), "tower.accel_r_max": (int,),
    "tower.covering_max_residue_fraction": (_bound(float, ">=", 0.0), 1e-3),
    # the suite's matrix entries reach c0 (100 floor)^2 and its growth ratios
    # floor^-4: inside these ranges both stay finite
    "suite.trials": (int, 10000), "suite.c0": (_bound(float, ">=", 1.0, 1e4), 10.0),
    "suite.lam_floors": (_list_of(_bound(float, ">=", 1e-50, 1e150)), [1000.0]),
}
_SECTIONED = [path.split(".") for path in KEYS if "." in path]
# a potential's keys are its letters, each read as a float by RunConfig.potential
TOP_KEYS = frozenset({"potential", *(path for path in KEYS if "." not in path)})
SECTION_KEYS = {name: {k for s, k in _SECTIONED if s == name} for name, _ in _SECTIONED}


def _convert(path: str, kind, value):
    """``_as(kind, value)`` for the config value at ``path``; a value ``kind``
    rejects is a ``ConfigError`` that names ``path``."""
    try:
        return _as(kind, value)
    except (TypeError, ValueError, OverflowError) as exc:
        problem = "is missing or null" if value is None else f"has the wrong type: {value!r}"
        if isinstance(exc, (OverflowError, ConfigError)):
            problem = f"is out of range: {exc}"
        raise ConfigError(f"config value {path!r} {problem}") from exc


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
        self.seed = self.get("seed")
        self.gamma = self.get("gamma")
        self.gamma_prime = self.get("gamma_prime")
        self.c = self.get("c")
        self.resolution = self.given("grid", "refine_tol")
        self.consts = Constants(
            **self.given("H", "cone_gap", "cone_eps", "P", "C", "C_prime", "C2", "c_slack", "K_max")
        )

    def get(self, path: str):
        """Value at ``key`` or ``section.key``, or its default when absent, by its
        ``KEYS`` converter; a value the converter rejects is a ``ConfigError``."""
        *section, key = path.split(".", 1)
        kind, *default = KEYS[path]
        sec = self.raw.get(section[0], {}) if section else self.raw
        return _convert(path, kind, sec.get(key, *default))

    def given(self, *paths: str) -> dict:
        """``{key: get(path)}`` over the ``paths`` that the config sets, as
        keywords of a library call whose defaults hold for the others."""
        out = {}
        for path in paths:
            *section, key = path.split(".", 1)
            if key in (self.raw.get(section[0], {}) if section else self.raw):
                out[key] = self.get(path)
        return out

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
            return Potential({str(k): _convert(f"potential.{k}", float, v) for k, v in sec.items()})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(str(exc)) from exc

    def subshift(self) -> SubshiftSpec:
        sec = self.raw.get("subshift")
        if not isinstance(sec, dict):
            raise ConfigError("config needs a 'subshift' object")
        kind = sec.get("kind")
        try:
            if kind == "periodic":
                return Periodic(self.get("subshift.word"))
            if kind == "substitution":
                return Substitution(self.get("subshift.rules"), self.get("subshift.seed_letter"))
            if kind == "adz_stages":
                return AdzStages(self.get("subshift.stages"))
            if kind == "sample":
                return Sample(self.get("subshift.word"))
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
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


def _tower_artifacts(res: TowerResult, checks: list) -> dict:
    """``tower``'s artifacts, which ``verify`` also writes; ``checks`` are the schedule's."""
    sched = res.schedule
    return {
        "structure.json": _record(
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
        "schedule.json": _record(
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
            checks=checks,
        ),
        **{
            f"exclusion_level_{r.level}.json": _record(
                r,
                rename={"j_set": "Jn", "c1_hat": "C1_hat", "c5_hat": "C5_hat"},
                triples=[_record(t, measure=t.measure) for t in r.triples],
                measure=r.measure,
            )
            for r in res.exclusions
        },
        "jbar.csv": res.jbar,
    }


# ---------------------------------------------------------------------------
# Command implementations: each maps a config to (exit code, artifacts, log
# line), where artifacts maps a file name to a record (.json), an interval set
# or a (header, rows) pair (.csv), or a text (.txt)


def _run_words(cfg: RunConfig) -> tuple[int, dict, str]:
    cfg.section("words")
    spec = cfg.subshift()
    sample_len = cfg.get("words.sample_len")
    lengths = cfg.get("words.complexity_lengths")
    alphabet = cfg.get("words.alphabet")
    sample = sample_word(spec, sample_len)
    rows = [[n, complexity(spec, n, sample_len)] for n in lengths]
    artifacts = {
        "sample.txt": sample + "\n",
        "complexity.csv": (["n", "p"], rows),
        "run_stats.json": _record(run_stats(spec, sample_len, alphabet)),
    }
    return 0, artifacts, f"words: sample of {sample_len} letters, p({lengths[-1]}) = {rows[-1][1]}"


def _run_spectrum(cfg: RunConfig) -> tuple[int, dict, str]:
    cfg.section("spectrum")
    word = cfg.get("spectrum.word")
    if not word:
        raise ConfigError("spectrum.word is required")
    bands = periodic_bands(word, cfg.potential())
    edges = [x for pair in bands for x in pair]
    artifacts = {
        "bands.csv": bands,
        "spectrum.json": {"word": word, "edges": edges, "measure": bands.measure},
    }
    return 0, artifacts, f"spectrum: {len(bands)} band(s), measure {bands.measure:.6g}"


def _run_decay(cfg: RunConfig) -> tuple[int, dict, str]:
    cfg.section("decay")
    table = decay_sweep(
        cfg.subshift(), cfg.potential(), cfg.get("decay.lam_list"), cfg.get("decay.factor_len"),
        cfg.get("decay.e0_letter"), float(cfg.consts.H), **cfg.given("decay.sample_len"),
    )
    rows = [[r.lam, r.factor_len, r.measure] for r in table.rows]
    artifacts = {
        "decay.csv": (["lam", "factor_len", "measure"], rows),
        "decay.json": _record(table, rename={"h": "H"}),
    }
    line = f"decay: measures {[f'{m:.3e}' for m in table.measures]}, gamma_hat={table.gamma_hat}"
    return 0, artifacts, line


def _run_adz(cfg: RunConfig) -> tuple[int, dict, str]:
    sec = cfg.section("adz")
    pot = cfg.potential()
    run = adz_construct(
        cfg.get("adz.k"), cfg.get("adz.eps"), pot, cfg.get("adz.stages"), cfg.get("adz.n_cap"),
        **cfg.given("adz.n_floor", "adz.max_word_len"),
    )
    growth = None
    if "complexity_l_max" in sec:
        growth = complexity_growth_check(
            run, cfg.get("adz.eps"), cfg.get("adz.complexity_l_max"),
            cfg.get("adz.complexity_sample_len"),
        )
    artifacts = {f"stage_{st.index}.txt": "\n".join(st.words) + "\n" for st in run.stages}
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
    artifacts["adz.csv"] = (
        ["stage", *columns[1:]],
        [["" if st[k] is None else st[k] for k in columns] for st in stages],
    )
    report = artifacts["adz.json"] = _record(
        run,
        omit=("pot", "searched"),
        potential=run.pot.values,
        stages=stages,
        search_trace=[{"stage": s, "N": n, "deficit": d} for s, n, d in run.searched],
    )
    if growth is not None:
        report["complexity"] = _record(
            growth,
            rename={"c_hat": "C_hat"},
            rows=[{"L": L, "p": p, "bound": b} for L, p, b in growth.rows],
        )
    line = (
        f"adz: {len(run.stages)} stages, final measure {run.final_measure:.6g} "
        f"(half of stage 1: {0.5 * run.sigma1_measure:.6g})"
    )
    ok = run.retained_half and (growth is None or growth.within_bound)
    return 0 if ok else 1, artifacts, line


def _tower_result(cfg: RunConfig) -> TowerResult:
    cfg.section("tower")
    return tower_pipeline(
        cfg.subshift(), cfg.potential(), cfg.get("tower.alpha0"),
        gamma=cfg.gamma, gamma_prime=cfg.gamma_prime, c=cfg.c, consts=cfg.consts,
        **cfg.resolution,
        **cfg.given(
            "tower.levels", "tower.sample_len", "tower.approx_len", "tower.approx_sample_len",
            "tower.accel_energies", "tower.accel_r_max",
        ),
    )


def _run_tower(cfg: RunConfig) -> tuple[int, dict, str]:
    res = _tower_result(cfg)
    checks = res.schedule.check_invariants()
    required_fails = [c for c in checks if c.required and not c.ok]
    line = (
        f"tower: {len(res.schedule.levels)} levels, Jbar measure {res.jbar.measure:.6g}, "
        f"{len(required_fails)} required check failure(s)"
    )
    return 1 if required_fails else 0, _tower_artifacts(res, checks), line


def _run_verify(cfg: RunConfig) -> tuple[int, dict, str]:
    max_residue = cfg.get("tower.covering_max_residue_fraction")
    suite_args = cfg.get("suite.trials"), cfg.get("suite.c0"), cfg.get("suite.lam_floors")
    res = _tower_result(cfg)
    suite = scaled_product_suite(*suite_args, cfg.seed, cfg.consts.c_slack)
    checks = res.schedule.check_invariants()
    accel = res.accel
    artifacts = {
        **_tower_artifacts(res, checks),
        "acceleration.json": _record(
            accel, n_energies=len(accel.energies), all_passed=accel.all_passed
        ),
        "covering.json": _record(res.covering, interval=res.interval),
        "suite.json": _record(suite, rename={"c0": "C0"}, all_passed=suite.all_passed),
    }
    ok = (
        not any(c.required and not c.ok for c in checks)
        and accel.all_passed
        and suite.all_passed
        and res.covering.residue_fraction <= max_residue
    )
    line = (
        f"verify: accel {'ok' if accel.all_passed else 'FAIL'}, "
        f"covering residue_fraction {res.covering.residue_fraction:.3e}, "
        f"suite {'ok' if suite.all_passed else 'FAIL'}"
    )
    return 0 if ok else 1, artifacts, line


RUNNERS = {
    "words": _run_words,
    "spectrum": _run_spectrum,
    "decay": _run_decay,
    "adz": _run_adz,
    "tower": _run_tower,
    "verify": _run_verify,
}


# ---------------------------------------------------------------------------
# Entry point


def dispatch(command: str, cfg: RunConfig, out_dir: str | Path, quiet: bool = False) -> int:
    """Run one command against a parsed config, then write its artifacts to
    ``out_dir``: a command that raises writes none."""
    if command not in RUNNERS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(RUNNERS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    code, artifacts, line = RUNNERS[command](cfg)
    meta = _meta(cfg)
    for name, content in artifacts.items():
        if name.endswith(".json"):
            write_json(out / name, {**content, **meta})
        elif isinstance(content, IntervalSet):
            intervals_csv(out / name, content)
        elif name.endswith(".csv"):
            write_csv(out / name, *content)
        else:
            (out / name).write_text(content, encoding="utf-8", newline="\n")
    if not quiet:
        print(line)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subshift-spectra",
        description="Spectra of Schrodinger operators with subshift potentials",
    )
    parser.add_argument("command", choices=RUNNERS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.raw["seed"] = args.seed
            cfg.seed = cfg.get("seed")
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
