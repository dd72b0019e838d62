import copy
import hashlib
import inspect
import itertools
import json
import math
import warnings
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subshift_spectra import IntervalSet
from subshift_spectra.cli import (
    KEYS,
    RUNNERS,
    ConfigError,
    RunConfig,
    _record,
    canonical_json,
    config_hash,
    dispatch,
    fmt_num,
    load_config,
    main,
)
from subshift_spectra.experiments import adz_construct, decay_sweep, scaled_product_suite
from subshift_spectra.tower import Constants, tower_pipeline


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(tmp_path, command, payload, out="out"):
    cfg = load_config(write_config(tmp_path, payload, f"{command}.json"))
    code = dispatch(command, cfg, tmp_path / out, quiet=True)
    return code, tmp_path / out


def _sanitize(obj):
    """Reference form of a value as JSON data: inf and nan become strings,
    interval sets ``[[lo, hi], ...]`` lists and other dataclasses their
    ``_record``.  ``canonical_json`` and ``config_hash`` must write exactly
    what ``json.dumps`` writes for it."""
    if isinstance(obj, IntervalSet):
        return _sanitize(obj.intervals)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(_record(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return fmt_num(obj)
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _sanitize(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_fmt_num():
    assert fmt_num(-2.0) == "-2"
    assert fmt_num(0.5) == "0.5"
    assert fmt_num(3) == "3"
    assert fmt_num(float("inf")) == "inf"


@dataclass(frozen=True)
class _Record:
    name: str
    value: object


_leaf = st.one_of(
    st.text(),
    st.sampled_from(["Jₙ", "κ-tangent", 'quote " back \\ slash', "tab\tnew\nline", "\x00\x1f\u2028"]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16, 2.0**53 + 2]),
    st.integers(),
    st.sampled_from([2**70, -(2**90)]),
    st.booleans(),
    st.none(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e3)), max_size=4).map(
        lambda ps: IntervalSet.from_pairs([(lo, lo + w) for lo, w in ps])
    ),
)
_tree = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=4),
        st.builds(_Record, st.text(), inner),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tree)
@example({"nested": {}, "empty": [], "t": (), "e": IntervalSet.empty(), "r": _Record("x", [])})
@example([math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16, 10**30, np.float64(-0.0)])
def test_canonical_json_equals_two_pass_encoder(obj):
    want = json.dumps(_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert canonical_json(obj) == want


def test_spectrum_single_site(tmp_path):
    code, out = run(tmp_path, "spectrum", {"potential": {"a": 0.0}, "spectrum": {"word": "a"}})
    assert code == 0
    assert (out / "bands.csv").read_text() == "lo,hi\n-2,2\n"
    report = json.loads((out / "spectrum.json").read_text())
    assert report["measure"] == 4.0
    assert report["tool_version"]
    assert len(report["config_sha256"]) == 64


def test_words_command(tmp_path):
    payload = {
        "subshift": {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"},
        "words": {"sample_len": 256, "complexity_lengths": [1, 2, 4]},
    }
    code, out = run(tmp_path, "words", payload)
    assert code == 0
    assert (out / "sample.txt").read_text().startswith("abaab")
    lines = (out / "complexity.csv").read_text().splitlines()
    assert lines[0] == "n,p"
    assert lines[3] == "4,5"
    stats = json.loads((out / "run_stats.json").read_text())
    assert stats["max_run"] == {"a": 2, "b": 1}


def test_adz_command_and_determinism(tmp_path):
    payload = {
        "seed": 11,
        "potential": {"a": 0.0, "b": 1.0},
        "adz": {"k": 2, "eps": 0.5, "stages": 2, "n_cap": 100},
    }
    code1, out1 = run(tmp_path, "adz", payload, out="adz1")
    code2, out2 = run(tmp_path, "adz", payload, out="adz2")
    assert code1 == code2 == 0
    for name in ("adz.json", "adz.csv", "stage_1.txt", "stage_2.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "adz.csv").read_text().splitlines()[0].startswith("stage,")
    report = json.loads((out1 / "adz.json").read_text())
    assert report["retained_half"] is True
    assert report["stages"][0]["chosen_N"] is not None


#: every config key that feeds a library parameter with a default -> its owner
LIBRARY_DEFAULTED = {
    **dict.fromkeys(
        ["H", "cone_gap", "cone_eps", "P", "C", "C_prime", "C2", "c_slack", "K_max"], Constants
    ),
    **dict.fromkeys(
        [
            "grid", "refine_tol", "tower.levels", "tower.sample_len", "tower.approx_len",
            "tower.approx_sample_len", "tower.accel_energies", "tower.accel_r_max",
        ],
        tower_pipeline,
    ),
    "decay.sample_len": decay_sweep,
    "adz.n_floor": adz_construct,
    "adz.max_word_len": adz_construct,
}


@pytest.mark.parametrize("command", ["tower", "verify", "decay", "adz"])
def test_absent_key_takes_the_library_default(tmp_path, command):
    # the shipped config sets every library-defaulted key it has to the
    # library's own default (adz.n_floor to adz_construct's floor of 1, ...),
    # and the CLI restates none of them: without those keys the run writes the
    # same artifacts
    assert all(len(KEYS[key]) == 1 for key in LIBRARY_DEFAULTED)
    full = json.loads((CONFIGS / MISTAKE_BASES[command]).read_text())
    bare = copy.deepcopy(full)
    dropped = []
    for key, owner in LIBRARY_DEFAULTED.items():
        *section, name = key.split(".")
        holder = bare.get(section[0], {}) if section else bare
        if name in holder:
            assert holder.pop(name) == inspect.signature(owner).parameters[name].default, key
            dropped.append(key)
    assert dropped
    code1, out1 = run(tmp_path, command, full, out="full")
    code2, out2 = run(tmp_path, command, bare, out="bare")
    assert code1 == code2 == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name.endswith(".json"):
            a, b = (json.loads((out / name).read_text()) for out in (out1, out2))
            for d in (a, b):
                del d["config"], d["config_sha256"]
            assert a == b, name
        else:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_adz_failure_exit_code(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            "potential": {"a": 0.0, "b": 30.0},
            "adz": {"k": 2, "eps": 0.5, "stages": 3, "n_cap": 2},
        },
    )
    code = main(["adz", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1


def test_decay_command_deterministic(tmp_path):
    payload = {
        "subshift": {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"},
        "potential": {"a": 0.0, "b": 1.0},
        "decay": {"lam_list": [10.0, 20.0, 40.0], "factor_len": 6, "sample_len": 512},
    }
    code1, out1 = run(tmp_path, "decay", payload, out="d1")
    code2, out2 = run(tmp_path, "decay", payload, out="d2")
    assert code1 == code2 == 0
    assert (out1 / "decay.csv").read_bytes() == (out2 / "decay.csv").read_bytes()
    assert (out1 / "decay.json").read_bytes() == (out2 / "decay.json").read_bytes()
    table = json.loads((out1 / "decay.json").read_text())
    assert [r["lam"] for r in table["rows"]] == [10.0, 20.0, 40.0]


def test_main_exit_codes(tmp_path):
    assert main(["tower", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["tower", "--config", str(bad)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", str(bad)])
    assert exc.value.code == 2


def test_measure_is_not_a_command(tmp_path, capsys):
    # interval-set algebra is the library's IntervalSet, not a CLI command
    cfg_path = write_config(tmp_path, {"measure": {"op": "union", "x": "x.csv", "y": "y.csv"}})
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice: 'measure'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="choose from words, spectrum, decay, adz, tower, verify$"):
        dispatch("measure", RunConfig({}), tmp_path / "o", quiet=True)
    assert not (tmp_path / "o").exists()


def test_readme_command_table_lists_every_command():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command    | artifacts |") + 2  # past the header and its rule
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    assert [row.split("`")[1] for row in rows] == list(RUNNERS)


def test_verify_core_overflow_exit_code(tmp_path, capsys):
    # level-2 cores at b = 200 overflow float64: the run fails, exit 1
    cfg_path = write_config(
        tmp_path,
        {
            "grid": 257,
            "subshift": {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"},
            "potential": {"a": 0.0, "b": 200.0},
            "tower": {"alpha0": "a", "levels": 2, "sample_len": 20000},
            "suite": {"trials": 200},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    # the named error alone: no numpy overflow warnings before it
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("run failed: level-2 core cocycle of 3271 letters is not finite")
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


def test_seed_override(tmp_path):
    payload = {"potential": {"a": 0.0}, "spectrum": {"word": "a"}, "seed": 1}
    cfg_path = write_config(tmp_path, payload)
    assert main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "s1"),
                 "--seed", "42", "--quiet"]) == 0
    report = json.loads((tmp_path / "s1" / "spectrum.json").read_text())
    assert report["seed"] == 42


def test_seed_override_out_of_range_is_rejected(tmp_path, capsys):
    # --seed goes through the config key's converter: a negative seed is named
    payload = {"potential": {"a": 0.0}, "spectrum": {"word": "a"}, "seed": 1}
    cfg_path = write_config(tmp_path, payload)
    code = main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--seed", "-1", "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: config value 'seed' is out of range")
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig([])  # not an object
    with pytest.raises(ConfigError):
        RunConfig({"refine_tol": 0.0})
    cfg = RunConfig({"potential": {"a": 0.0, "b": 1.0}})
    assert cfg.potential().value("b") == 1.0
    with pytest.raises(ConfigError):
        RunConfig({}).potential()
    with pytest.raises(ConfigError):
        RunConfig({"subshift": {"kind": "nope"}}).subshift()


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("spectrum", {"gird": 4097, "potential": {"a": 0.0}, "spectrum": {"word": "a"}}, "'gird'"),
        ("spectrum", {"potential": {"a": 0.0}, "spectrum": {"word": "a", "wrod": "b"}}, "'wrod'"),
        (
            "decay",
            {
                "subshift": {"kind": "periodic", "word": "ab"},
                "potential": {"a": 0.0, "b": 1.0},
                "decay": {"lam_list": [10.0, 20.0, 40.0]},
                "measure": {"op": "union"},
            },
            "'measure'",
        ),
    ],
    ids=["top_level", "section", "measure_section"],
)
def test_unknown_config_key_rejected(tmp_path, capsys, command, payload, key):
    cfg_path = write_config(tmp_path, payload)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert not (tmp_path / "o").exists()


VERIFY_LAM400 = Path(__file__).resolve().parent.parent / "configs" / "acceptance_verify_lam400.json"


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("spectrum", {"grid": "abc", "potential": {"a": 0.0}, "spectrum": {"word": "a"}}, "'grid'"),
        ("verify", {"suite": [1]}, "'suite'"),
    ],
    ids=["grid_not_int", "suite_not_object"],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, command, override, key):
    payload = json.loads(VERIFY_LAM400.read_text()) if command == "verify" else {}
    cfg_path = write_config(tmp_path, {**payload, **override})
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and key in err
    assert not (tmp_path / "o").exists()


CONFIGS = VERIFY_LAM400.parent
HUGE_INT = "1" + "0" * 400  # an integer literal beyond the float range


@pytest.mark.parametrize(
    "command, literal, needle",
    [
        ("spectrum", "NaN", "NaN"),
        ("decay", "Infinity", "Infinity"),
        ("spectrum", "1e999", "1e999"),
        ("spectrum", HUGE_INT, "too large"),
        ("decay", HUGE_INT, "'H'"),
    ],
    ids=["nan_potential", "infinite_H", "overflowing_float", "huge_int_potential", "huge_int_H"],
)
def test_non_finite_config_number_rejected(tmp_path, capsys, command, literal, needle):
    if command == "decay":
        text = (CONFIGS / "acceptance_decay.json").read_text().replace('"H": 3.0', f'"H": {literal}')
        assert literal in text
    else:
        text = f'{{"potential": {{"a": 0.0, "b": {literal}}}, "spectrum": {{"word": "ab"}}}}'
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text, encoding="utf-8")
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and needle in err
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


FIBONACCI_SPEC = {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"}
MISTAKE_BASES = {
    "verify": "acceptance_verify_lam400.json",
    "tower": "acceptance_verify_lam400.json",
    "decay": "acceptance_decay.json",
    "adz": "acceptance_adz.json",
    "spectrum": {"potential": {"a": 0.0, "b": 1.0}, "spectrum": {"word": "ab"}},
    "words": {"subshift": FIBONACCI_SPEC, "words": {"sample_len": 64}},
}
CONFIG_MISTAKES = [
    ("verify", "tower.accel_r_max", 0, "r_max >= 1"),
    ("verify", "tower.accel_r_max", -3, "r_max >= 1"),
    ("verify", "tower.accel_energies", 0, "at least one energy"),
    ("tower", "tower.alpha0", 5, "'tower.alpha0'"),
    ("tower", "tower.alpha0", "z", "letter 'z' not in potential domain"),
    ("decay", "decay.e0_letter", "z", "letter 'z' not in potential domain"),
    ("decay", "decay.e0_letter", ["a"], "'decay.e0_letter'"),
    ("spectrum", "spectrum.word", 12, "'spectrum.word'"),
    ("spectrum", "spectrum.word", "abz", "letter 'z' not in potential domain"),
    ("words", "words.alphabet", 5, "'words.alphabet'"),
    ("words", "words.sample_len", -5, "length must be >= 0"),
    ("words", "words.complexity_lengths", [1000], "exceeds sample length 64"),
    ("decay", "decay.lam_list", [10, 20], "three couplings"),
    ("tower", "grid", 4, "at least 8 points"),
    ("tower", "tower.sample_len", 30, "level-0 returns"),
    ("verify", "gamma_prime", 0.3, "parameter chain violated: need gamma_prime < 1/4"),
    ("tower", "tower.approx_len", 0, "factor length must be >= 1"),
    ("verify", "suite.trials", 0, "at least one trial"),
    ("adz", "adz.k", 1, "alphabet of size >= 2"),
    ("tower", "K_max", 1, "exceeds cap 1"),
]


@pytest.mark.parametrize(
    "command, key, value, needle",
    CONFIG_MISTAKES,
    ids=[f"{key}={value!r}" for _, key, value, _ in CONFIG_MISTAKES],
)
def test_config_mistake_is_one_line_exit_2(tmp_path, capsys, command, key, value, needle):
    # a library argument error is a configuration error: exit 2, one line
    # that names the problem, no traceback and no artifact; an empty
    # acceleration check must not pass vacuously
    base = MISTAKE_BASES[command]
    if isinstance(base, str):
        base = json.loads((CONFIGS / base).read_text())
    payload = copy.deepcopy(base)
    *section, name = key.split(".")
    (payload[section[0]] if section else payload)[name] = value
    cfg_path = write_config(tmp_path, payload)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ") and needle in err[0]
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


WRONG_NUMBER_TYPES = [
    ("grid", 2049.9),
    ("seed", True),
    ("gamma", "0.1"),
    ("grid", "2049"),
    ("H", "inf"),
    ("refine_tol", "nan"),
    ("potential.b", "200"),
    ("suite.lam_floors", [1000.0, True]),
]


@pytest.mark.parametrize(
    "key, value", WRONG_NUMBER_TYPES, ids=[f"{k}={v!r}" for k, v in WRONG_NUMBER_TYPES]
)
def test_config_number_of_wrong_type_is_rejected(tmp_path, capsys, key, value):
    # an integer key takes only a JSON integer and a float key only a JSON
    # number: a bool, a float for an integer or a string is named, not coerced
    payload = json.loads((CONFIGS / "acceptance_verify_lam200.json").read_text())
    *section, name = key.split(".")
    (payload[section[0]] if section else payload)[name] = value
    cfg_path = write_config(tmp_path, payload)
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: config value '{key}' has the wrong type")
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


WRONG_SUBSHIFT_TYPES = [
    ({"kind": "periodic", "word": 12}, "word"),
    ({"kind": "periodic", "word": True}, "word"),
    ({"kind": "sample", "word": ["ab"]}, "word"),
    ({**FIBONACCI_SPEC, "rules": {"a": ["a", "b"], "b": "a"}}, "rules"),
    ({**FIBONACCI_SPEC, "seed_letter": ["a"]}, "seed_letter"),
    ({"kind": "adz_stages", "stages": [["a", "b"], ["ab", 3]]}, "stages"),
]


@pytest.mark.parametrize(
    "spec, key", WRONG_SUBSHIFT_TYPES, ids=[f"{s['kind']}.{k}" for s, k in WRONG_SUBSHIFT_TYPES]
)
def test_subshift_value_of_wrong_type_is_rejected(tmp_path, capsys, spec, key):
    # a subshift word, seed letter, rule image or stage word takes only a JSON
    # string: 12 is not the word "12", nor ["a", "b"] the image "['a', 'b']"
    payload = {**MISTAKE_BASES["words"], "subshift": spec}
    cfg_path = write_config(tmp_path, payload)
    code = main(["words", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: config value 'subshift.{key}' has the wrong type")
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


OUT_OF_RANGE_NUMBERS = [
    ("decay", "decay.lam_list", [-1, 1, 2]),
    ("decay", "decay.lam_list", [0, 1, 2]),
    ("decay", "H", 0),
    ("verify", "H", 0),
    ("decay", "H", -1),
    ("verify", "H", 1e200),
    ("decay", "H", 2e4),
    ("verify", "C", 0),
    ("verify", "C", -2),
    ("tower", "seed", -1),
    ("verify", "refine_tol", 0),
    ("verify", "suite.lam_floors", []),
    ("verify", "suite.lam_floors", [0.0]),
    ("verify", "suite.lam_floors", [1000.0, -1.0]),
    ("verify", "suite.c0", 0.5),
    ("verify", "suite.c0", 1e80),
    ("verify", "suite.c0", 2e4),
    ("verify", "suite.lam_floors", [1e160]),
    ("verify", "suite.lam_floors", [1000.0, 1e151]),
    ("verify", "suite.lam_floors", [1e-100]),
    ("verify", "tower.covering_max_residue_fraction", -1),
    ("verify", "tower.levels", 0),
    ("tower", "tower.levels", -1),
    ("tower", "tower.levels", 0),
    ("words", "words.complexity_lengths", []),
    ("verify", "c_slack", 0),
    ("verify", "c_slack", -1),
    ("verify", "C2", 0),
    ("verify", "C_prime", 0),
    ("verify", "cone_gap", 0),
    ("verify", "P", 0),
    ("verify", "P", -1),
    ("tower", "K_max", 0),
]


@pytest.mark.parametrize(
    "command, key, value",
    OUT_OF_RANGE_NUMBERS,
    ids=[f"{c}-{k}={v!r}" for c, k, v in OUT_OF_RANGE_NUMBERS],
)
def test_config_number_out_of_range_is_rejected(tmp_path, capsys, command, key, value):
    # a number of the right type outside its key's range is named before any
    # work: no numpy warning, no failed gate and no suite that tests nothing
    base = MISTAKE_BASES[command]
    if isinstance(base, str):
        base = json.loads((CONFIGS / base).read_text())
    payload = copy.deepcopy(base)
    *section, name = key.split(".")
    (payload[section[0]] if section else payload)[name] = value
    cfg_path = write_config(tmp_path, payload)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"configuration error: config value '{key}' is out of range")
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


@pytest.mark.parametrize("c0", [1.0, 10.0, 1e4])
@pytest.mark.parametrize("floor", [1e-50, 1e150])
def test_suite_at_its_range_limits_stays_finite(c0, floor):
    # the limits of suite.c0 and suite.lam_floors keep the suite's matrices
    # and growth ratios in the float range: no numpy warning, and every kept
    # trial is hyperbolic
    suite = scaled_product_suite(2000, c0, [floor], 1)
    assert suite.non_hyperbolic == 0
    assert suite.tested == (2000 if floor > 1 else 0)


COUPLING_TOO_SMALL = [
    ({"subshift": {**FIBONACCI_SPEC, "rules": {"a": "ab", "b": "aa"}}}, "chi_1 = -0.651196 <= 0"),
    ({"potential": {"a": 0.0, "b": 5.0}}, "need lam > 2*cone_gap = 6.0, got lam=5.0"),
]


@pytest.mark.parametrize(
    "override, needle", COUPLING_TOO_SMALL, ids=["period_doubling_lam200", "lam5"]
)
def test_coupling_too_small_is_told_apart_from_config_mistakes(
    tmp_path, capsys, override, needle
):
    # exit 2 as a config mistake, but under its own prefix, so a coupling sweep
    # can tell "coupling too small" from a typo
    payload = {**json.loads((CONFIGS / "acceptance_verify_lam200.json").read_text()), **override}
    cfg_path = write_config(tmp_path, payload)
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [f"coupling too small: {needle}"]
    assert not list((tmp_path / "o").rglob("*"))  # no artifact


_json_value = st.recursive(
    st.one_of(
        st.text(),
        st.integers(),
        st.sampled_from([2**70, -(2**90)]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.none(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.text(), _json_value, max_size=6))
def test_config_hash_equals_sanitized_dump(config):
    payload = json.dumps(_sanitize(config), sort_keys=True, separators=(",", ":"))
    assert config_hash(config) == hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, digest",
    [
        ("acceptance_adz.json", "eabd8fbce74344029a179e1b6a507520c223969b2375e58f00af3afa5808a444"),
        ("acceptance_decay.json", "b8145ecf44676aaef2847c5ea8e092c1f55d2de26e167d30fa4b60b2107d3902"),
        (
            "acceptance_verify_lam200.json",
            "74597a4773c3aac1f2f44fa137cc3c470ec01ffa19a858475898fc3660ff5809",
        ),
        (
            "acceptance_verify_lam400.json",
            "3949fb068cd3204a476737e2a1efb7a88d2b6c2355e321980b75b3049f6968ed",
        ),
    ],
)
def test_shipped_config_hashes_pinned(name, digest):
    assert config_hash(load_config(CONFIGS / name).raw) == digest


META_KEYS = {"config", "config_sha256", "seed", "tool_version"}


def test_artifact_key_contract(tmp_path):
    """Every JSON artifact key, nested records included.

    Artifacts serialize result dataclasses field by field, so a new field
    becomes a new key; this test makes such a change deliberate.
    """
    verify = {
        "grid": 257,
        "subshift": {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"},
        "potential": {"a": 0.0, "b": 400.0},
        "tower": {"alpha0": "a"},
        "suite": {"trials": 200},
    }
    code, out = run(tmp_path, "verify", verify)
    assert code == 0

    def load(name, keys):
        d = json.loads((out / name).read_text())
        assert set(d) == keys | META_KEYS, name
        return d

    structure = load("structure.json", {"alpha0", "levels"})
    assert set(structure["levels"]) == {"0", "1"}
    for lv in structure["levels"].values():
        assert set(lv) == {"n_entries", "alphabet", "inf_l", "sup_l", "group_arity"}
        assert all(set(e) == {"run", "core"} for e in lv["alphabet"])

    schedule = load(
        "schedule.json",
        {"gamma", "gamma_prime", "c", "xi", "lam", "C", "P", "warnings", "levels", "checks"},
    )
    assert set(schedule["levels"]) == {"0", "1"}
    for lv in schedule["levels"].values():
        assert set(lv) == {
            "N", "eta", "kappa", "log_kappa", "chi", "log_lam_bar", "lam_bar", "M",
            "zeta", "log_zeta", "inf_l", "sup_l",
        }
    assert all(set(c) == {"name", "ok", "required", "detail"} for c in schedule["checks"])

    for level in (0, 1):
        excl = load(
            f"exclusion_level_{level}.json",
            {
                "level", "kappa", "interval", "grid", "refine_tol", "triples", "Jn",
                "measure", "C1_hat", "C5_hat", "warnings",
            },
        )
        assert excl["triples"]
        for t in excl["triples"]:
            assert set(t) == {"alpha", "beta", "j", "intervals", "measure", "c1_hat", "c5_hat"}

    load(
        "acceleration.json",
        {
            "level", "r_max", "n_energies", "energies", "n_windows", "n_checks",
            "hyper_violations", "drift_failures", "growth_chi_failures",
            "growth_product_failures", "block_floor_failures", "worst_drift",
            "worst_growth_margin", "block_chi_rate", "zeta", "chi_next", "all_passed",
        },
    )
    load(
        "covering.json",
        {
            "approx_measure", "residue", "residue_fraction", "covered", "dilation",
            "jbar_measure", "c3_hat", "interval",
        },
    )
    load(
        "suite.json",
        {
            "trials", "tested", "excluded", "C0", "c_slack", "seed", "growth_failures",
            "drift_failures", "non_hyperbolic", "worst_growth_ratio",
            "worst_drift_over_ceiling", "all_passed",
        },
    )

    decay = {
        "subshift": {"kind": "substitution", "rules": {"a": "ab", "b": "a"}, "seed_letter": "a"},
        "potential": {"a": 0.0, "b": 1.0},
        "decay": {"lam_list": [10.0, 20.0, 40.0], "factor_len": 6, "sample_len": 512},
    }
    code, out = run(tmp_path, "decay", decay, out="decay")
    assert code == 0
    table = load(
        "decay.json",
        {"rows", "e0_letter", "H", "slope", "gamma_hat", "residual", "degenerate", "note"},
    )
    assert all(set(r) == {"lam", "factor_len", "measure"} for r in table["rows"])

    adz = {
        "seed": 11,
        "potential": {"a": 0.0, "b": 1.0},
        "adz": {
            "k": 2, "eps": 0.5, "stages": 2, "n_cap": 100,
            "complexity_l_max": 16, "complexity_sample_len": 64,
        },
    }
    code, out = run(tmp_path, "adz", adz, out="adz")
    report = load(
        "adz.json",
        {
            "eps", "potential", "sigma1_measure", "final_measure", "retained_half",
            "stages", "search_trace", "complexity",
        },
    )
    for st in report["stages"]:
        assert set(st) == {
            "index", "n_words", "max_word_len", "words", "bands", "band_measure",
            "chosen_N", "deficit", "budget",
        }
    assert report["search_trace"]
    assert all(set(s) == {"stage", "N", "deficit"} for s in report["search_trace"])
    assert set(report["complexity"]) == {"anchor_len", "C_hat", "exponent", "rows", "within_bound"}
    assert all(set(r) == {"L", "p", "bound"} for r in report["complexity"]["rows"])

    code, out = run(tmp_path, "words", MISTAKE_BASES["words"], out="words")
    load("run_stats.json", {"max_run", "window"})
    code, out = run(tmp_path, "spectrum", MISTAKE_BASES["spectrum"], out="spectrum")
    load("spectrum.json", {"word", "edges", "measure"})


SMALL_TOWER = {
    "grid": 257,
    "subshift": FIBONACCI_SPEC,
    "potential": {"a": 0.0, "b": 400.0},
    "tower": {"alpha0": "a"},
    "suite": {"trials": 200},
}
TOWER_FILES = {
    "structure.json", "schedule.json", "exclusion_level_0.json", "exclusion_level_1.json",
    "jbar.csv",
}
ARTIFACT_NAMES = [
    ("words", MISTAKE_BASES["words"], {"sample.txt", "complexity.csv", "run_stats.json"}),
    ("spectrum", MISTAKE_BASES["spectrum"], {"bands.csv", "spectrum.json"}),
    ("decay", "acceptance_decay.json", {"decay.csv", "decay.json"}),
    (
        "adz",
        {"potential": {"a": 0.0, "b": 1.0}, "adz": {"k": 2, "eps": 0.5, "stages": 2, "n_cap": 100}},
        {"stage_1.txt", "stage_2.txt", "adz.csv", "adz.json"},
    ),
    ("tower", SMALL_TOWER, TOWER_FILES),
    ("verify", SMALL_TOWER, TOWER_FILES | {"acceleration.json", "covering.json", "suite.json"}),
]


@pytest.mark.parametrize(
    "command, payload, names",
    ARTIFACT_NAMES,
    ids=[command for command, _, _ in ARTIFACT_NAMES],
)
def test_command_writes_exactly_its_artifacts(tmp_path, command, payload, names):
    # dispatch writes what the command returns, and nothing else
    if isinstance(payload, str):
        payload = json.loads((CONFIGS / payload).read_text())
    code, out = run(tmp_path, command, payload)
    assert code == 0
    assert {str(p.relative_to(out)) for p in out.rglob("*")} == names
