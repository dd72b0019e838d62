"""``tools/artifact_diff.py`` on two small synthetic artifact trees."""

import json
import runpy
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
diff_main = runpy.run_path(str(TOOL))["main"]

BASE = {
    "C1_hat": 0.5,
    "level": 1,
    "name": "x",
    "triples": [{"c5_hat": 1.0, "j": 1}, {"c5_hat": 2.0, "j": 2}, {"c5_hat": 3.0, "j": 1}],
}


def _tree(root: Path, report: dict, csv: str = "lo,hi\n0,1\n") -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "report.json").write_text(json.dumps(report))
    (root / "run" / "set.csv").write_text(csv)
    (root / "same.json").write_text("[1.0]")
    return root


def _diff(tmp_path, capsys, right: dict, **kwargs) -> tuple[int, list[str]]:
    left = _tree(tmp_path / "a", BASE)
    code = diff_main([str(left), str(_tree(tmp_path / "b", right, **kwargs))])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees(tmp_path, capsys):
    assert _diff(tmp_path, capsys, BASE) == (0, ["0 of 3 files differ"])


def test_floats_only_collapse_list_indices(tmp_path, capsys):
    right = json.loads(json.dumps(BASE))
    right["C1_hat"] = 0.5 + 2**-50
    right["triples"][0]["c5_hat"] = 1.25
    right["triples"][2]["c5_hat"] = 2.0
    code, lines = _diff(tmp_path, capsys, right)
    assert code == 0
    assert lines == [
        "run/report.json",
        "  C1_hat: 1 float differs, max abs 8.88e-16, max rel 1.78e-15",
        "  triples[*].c5_hat: 2 floats differ, max abs 1, max rel 0.333",
        "1 of 3 files differ",
    ]


@pytest.mark.parametrize(
    "change, line",
    [
        (lambda r: r.update(level=2), "  level: 1 other value differs"),
        (lambda r: r.update(level=1.0), "  level: 1 other value differs"),
        (lambda r: r.update(name="y"), "  name: 1 other value differs"),
        (lambda r: r["triples"][1].update(j=3), "  triples[*].j: 1 other value differs"),
        (lambda r: r["triples"].pop(), "  triples (length): 1 other value differs"),
        (lambda r: r.pop("name"), "  name: 1 other value differs"),
    ],
    ids=["int", "int-to-float", "string", "nested-int", "length", "key"],
)
def test_non_float_difference_exits_1(tmp_path, capsys, change, line):
    right = json.loads(json.dumps(BASE))
    change(right)
    code, lines = _diff(tmp_path, capsys, right)
    assert code == 1 and line in lines


def test_csv_difference_exits_1(tmp_path, capsys):
    code, lines = _diff(tmp_path, capsys, BASE, csv="lo,hi\n0,1.5\n")
    assert code == 1
    assert lines == ["run/set.csv", "  file differs (not JSON)", "1 of 3 files differ"]


def test_missing_file_exits_1(tmp_path, capsys):
    left = _tree(tmp_path / "a", BASE)
    right = _tree(tmp_path / "b", BASE)
    (right / "same.json").unlink()
    assert diff_main([str(left), str(right)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"same.json: only in {left}"


def test_usage_exits_2(tmp_path, capsys):
    assert diff_main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err
