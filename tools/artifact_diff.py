"""Show which values differ between two artifact trees.

    python3 tools/artifact_diff.py A B

compares the files under directories A and B by relative path, such as the
trees that ``tools/artifact_digests.py --keep`` writes for two checkouts.
For each JSON file that differs it prints one line per JSON path whose
values differ, with list indices collapsed to ``[*]``: how many values
differ there and, where all of them are floats, the largest absolute and
relative difference.  A file that is not JSON is reported as differing
only.  The tool exits 0 when only float values differ, and 1 when a file
is missing on one side, a non-JSON file differs, or any other value
differs (a string, an integer, a list length, a key):

    verify200/exclusion_level_1.json
      C1_hat: 1 float differs, max abs 2.7e-18, max rel 2.4e-14
      triples[*].c5_hat: 12 floats differ, max abs 2.2e-16, max rel 2.2e-16

Uses only the standard library.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path


@dataclass
class PathDiff:
    floats: int = 0
    other: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0

    def add_float(self, a: float, b: float) -> None:
        self.floats += 1
        d = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
        self.max_abs = max(self.max_abs, d)
        self.max_rel = max(self.max_rel, d / max(abs(a), abs(b)))

    def line(self) -> str:
        parts = []
        if self.floats:
            noun = "float differs" if self.floats == 1 else "floats differ"
            parts.append(
                f"{self.floats} {noun}, max abs {self.max_abs:.3g}, max rel {self.max_rel:.3g}"
            )
        if self.other:
            noun = "other value differs" if self.other == 1 else "other values differ"
            parts.append(f"{self.other} {noun}")
        return "; ".join(parts)


def compare(a, b, path: str, diffs: dict[str, PathDiff]) -> None:
    """Record every difference between the JSON values a and b under path."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                compare(a[key], b[key], sub, diffs)
            else:
                diffs.setdefault(sub, PathDiff()).other += 1
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.setdefault(f"{path} (length)", PathDiff()).other += 1
        for x, y in zip(a, b):
            compare(x, y, f"{path}[*]", diffs)
    elif type(a) is float and type(b) is float:
        if a != b and not (math.isnan(a) and math.isnan(b)):
            diffs.setdefault(path, PathDiff()).add_float(a, b)
    elif type(a) is not type(b) or a != b:
        diffs.setdefault(path, PathDiff()).other += 1


def diff_trees(left: Path, right: Path) -> tuple[list[str], bool]:
    """The report lines for two trees, and whether only floats differ."""
    files = {
        p.relative_to(root).as_posix()
        for root in (left, right)
        for p in root.rglob("*")
        if p.is_file()
    }
    lines, floats_only, same = [], True, 0
    for rel in sorted(files):
        a, b = left / rel, right / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {a.parent if a.is_file() else b.parent}")
            floats_only = False
            continue
        x, y = a.read_bytes(), b.read_bytes()
        if x == y:
            same += 1
            continue
        lines.append(rel)
        if not rel.endswith(".json"):
            lines.append("  file differs (not JSON)")
            floats_only = False
            continue
        diffs: dict[str, PathDiff] = {}
        compare(json.loads(x), json.loads(y), "", diffs)
        if not diffs:  # same values, different bytes
            diffs["(bytes)"] = PathDiff(other=1)
        for path, d in sorted(diffs.items()):
            lines.append(f"  {path}: {d.line()}")
            floats_only = floats_only and not d.other
    lines.append(f"{len(files) - same} of {len(files)} files differ")
    return lines, floats_only


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(p).is_dir() for p in args):
        print("usage: artifact_diff.py A B  (two artifact directories)", file=sys.stderr)
        return 2
    lines, floats_only = diff_trees(Path(args[0]), Path(args[1]))
    print("\n".join(lines))
    return 0 if floats_only else 1


if __name__ == "__main__":
    sys.exit(main())
