"""Every artifact of the fixed run set of ``tools/artifact_digests.py`` is
byte-identical to the digests committed in ``artifact_digests.txt``."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_digests.py"
GOLDEN = Path(__file__).with_name("artifact_digests.txt")


def _digests(lines: list[str]) -> dict[str, str]:
    """path -> sha256 of every ``sha256  path`` line."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_artifacts_match_golden_digests():
    header, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    want = _digests(lines)
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    got = _digests(proc.stdout.splitlines())
    problems = [f"tool exited {proc.returncode}: {proc.stderr.strip()}"] if proc.returncode else []
    problems += [f"moved: {p}" for p in sorted(want.keys() & got.keys()) if want[p] != got[p]]
    problems += [f"missing: {p}" for p in sorted(want.keys() - got.keys())]
    problems += [f"extra: {p}" for p in sorted(got.keys() - want.keys())]
    running = f"# python {platform.python_version()}, numpy {np.__version__}"
    if problems and running != header:
        problems.append(f"the digests were recorded with {header[2:]}; this is {running[2:]}")
    assert not problems, "\n".join(problems)
