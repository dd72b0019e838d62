"""The benchmark's wrap points exist in the package.

``perfbench/tracing.py`` wraps library functions by name in every package
module that holds them.  A function it names that the package no longer has,
or a kernel no longer imported by name where a layer calls it, would
otherwise first show up as a failed traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from subshift_spectra import sl2

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for t in tracing.TARGETS:
        home = importlib.import_module(f"{tracing.PACKAGE}.{t.module}")
        if "." in t.attr:
            cls_name, meth = t.attr.split(".")
            assert meth in vars(getattr(home, cls_name)), t.func
        else:
            assert callable(getattr(home, t.attr, None)), t.func


@pytest.mark.parametrize(
    "name, modules",
    [
        ("cocycle_stack", ("sl2", "bands", "tower")),
        ("svd_angles_stack", ("sl2", "tower", "experiments")),
    ],
)
def test_kernel_bound_by_name_where_layers_call_it(name, modules):
    kernel = getattr(sl2, name)
    for m in modules:
        module = importlib.import_module(f"subshift_spectra.{m}")
        assert vars(module).get(name) is kernel, (name, m)
