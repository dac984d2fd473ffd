"""The benchmark tracer (perfbench/tracing.py) rebinds public permroot names
at run time and raises AttributeError when one of them is gone.  The
perfbench tests are a separate suite, so this keeps a rename or a deletion
in the library from breaking the traced benchmark unnoticed."""

import importlib
import math
from pathlib import Path

from permroot import counting, families, permutation, roots, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    scan = families.enumerate_family
    str_method = permutation.Permutation.__str__
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert verify.enumerate_family is not scan
        assert counting.comb is not math.comb
    finally:
        tracer.uninstall()
    assert verify.enumerate_family is families.enumerate_family is scan
    assert counting.enumerate_family is scan
    assert counting.comb is math.comb
    assert verify.type_has_root is roots.type_has_root
    assert permutation.Permutation.__str__ is str_method
