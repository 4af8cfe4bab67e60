"""Import every benchmark module without running it.

The tier-1 suite does not collect ``benchmarks/``, so a benchmark can keep
importing a symbol the library has since deleted or renamed, and only the
separate bench lane would notice.  Importing each ``benchmarks/bench_*.py``
here turns that drift into a tier-1 failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_benchmarks_are_found():
    assert BENCH_FILES, f"no bench_*.py modules under {BENCH_DIR}"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.stem)
def test_benchmark_module_imports(path, monkeypatch):
    # Benchmarks import their shared helpers (``_bench_utils``) as
    # top-level modules, the way pytest's rootdir insertion exposes them.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        f"benchmark_import_check.{path.stem}", path
    )
    assert spec is not None and spec.loader is not None
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
