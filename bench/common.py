"""Paths and the package import shared by the benchmark scripts.

The benchmark always measures the package in the checkout it sits in
(``<root>/src/tailshift``), never an installed copy, so the scripts put
``<root>/src`` first on ``sys.path`` and refuse to run if the import
resolves anywhere else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
CONFIGS = ROOT / "configs"
REFERENCES = BENCH / "references.json"
OUT_DIR = ROOT / ".bench_out"      # scratch outputs and traces; ignored by git


class BenchError(RuntimeError):
    """The benchmark cannot run here, or its own self-checks failed."""


def import_tailshift():
    """Import the package from the checkout's source tree and return it."""
    src = ROOT / "src"
    if not (src / "tailshift" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'tailshift'}")
    sys.path.insert(0, str(src))
    import tailshift
    if Path(tailshift.__file__).resolve().parent != (src / "tailshift").resolve():
        raise BenchError(f"tailshift imported from {tailshift.__file__}, not from {src}")
    return tailshift
