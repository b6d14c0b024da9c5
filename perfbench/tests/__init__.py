"""Tests of the benchmark's own logic (run with the repository's tests)."""

import sys
from pathlib import Path

_SOURCE = str(Path(__file__).resolve().parents[2] / "src")
if _SOURCE not in sys.path:
    sys.path.insert(0, _SOURCE)
