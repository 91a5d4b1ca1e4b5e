"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from run import prepare_imports  # noqa: E402

prepare_imports()
