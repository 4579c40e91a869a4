"""Child Python processes started by the tests import spinqec from src,
as the tests themselves do through pytest's pythonpath setting."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
