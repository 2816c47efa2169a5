import sys
from pathlib import Path

# The benchmark's modules import batchfront from the source tree beside them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
