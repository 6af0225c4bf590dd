"""Make the benchmark's modules importable as top-level names, as run.py does."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
