import sys
from pathlib import Path

# Neither the simulator nor the benchmark is installed: import both from
# the checkout.
ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
