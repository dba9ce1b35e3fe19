import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# Derandomized so the suite is reproducible run to run; the strategies
# already sweep seeded RNG streams internally.
settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# Some tests take their inputs from the benchmark's generators
# (``perfbench.inputs``), which live at the checkout root.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
