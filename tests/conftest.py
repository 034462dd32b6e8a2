import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from weylkit.config import set_strict_default

# derandomized so failures reproduce byte-for-byte across runs and machines
settings.register_profile(
    "weylkit",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("weylkit")

# pytest finds the package in src through pyproject's pythonpath; the CLI
# subprocesses that some tests start find it through PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def _strict_everywhere():
    # reduced-word verification ON for the whole suite; individual tests and
    # the performance criterion opt out explicitly where it matters
    set_strict_default(True)
    yield
    set_strict_default(None)
