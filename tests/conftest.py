import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the subprocess tests run `python -m jetlag.cli`: let them import the
# package from a plain checkout too, as pyproject's pythonpath does here
_SRC = str(Path(__file__).parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

from jetlag.monolayer import MonolayerModel, MonolayerParams
from jetlag.points import jet_point


@pytest.fixture(scope="session")
def params5():
    """The reference parameter choice (m=1, p=10, |V|=1000, R0=1)."""
    return MonolayerParams(m=1.0, p=10.0, V_abs=1000.0, R0=1.0)


@pytest.fixture(scope="session")
def model5(params5):
    return MonolayerModel(params5)


@pytest.fixture(scope="session")
def sample_pt():
    """A benign valid jet point used by many closed-form-vs-oracle checks."""
    return jet_point(1e-3, 0.5, 0.0, -1.0, 0.2)
