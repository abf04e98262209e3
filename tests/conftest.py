import json
from pathlib import Path

import pytest

from iqcc.fcidump import load_fcidump
from iqcc.mapping import jordan_wigner, reference_state

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def reference_values():
    return json.loads((FIXTURES / "reference_values.json").read_text())


def _problem(name):
    mi = load_fcidump(FIXTURES / f"{name}.fcidump")
    h = jordan_wigner(mi)
    ref = reference_state(mi.n_electrons, 2 * mi.n_spatial, mi.ms2)
    return mi, h, ref


@pytest.fixture(scope="session")
def h2_problem():
    return _problem("h2")


@pytest.fixture(scope="session")
def h2_stretched_problem():
    return _problem("h2_stretched")


@pytest.fixture(scope="session")
def h4_problem():
    return _problem("h4")


@pytest.fixture(scope="session")
def lih_problem():
    return _problem("lih")


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES
