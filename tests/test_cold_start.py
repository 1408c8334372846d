"""A fresh interpreter imports the package without scipy.

Only the Tables VII–IX t-test needs scipy, so it imports it on first use;
everything a CLI run, a benchmark child or a restarted deletion service
imports must start without it.  Both import checks run in a subprocess,
because the test process may already hold scipy.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.eval import t_test_p_value

from .conftest import generated

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run(script: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": _SRC},
    )
    return out.stdout.strip()


def test_package_imports_without_scipy():
    script = (
        "import sys\n"
        "for name in ('repro', 'repro.unlearning', 'repro.experiments.cli',"
        " 'repro.cluster'):\n"
        "    __import__(name)\n"
        "    print(name, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    lines = _run(script).splitlines()
    assert lines == [
        f"{name} False" for name in
        ("repro", "repro.unlearning", "repro.experiments.cli", "repro.cluster")
    ]


def test_identical_confidences_return_before_importing_scipy():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.eval import t_test_p_value\n"
        "probs = np.random.default_rng(0).dirichlet(np.ones(4), size=20)\n"
        "print(t_test_p_value(probs, probs.copy()),"
        " any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    )
    assert _run(script) == "1.0 False"


_probs = st.integers(2, 40).flatmap(lambda n: st.integers(2, 6).flatmap(
    lambda c: st.tuples(*[
        hnp.arrays(np.float64, (n, c), elements=st.floats(0.0, 1.0))
        for _ in range(2)
    ])))


# Near-constant generated columns make scipy warn about precision; the
# comparison is with scipy's own result, so the warning says nothing here.
@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
@generated(60)
@given(_probs)
def test_p_value_is_scipy_welch_bit_for_bit(pair):
    from scipy import stats

    a, b = pair
    conf_a, conf_b = a.max(axis=1), b.max(axis=1)
    if np.allclose(conf_a, conf_b):
        assert t_test_p_value(a, b) == 1.0
        return
    expected = float(stats.ttest_ind(conf_a, conf_b, equal_var=False).pvalue)
    got = t_test_p_value(a, b)
    assert np.array_equal(got, expected, equal_nan=True)
