"""Property-based checks of the extraction engine over the whole angle range."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402
from test_engine import traced_operators  # noqa: E402

from qwchannel.kraus import extract_kraus_direct  # noqa: E402


@given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
       t=st.integers(1, 60))
def test_engine_equals_the_position_traced_walk_and_is_complete(theta, t):
    kset = extract_kraus_direct(theta, t)
    assert np.array_equal(np.array(kset.operators()), traced_operators(theta, t))
    assert kset.completeness_residual() <= 2e-15 * (t + 1)
