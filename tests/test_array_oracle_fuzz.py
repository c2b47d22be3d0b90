"""Fuzz of the time-domain array oracle over tone pairs on integer grids:
it refuses exactly the pairs whose 2 min(f1, f2) square term falls on the
IF bin, and otherwise measures the closed-form IF array factor."""

import math
from datetime import timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from selfmix.arrays import (  # noqa: E402
    ArrayGeometry,
    if_array_factor_cut,
    simulate_array_timedomain,
)

# multiples (a, b) of a common grid, one tone three times the other often
MULTIPLES = st.integers(1, 30).flatmap(lambda a: st.tuples(
    st.just(a), st.one_of(st.just(3 * a),
                          st.integers(1, 90).filter(lambda b: b != a))))
THETA = np.linspace(-1.5, 1.5, 9)


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(multiples=MULTIPLES, grid_hz=st.integers(1, 10 ** 9),
       swap=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       phi=st.floats(-math.pi, math.pi))
def test_oracle_refuses_or_matches_closed_form(multiples, grid_hz, swap, seed,
                                               phi):
    a, b = multiples[::-1] if swap else multiples
    f1, f2 = float(a * grid_hz), float(b * grid_hz)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    g = ArrayGeometry(rng.uniform(-0.05, 0.05, size=(n, 2)))
    if 3 * min(a, b) == max(a, b):
        with pytest.raises(ValueError, match="shares the IF bin"):
            simulate_array_timedomain(g, f1, f2, THETA, phi)
        return
    power = simulate_array_timedomain(g, f1, f2, THETA, phi)
    factor = if_array_factor_cut(g, f1, f2, THETA, phi)
    kept = factor >= 1e-6
    expected = 10.0 * math.log10(n) + 20.0 * np.log10(factor[kept])
    assert np.all(np.abs(power[kept] - expected) <= 1e-9)
