"""Fuzz of the batched record functions: a batch of records gives, element
by element, the bits of the one-record calls."""

from datetime import timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from selfmix.signals import dft_spectrum, synthesize_waveform  # noqa: E402


@st.composite
def batches(draw):
    """(amplitudes, frequencies, phases, samples): rows x tones amplitudes
    and phases, integer tone frequencies below the Nyquist rate of a record
    of ``samples`` samples at ``samples`` Hz (one second, every tone on a
    bin)."""
    samples = 2 ** draw(st.integers(4, 9)) + draw(st.sampled_from([0, 1]))
    tones = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    frequencies = draw(st.lists(st.integers(1, (samples - 1) // 2),
                                min_size=tones, max_size=tones))
    amplitudes = draw(hnp.arrays(float, (rows, tones),
                                 elements=st.floats(0.0, 1e3)))
    phases = draw(hnp.arrays(float, (rows, tones),
                             elements=st.floats(-1e3, 1e3)))
    return amplitudes, frequencies, phases, samples


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(batch=batches())
def test_batched_calls_equal_single_calls(batch):
    amplitudes, frequencies, phases, samples = batch
    rate = float(samples)
    records = synthesize_waveform(amplitudes, frequencies, phases, rate,
                                  samples)
    assert records.shape == (len(amplitudes), samples)
    # each row is the one-row call
    for row, record in enumerate(records):
        alone = synthesize_waveform(amplitudes[row], frequencies, phases[row],
                                    rate, samples)
        assert record.tobytes() == alone.tobytes()
    # a shared phase row is that row repeated on every row
    shared = synthesize_waveform(amplitudes, frequencies, phases[0], rate,
                                 samples)
    repeated = synthesize_waveform(amplitudes, frequencies,
                                   np.tile(phases[0], (len(amplitudes), 1)),
                                   rate, samples)
    assert shared.tobytes() == repeated.tobytes()
    # one row of bins 0 .. n // 2 per record
    assert dft_spectrum(records).shape == (len(amplitudes), samples // 2 + 1)
