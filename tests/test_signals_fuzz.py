"""Fuzz of the record functions: a batch of records gives, element by
element, the bits of the one-record calls, plan_sampling refuses exactly
the tone sets with a tone below 0.5 Hz, and every tone set that it accepts
is synthesised on its bins, as the per-tone sine sum of validation."""

from datetime import timedelta

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from selfmix.signals import (  # noqa: E402
    dft_spectrum,
    plan_sampling,
    synthesize_waveform,
)
from selfmix.validation import sine_sum  # noqa: E402


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


@st.composite
def planned_tone_sets(draw):
    """(amplitudes, on_bin, off_bin, phases, low): rows x tones amplitudes
    and phases, one to four distinct multiples 1 .. 250 of a common grid,
    the same tones each moved off its whole number of hertz by up to 0.999
    of the on-bin tolerance, 1e-9 of its frequency, and less than half a
    hertz (up to 0.499 Hz at 1 GHz; a 1 Hz tone can move below 1 Hz), and
    a third of the time up to two tones below 0.5 Hz, ``low``, that
    ``off_bin`` also holds."""
    grid = draw(st.sampled_from([1.0, 7.0, 1e4, 5e8, 1e9]))
    multiples = draw(st.lists(st.integers(1, 250), min_size=1, max_size=4,
                              unique=True))
    on_bin = [k * grid for k in multiples]
    shifts = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(on_bin),
                           max_size=len(on_bin)))
    off_bin = [f + d * min(0.999e-9 * f, 0.499)
               for f, d in zip(on_bin, shifts)]
    low = draw(st.one_of(st.just([]), st.just([]), st.lists(
        st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        min_size=1, max_size=2)))
    position = draw(st.integers(0, len(off_bin)))
    off_bin[position:position] = low
    rows = draw(st.integers(1, 3))
    amplitudes = draw(hnp.arrays(float, (rows, len(on_bin)),
                                 elements=st.floats(0.0, 1e3)))
    phases = draw(hnp.arrays(float, (rows, len(on_bin)),
                             elements=st.floats(-1e3, 1e3)))
    return amplitudes, on_bin, off_bin, phases, low


@settings(max_examples=120, deadline=timedelta(seconds=20), derandomize=True)
@given(case=planned_tone_sets())
def test_planned_tone_sets_are_built_on_their_bins(case):
    amplitudes, on_bin, off_bin, phases, low = case
    # the planner refuses exactly the sets with a tone below 0.5 Hz, and
    # names the first
    if low:
        with pytest.raises(ValueError, match=f"^frequency {low[0]} Hz is "
                           "not an integer number of hertz >= 1;"):
            plan_sampling(off_bin)
        return
    rate, duration = plan_sampling(off_bin)
    # a tone inside the on-bin tolerance plans as its whole number of hertz
    assert plan_sampling(on_bin) == (rate, duration)
    samples = round(rate * duration)
    # and synthesize_waveform fills every plan, with each tone built on its
    # bin, bit for bit as the whole multiple of the grid
    records = synthesize_waveform(amplitudes, off_bin, phases, rate, samples)
    assert records.tobytes() == synthesize_waveform(
        amplitudes, on_bin, phases, rate, samples).tobytes()
    # within 1e-12 of its amplitude sum of the sine sum, which has no FFT
    reference = sine_sum(amplitudes, on_bin, phases, rate, samples)
    assert np.all(np.abs(records - reference)
                  <= 1e-12 * amplitudes.sum(axis=1, keepdims=True))
    for row, record in enumerate(records):
        assert record.tobytes() == synthesize_waveform(
            amplitudes[row], off_bin, phases[row], rate, samples).tobytes()


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(data=st.data(), samples=st.integers(16, 600),
       shift=st.floats(1e-6, 0.49))
def test_tone_off_its_bin_is_refused(data, samples, shift):
    # further than 1e-9 of its bin index off a bin, either side
    bin_index = data.draw(st.integers(1, samples // 2 - 1))
    for index in (bin_index + shift, bin_index - shift):
        with pytest.raises(ValueError, match="off the bins"):
            synthesize_waveform([1.0], [index], 0.0, float(samples), samples)


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(samples=st.integers(16, 600), index=st.floats(1e-6, 1.0 - 2e-9))
def test_tone_below_bin_one_is_refused(samples, index):
    with pytest.raises(ValueError, match="off the bins 1 "):
        synthesize_waveform([1.0], [index], 0.0, float(samples), samples)


def test_huge_amplitude_gives_a_finite_record():
    # the bins hold a / 2 and the inverse FFT scales none of them by n
    samples = 1 << 20
    w = synthesize_waveform([1e300, 1e300], [12345.0, 5.0], [0.3, -2.0],
                            float(samples), samples)
    assert np.all(np.isfinite(w))
    assert 1e300 < np.abs(w).max() <= 2e300
