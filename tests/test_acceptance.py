"""Acceptance suite: one test per headline capability, each printing a
PASS line with the measured numbers when its assertions hold.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import pytest

from selfmix import arrays, validation


def report(n, text):
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_01_limiting_case_array_gain():
    start = time.perf_counter()
    result = validation.check_limiting_case_array_gain()
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 1.0
    report(1, f"1 kHz tone spacing at 10 RF-wavelength pitch: {result.detail} "
              f"({elapsed:.2f} s)")


def test_02_if_vs_rf_beamwidth():
    start = time.perf_counter()
    result = validation.check_if_vs_rf_beamwidth()
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 5.0
    report(2, f"4x2 E-plane: {result.detail} ({elapsed:.2f} s)")


def test_03_effective_spacing():
    e1 = arrays.effective_spacing(0.032, 1.0e9)
    e2 = arrays.effective_spacing(0.032, 2.5e9)
    assert e1 == pytest.approx(0.1067, abs=1e-4)
    assert e2 == pytest.approx(0.2668, abs=1e-4)
    assert e1 == pytest.approx(0.1, abs=0.02)
    assert e2 == pytest.approx(0.25, abs=0.02)
    # the 36 mm row-pitch values are a known deviation: validate reports
    # them as a note, never as a failure
    results = validation.check_effective_spacing()
    deviation = [r for r in results if r.note]
    assert len(deviation) == 1
    assert "0.1201" in deviation[0].detail and "0.3002" in deviation[0].detail
    assert all(r.passed for r in results if not r.note)
    report(3, f"32 mm pitch: {e1:.4f} / {e2:.4f} IF wavelengths (rounded "
              "references 0.1 / 0.25); 36 mm values reported as known "
              "deviation")


def test_04_signal_oracle_equivalence():
    start = time.perf_counter()
    result = validation.check_signal_oracle_equivalence(50)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 10.0
    report(4, f"{result.detail} ({elapsed:.2f} s)")


def test_05_array_oracle_equivalence():
    start = time.perf_counter()
    result = validation.check_array_oracle_equivalence()
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 30.0
    report(5, f"3 random layouts x 19 angles: {result.detail} "
              f"({elapsed:.2f} s)")


def test_06_row_rotation_compensation():
    result = validation.check_row_rotation_compensation()
    assert result.passed, result.detail
    report(6, f"180 deg feed flip on one row: {result.detail}")


def test_07_square_law_slope():
    result = validation.check_square_law_slope()
    assert result.passed, result.detail
    report(7, f"IF power over -60..-45 dBm input: {result.detail}")


def test_08_bias_optimum_existence():
    dense_scan, default_opt = validation.check_bias_optimum()
    # the default device is *fitted* to put its static optimum at 0.73 V;
    # that placement is a calibration, not a derived result
    assert dense_scan.passed, dense_scan.detail
    assert default_opt.passed, default_opt.detail
    report(8, f"{dense_scan.detail}; fitted default {default_opt.detail}")


def test_09_friis_anchors():
    # -43.4 / -39.5 dBm within 0.1 dB, and the hand-calculated lossless
    # 34 GHz case, 0 dBm + 25 dB + 20*log10((c0/34e9) / (6*pi)) = -41.6 dBm,
    # within 0.05 dB
    result = validation.check_friis_anchors()
    assert result.passed, result.detail
    report(9, f"receive power anchors: {result.detail}")


def test_10_high_power_bias_insensitivity():
    # the rectifier-dominated regime needs roughly +13 dBm available at the
    # diode; a 35 dB front-end gain puts the -20 dBm input there (the
    # physical chain's matching network performs that step-up implicitly):
    # spread < 3 dB at -20 dBm, > 10 dB at -50 dBm
    result = validation.check_bias_insensitivity()
    assert result.passed, result.detail
    report(10, result.detail)
