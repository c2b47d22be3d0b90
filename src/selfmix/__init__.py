"""Self-mixing (square-law) receive arrays.

A receiver that multiplies its input by itself needs no local oscillator: a
two-tone signal at ``f1`` and ``f2`` down-converts to ``|f1 - f2|`` in the
detector. When every element of an array does this and the IF outputs are
combined, the per-element phase is set by the tone *difference* frequency,
so sparse layouts keep near-full array gain over a wide angular range where
a conventional RF combiner would show grating lobes.

The package provides:

* :mod:`selfmix.signals` -- tone synthesis, square-law mixing, brick-wall
  filtering, DFT tone extraction and spectrum self-convolution (the
  brute-force oracle everything else is checked against);
* :mod:`selfmix.diode` -- Shockley-plus-series-resistance detector model,
  bias-point analysis and time-domain mixing sweeps;
* :mod:`selfmix.arrays` -- array geometry, IF / RF array factors, effective
  element spacing, ideal combiner and a full time-domain array oracle;
* :mod:`selfmix.patterns` -- pattern cuts, self-mixing pattern products,
  beamwidth and lobe metrics;
* :mod:`selfmix.linkbudget` -- Friis estimates and receive-chain power
  accounting;
* :mod:`selfmix.cli` -- the ``selfmix`` command-line front end;
* :mod:`selfmix.validation` -- the self-check battery behind
  ``selfmix validate``.
"""

from .arrays import (
    ArrayGeometry,
    ArrayIfResult,
    Direction,
    TwoToneIllumination,
    combine_elements,
    cut_direction,
    cut_phase_count,
    effective_spacing,
    if_array_factor_cut,
    load_geometry,
    parse_geometry,
    rf_array_factor_cut,
    simulate_array_timedomain,
)
from .diode import (
    BiasPoint,
    ConversionResult,
    DiodeModel,
    GridSweep,
    MixingChain,
    bias_power_sweep,
    default_chain,
    default_diode,
    iv_derivatives,
    junction_current,
    mix_cells,
    optimal_bias_static,
    simulate_mixing,
    terminal_current,
)
from .linkbudget import (
    ChainSpec,
    LinkBudgetParams,
    calibrate_conversion_gain,
    chain_output_power,
    default_total_efficiency_db,
    friis_rx_power,
)
from .patterns import (
    AnalyticPattern,
    BeamwidthResult,
    PatternGrid,
    beamwidth_3db,
    find_lobes,
    read_pattern_csv,
    sample_pattern,
    self_mix_pattern,
    total_pattern,
    write_pattern_csv,
)
from .signals import (
    FilterSpec,
    SampledWaveform,
    Spectrum,
    ToneSpec,
    analytic_two_tone_products,
    apply_filter,
    dft_spectrum,
    plan_sampling,
    spectrum_self_convolution,
    square_law_mix,
    synthesize_waveform,
)
from .units import SPEED_OF_LIGHT

__version__ = "0.1.0"
