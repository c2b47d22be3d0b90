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
* :mod:`selfmix.patterns` -- pattern cuts, the ``cos_q`` and ``two_beam``
  element patterns, self-mixing pattern products, beamwidth and lobe
  metrics;
* :mod:`selfmix.linkbudget` -- Friis estimates and receive-chain power
  accounting;
* :mod:`selfmix.cli` -- the ``selfmix`` command-line front end;
* :mod:`selfmix.validation` -- the self-check battery behind
  ``selfmix validate``.
"""

__version__ = "0.1.0"
