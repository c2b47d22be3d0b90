"""Self-mixing (square-law) receive arrays.

A receiver that multiplies its input by itself needs no local oscillator: a
two-tone signal at ``f1`` and ``f2`` down-converts to ``|f1 - f2|`` in the
detector. When every element of an array does this and the IF outputs are
combined, the per-element phase is set by the tone *difference* frequency,
so sparse layouts keep near-full array gain over a wide angular range where
a conventional RF combiner would show grating lobes.

The package provides:

* :mod:`selfmix.signals` -- batched tone synthesis, DFT bin reads and
  sampling plans on plain arrays;
* :mod:`selfmix.diode` -- Shockley-plus-series-resistance detector model,
  bias-point analysis and time-domain mixing sweeps;
* :mod:`selfmix.arrays` -- array geometry, IF / RF array factors and
  effective element spacing;
* :mod:`selfmix.patterns` -- pattern cuts, the ``cos_q`` and ``two_beam``
  element patterns, self-mixing pattern products, beamwidth and lobe
  metrics;
* :mod:`selfmix.linkbudget` -- Friis estimates and receive-chain power
  accounting;
* :mod:`selfmix.cli` -- the ``selfmix`` command-line front end;
* :mod:`selfmix.validation` -- the self-check battery behind
  ``selfmix validate`` and the brute-force routes its checks run.
"""

__version__ = "0.1.0"
