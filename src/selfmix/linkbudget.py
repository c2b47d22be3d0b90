"""Free-space link budget and receive-chain power accounting.

``friis_rx_power`` is the standard Friis estimate in dB form; the chain
helper tracks a two-tone signal through LNA, square-law conversion, combiner,
IF amplifier and cable. The square-law conversion stage obeys the product
rule: IF output power moves dB-for-dB with *each* tone, i.e. raising both
tones by x dB raises the IF by 2x dB. Its absolute level is an affine
constant that depends on the diode operating point, so it is calibrated once
against one cell of the time-domain mixer :func:`selfmix.diode.mix_cells`
at :data:`selfmix.diode.BIAS_VOLTAGE` rather than hard-coded.

Every term is a plain float argument in dB (or metres and hertz). A term
out of its range (a distance or frequency that is not positive, an
efficiency above 0 dB, a gain that is not finite) raises ``ValueError``;
a finite sum that leaves the float range raises ``OverflowError``.
"""

from __future__ import annotations

import math

from .diode import BIAS_VOLTAGE, MixingChain, mix_cells
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


def check_link(tx_power_dbm: float, tx_gain_db: float, distance_m: float,
               frequency_hz: float, rx_directivity_db: float = 0.0,
               total_efficiency_db: float = 0.0) -> None:
    """Raise ``ValueError`` for link terms :func:`friis_rx_power` cannot
    take, so that a caller can check every link before computing any."""
    if not distance_m > 0.0:
        raise ValueError("distance_m must be positive")
    if not frequency_hz > 0.0:
        raise ValueError("frequency_hz must be positive")
    if total_efficiency_db > 0.0:
        raise ValueError("total_efficiency_db must be <= 0")
    _check_finite(tx_power_dbm=tx_power_dbm, tx_gain_db=tx_gain_db,
                  rx_directivity_db=rx_directivity_db)


def friis_rx_power(tx_power_dbm: float, tx_gain_db: float, distance_m: float,
                   frequency_hz: float, rx_directivity_db: float = 0.0,
                   total_efficiency_db: float = 0.0) -> float:
    """Received power in dBm:

    ``P_rx = P_tx + G_tx + 20*log10(lambda / (4*pi*d)) + D_rx + eta_tot``
    with ``lambda = c0 / f``. Terms :func:`check_link` refuses raise
    ``ValueError``.
    """
    check_link(tx_power_dbm, tx_gain_db, distance_m, frequency_hz,
               rx_directivity_db, total_efficiency_db)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    path_db = 20.0 * math.log10(wavelength / (4.0 * math.pi * distance_m))
    return _finite_db(tx_power_dbm + tx_gain_db + path_db + rx_directivity_db
                      + total_efficiency_db, "received power")


def chain_output_power(p1_dbm: float, p2_dbm: float, lna_gain_db: float,
                       conversion_gain_db: float, combiner_gain_db: float = 0.0,
                       if_amp_gain_db: float = 0.0,
                       cable_loss_db: float = 0.0) -> float:
    """IF output power of the receive chain for two received tone powers.

    The conversion stage follows the product rule: ``P_if = (P1 + G_lna) +
    (P2 + G_lna) + K`` with ``K = conversion_gain_db``, so the output moves
    1 dB per dB of each tone. Combiner, IF amplifier and cable then apply
    as plain dB terms, each of which must be finite. Tones at the -200 dBm
    floor propagate the floor.
    """
    _check_finite(lna_gain_db=lna_gain_db,
                  conversion_gain_db=conversion_gain_db,
                  combiner_gain_db=combiner_gain_db,
                  if_amp_gain_db=if_amp_gain_db, cable_loss_db=cable_loss_db)
    if p1_dbm <= DB_FLOOR or p2_dbm <= DB_FLOOR:
        return DB_FLOOR
    mixed = (p1_dbm + lna_gain_db) + (p2_dbm + lna_gain_db) + conversion_gain_db
    out = mixed + combiner_gain_db + if_amp_gain_db - cable_loss_db
    return max(_finite_db(out, "IF output power"), DB_FLOOR)


def _check_finite(**terms: float) -> None:
    for name, value in terms.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _finite_db(value: float, name: str) -> float:
    """A sum of finite dB terms that left the float range is an overflow,
    not a power."""
    if not math.isfinite(value):
        raise OverflowError(f"{name} overflows the float range ({value} dB)")
    return value


def calibrate_conversion_gain(chain: MixingChain) -> float:
    """Conversion constant K of :func:`chain_output_power`, measured once
    against one :func:`mix_cells` cell at :data:`BIAS_VOLTAGE`, driven
    at 37.5 GHz / -55 dBm and 38.5 GHz / -60 dBm, low enough that
    higher-order products are negligible:

    ``K = P_if_sim - (P1 + G_lna) - (P2 + G_lna)``
    """
    p1, p2 = -55.0, -60.0
    drive = [dbm_to_amplitude(p, chain.source_impedance_ohms) for p in (p1, p2)]
    if_power_dbm = float(mix_cells(chain, [BIAS_VOLTAGE], [drive],
                                   (37.5e9, 38.5e9))[0][0])
    return (if_power_dbm - (p1 + chain.lna_gain_db)
            - (p2 + chain.lna_gain_db))


def default_total_efficiency_db(frequency_hz: float) -> float:
    """Default eta_tot for one of the reference tone frequencies."""
    for key, value in DEFAULT_TOTAL_EFFICIENCY_DB.items():
        if math.isclose(frequency_hz, key, rel_tol=1e-9):
            return value
    raise ValueError(f"no default total efficiency for {frequency_hz} Hz")
