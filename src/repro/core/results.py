"""Result containers of the reproduction experiments.

Each experiment (one per paper figure) returns a dataclass from this module
so that examples, tests and benchmarks consume the same structured output and
print the same rows the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.compare import CurveComparison


@dataclass
class NmosExperimentResult:
    """Section 3 / Figure 3: substrate-noise impact on the RF NMOS."""

    bias: np.ndarray                        #: gate/drain bias sweep (V)
    transfer_db: np.ndarray                 #: simulated substrate->output transfer (dB)
    reference_db: np.ndarray                #: reconstructed measured transfer (dB)
    comparison: CurveComparison
    substrate_division: float               #: v_backgate / v_SUB with real ground wire
    substrate_division_ideal_ground: float  #: same with an ideal (0 ohm) ground wire
    gmb: np.ndarray                         #: back-gate transconductance per bias (S)
    gds: np.ndarray                         #: output conductance per bias (S)
    crossover_frequencies: np.ndarray       #: junction-cap crossover per bias (Hz)
    ground_wire_resistance: float           #: extracted ground interconnect resistance (ohm)

    @property
    def division_increase_factor(self) -> float:
        """How much the ground-wire resistance increases the back-gate division."""
        if self.substrate_division_ideal_ground == 0:
            return float("inf")
        return self.substrate_division / self.substrate_division_ideal_ground

    def rows(self) -> list[dict[str, float]]:
        """Figure-3 style rows: bias, measured and simulated transfer."""
        return [
            {"bias_v": float(b), "reference_db": float(r), "simulated_db": float(s)}
            for b, r, s in zip(self.bias, self.reference_db, self.transfer_db)
        ]


@dataclass
class VcoSpurSweepResult:
    """Figure 8: total spur power versus noise frequency, per tuning voltage."""

    noise_frequencies: np.ndarray
    vtune_values: tuple[float, ...]
    #: vtune -> array of total spur power (dBm) per noise frequency
    spur_power_dbm: dict[float, np.ndarray]
    #: vtune -> reference (reconstructed measurement) curve (dBm)
    reference_dbm: dict[float, np.ndarray]
    #: vtune -> CurveComparison against the reference
    comparisons: dict[float, CurveComparison]
    carrier_frequencies: dict[float, float]
    carrier_amplitudes: dict[float, float]

    def slope_db_per_decade(self, vtune: float) -> float:
        from ..analysis.compare import slope_per_decade

        return slope_per_decade(self.noise_frequencies, self.spur_power_dbm[vtune])

    def rows(self) -> list[dict[str, float]]:
        rows = []
        for vtune in self.vtune_values:
            for f, p, r in zip(self.noise_frequencies,
                               self.spur_power_dbm[vtune],
                               self.reference_dbm[vtune]):
                rows.append({"vtune_v": float(vtune),
                             "noise_frequency_hz": float(f),
                             "simulated_dbm": float(p),
                             "reference_dbm": float(r)})
        return rows


@dataclass
class ContributionResult:
    """Figure 9: per-entry contribution to the total spur power."""

    vtune: float
    noise_frequencies: np.ndarray
    #: entry name -> spur power contribution (dBm) per noise frequency
    contributions_dbm: dict[str, np.ndarray]
    total_dbm: np.ndarray
    #: entry name -> fitted slope in dB/decade
    slopes: dict[str, float] = field(default_factory=dict)
    #: entry name -> classified mechanism string
    mechanisms: dict[str, str] = field(default_factory=dict)

    def dominant_entry(self) -> str:
        """Entry with the highest average contribution."""
        averages = {name: float(np.mean(level))
                    for name, level in self.contributions_dbm.items()}
        return max(averages, key=averages.get)

    def gap_db(self, entry_a: str, entry_b: str) -> float:
        """Average level difference between two entries (positive if a > b)."""
        return float(np.mean(self.contributions_dbm[entry_a]
                             - self.contributions_dbm[entry_b]))

    def rows(self) -> list[dict[str, float | str]]:
        rows: list[dict[str, float | str]] = []
        for name, level in self.contributions_dbm.items():
            for f, p in zip(self.noise_frequencies, level):
                rows.append({"entry": name, "noise_frequency_hz": float(f),
                             "contribution_dbm": float(p)})
        return rows


@dataclass
class DesignStudyResult:
    """Figure 10: impact versus ground-interconnect resistance."""

    noise_frequencies: np.ndarray
    nominal_dbm: np.ndarray
    improved_dbm: np.ndarray
    nominal_ground_resistance: float
    improved_ground_resistance: float
    predicted_reduction_db: float        #: mean reduction over the sweep
    ideal_reduction_db: float            #: 20*log10(R_nominal / R_improved)

    def rows(self) -> list[dict[str, float]]:
        return [
            {"noise_frequency_hz": float(f), "nominal_dbm": float(a),
             "improved_dbm": float(b), "reduction_db": float(a - b)}
            for f, a, b in zip(self.noise_frequencies, self.nominal_dbm,
                               self.improved_dbm)
        ]


@dataclass
class MechanismReport:
    """Section 5: classification of coupling and modulation mechanisms."""

    slopes_db_per_decade: dict[str, float]
    mechanisms: dict[str, str]
    dominant_entry: str
    dominant_mechanism: str
