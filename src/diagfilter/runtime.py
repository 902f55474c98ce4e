"""Causal residual evaluation, windowed energy, and threshold detection.

The designed filter ``r = a(q)^{-1} N(q) L(q) y`` is proper (numerator and
denominator share one degree), so it runs over a recorded trajectory as a
difference equation:

    a_dn r[k] = sum_i (N_i L) y[k - dn + i] - sum_{i<dn} a_i r[k - dn + i]

with the samples before the trajectory taken as zero.  The first ``dn``
residual samples mix in those synthetic zeros and are flagged as warm-up;
detectors ignore them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import FilterDesign


class ResidualFilter:
    """Evaluator of a designed residual generator over whole trajectories."""

    def __init__(self, design: FilterDesign, l_matrix: np.ndarray):
        l_matrix = np.asarray(l_matrix, dtype=float)
        self.design = design
        self.d_n = design.d_n
        # row i: the output weights N_i L applied at lag dn - i
        self.weights = np.stack(
            [design.coeff(i) @ l_matrix for i in range(self.d_n + 1)]
        )
        self.a_coeffs = np.asarray(design.a_coeffs, dtype=float)
        self.n_y = l_matrix.shape[1]

    def run(self, Y: np.ndarray) -> np.ndarray:
        """Residuals for a full (n_y, T) trajectory from a zero state.

        Raises:
            ValueError: if ``Y`` does not have one row per output.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[0] != self.n_y:
            raise ValueError(f"expected {self.n_y} outputs, got {Y.shape[0]}")
        d_n = self.d_n
        a = self.a_coeffs
        # d_n zero samples of history precede the trajectory in both buffers
        proj = [np.zeros(d_n + 1)] * d_n
        res = [0.0] * d_n
        for k, y in enumerate(Y.T):
            p = self.weights @ np.ascontiguousarray(y)
            acc = p[d_n]
            for i in range(d_n):
                acc += proj[k + i][i] - a[i] * res[k + i]
            proj.append(p)
            res.append(acc / a[d_n])
        return np.array(res[d_n:], dtype=float)


def residual_energy(residuals: np.ndarray, window: int) -> np.ndarray:
    """Sliding root-sum-square of the residual over the trailing window.

    Sample c reports ``sqrt(sum of r[j]^2 for j in (c-window, c])`` with the
    pre-horizon part treated as zero, so early samples see a shorter
    effective window.
    """
    if window < 1:
        raise ValueError("window must be positive")
    r = np.asarray(residuals, dtype=float).ravel()
    sq = np.concatenate([[0.0], np.cumsum(r * r)])
    lo = np.maximum(np.arange(r.size) + 1 - window, 0)
    return np.sqrt(np.maximum(sq[1:] - sq[lo], 0.0))


@dataclass
class DetectionReport:
    """Alarm decisions over one residual stream.

    ``above`` is the per-sample decision: the energy exceeds the threshold
    and the sample is past the warm-up.  The latched ``alarm`` is raised at
    its first true sample, ``first_index``.
    """

    energies: np.ndarray
    above: np.ndarray
    alarm: bool
    first_index: int | None
    max_energy: float


@dataclass
class Detector:
    """Threshold test on the windowed residual energy.

    The alarm threshold is ``tau_star + margin`` where ``tau_star`` is the
    calibrated worst training energy.  Warm-up samples never raise alarms.
    """

    tau_star: float
    margin: float
    window: int
    warmup: int = 0

    @property
    def threshold(self) -> float:
        return self.tau_star + self.margin

    def evaluate(self, residuals: np.ndarray) -> DetectionReport:
        energies = residual_energy(residuals, self.window)
        above = energies > self.threshold
        if self.warmup > 0:
            above[: self.warmup] = False
        idx = np.nonzero(above)[0]
        first = int(idx[0]) if idx.size else None
        return DetectionReport(
            energies=energies,
            above=above,
            alarm=first is not None,
            first_index=first,
            max_energy=float(energies.max()) if energies.size else 0.0,
        )


def calibrate_threshold(
    design: FilterDesign, energies: list[float], margin: float, window: int
) -> Detector:
    """Detector calibrated on the training runs' filtered mismatch energies.

    ``energies`` holds each training run's energy ``nbar Q_i nbar'`` for this
    particular filter (:func:`~diagfilter.design.signature_energy`), and
    ``tau_star`` is the square root of the largest; an empty or all-zero
    training set (the pure model-based mode) calibrates to ``tau_star = 0``
    and the detector runs on the margin alone.
    """
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    tau = float(np.sqrt(max([0.0, *energies])))
    return Detector(tau_star=tau, margin=margin, window=window, warmup=design.d_n)
