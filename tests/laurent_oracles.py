"""Test-only reference route for the Laurent read-off.

The paper subtracts the leading singularity once per window column n2 and
reads one refit curve per n2.  The subtracted term C(N, n2) s^N lies in every
refit window [N, nhat2], so by linearity of least squares each refit has the
constant term of the matrix window (N, nhat2) in exact arithmetic;
`regularize` reads its curve off those windows and refits nothing.  This
module keeps the per-n2 route, built on `fit_window`, so the tests can check
that claim, and `turning_point`, the pipeline's turning rule on a bare curve.
"""

from typing import Sequence

import numpy as np

from casimir_laurent.laurent import FitMatrix, _turning, fit_window


def turning_point(curve: Sequence) -> float:
    """Ordinate of the first interior sign change of the discrete differences;
    for monotone curves, the ordinate after the smallest absolute step.
    Accepts (nhat2, c0hat) pairs or bare ordinates."""
    ys = np.array([p[1] if isinstance(p, (tuple, list)) else p for p in curve],
                  dtype=float)
    return float(ys[_turning(ys)[0]])


def per_n2_curves(matrix: FitMatrix, N: int) -> dict[int, list[tuple[int, float]]]:
    """n2 -> [(nhat2, c0hat)]: subtract C(N, n2) s^N, the s^N coefficient of
    window (N, n2), and refit [N, nhat2] for nhat2 in [1, N2-1]."""
    s, I = matrix.s, matrix.I
    curves = {}
    for n2 in range(1, matrix.N2):
        reduced = I - matrix.entries[(N, n2)].coeffs[N] * s**float(N)
        curves[n2] = [(nhat2, fit_window((s, reduced), N, nhat2).coeffs[0])
                      for nhat2 in range(1, matrix.N2)]
    return curves


def per_n2_turning_values(result) -> dict[int, float]:
    """n2 -> turning value of that n2's refit curve, for a RegularizationResult."""
    return {n2: turning_point(curve)
            for n2, curve in per_n2_curves(result.matrix, result.pole_order).items()}
