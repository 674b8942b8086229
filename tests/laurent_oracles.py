"""Test-only reference route for the Laurent read-off.

The paper subtracts the leading singularity once per window column n2 and
reads one refit curve per n2.  The subtracted term C(N, n2) s^N lies in every
refit window [N, nhat2], so by linearity of least squares each refit has the
constant term of the matrix window (N, nhat2) in exact arithmetic;
`regularize` reads its curve off those windows and refits nothing.  This
module keeps the per-n2 route, built on `fit_window`, so the tests can check
that claim, `turning_point`, the pipeline's turning rule on a bare curve,
and `prune_by_window`, the pruning rule one window and one coefficient at a
time, which `prune` must match exactly.
"""

from typing import Sequence

import numpy as np

from casimir_laurent.laurent import (AVERAGE_CANCEL_GUARD, FitMatrix, PruneReport, _turning,
                                     fit_window)


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


def prune_by_window(matrix: FitMatrix, eps_c: float) -> PruneReport:
    """`prune`, window by window: M_n from the builtin sum and np.mean of the
    window's own principal coefficients, then the ratio test per coefficient."""
    kept: set[tuple[int, int, int]] = set()
    averages: dict[tuple[int, int, int], float] = {}
    for (n1, n2), fit in matrix.entries.items():
        own = [fit.coeffs[j] for j in range(n1, 0)]
        total = abs(sum(own))
        mean_abs = float(np.mean([abs(c) for c in own]))
        for n in range(n1, 0):
            signed = total / abs(n)
            m = mean_abs if signed < AVERAGE_CANCEL_GUARD * mean_abs else signed
            averages[(n, n1, n2)] = m
            if m > 0.0 and abs(fit.coeffs[n]) / m > eps_c:
                kept.add((n, n1, n2))
    return PruneReport(kept=frozenset(kept), averages=averages, N1=matrix.N1, N2=matrix.N2)
