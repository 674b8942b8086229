"""Laurent-window regularization of sampled singular functions.

Given samples of I(s) on a grid in (0, s_R], the pipeline fits truncated
Laurent series over a matrix of exponent windows [n1, n2], prunes
principal-part coefficients that are small relative to a window average,
detects the pole order as the most singular exponent shared by a stable
sub-rectangle of windows, subtracts the leading singularity, refits, and
reads the regularized constant term c0 off the turning points of the
refit curves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

# Condition-number threshold above which a window fit is flagged.
COND_FLAG = 1e12

# Signed window averages below this fraction of the mean magnitude fall
# back to the mean of absolute values (cancellation guard).
AVERAGE_CANCEL_GUARD = 1e-3


class Spacing(enum.Enum):
    LINEAR = "linear"
    LOG = "log"


class FitError(ValueError):
    """Window regression failed (rank deficiency or infeasible window)."""


class DetectionError(ValueError):
    """No pole order is stable across any sub-matrix of at least 2 x 2 windows."""


class RegularizationError(RuntimeError):
    """Pipeline failure with the failing stage identified."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class SGrid:
    eps_s: float
    s_R: float
    J: int
    spacing: Spacing
    points: np.ndarray = field(repr=False, compare=False, default=None)

    def __len__(self) -> int:
        return self.J


def make_grid(eps_s: float, s_R: float, J: int = 200,
              spacing: Spacing | str = Spacing.LINEAR) -> SGrid:
    """Deterministic sampling grid on [eps_s, s_R], endpoints included."""
    if isinstance(spacing, str):
        spacing = Spacing(spacing.lower())
    if not eps_s > 0.0:
        raise ValueError(f"eps_s must be positive, got {eps_s}")
    if not s_R > eps_s:
        raise ValueError(f"s_R must exceed eps_s, got s_R={s_R}, eps_s={eps_s}")
    # Pipeline runs want J >= 16; the windows enforce their own feasibility
    # (J > coefficient count) at fit time, so small grids are permitted here.
    if J < 3:
        raise ValueError(f"grid needs at least 3 points, got {J}")
    if spacing is Spacing.LINEAR:
        pts = np.linspace(eps_s, s_R, J)
    else:
        pts = np.geomspace(eps_s, s_R, J)
    return SGrid(eps_s=eps_s, s_R=s_R, J=J, spacing=spacing, points=pts)


@dataclass(frozen=True)
class TruncatedLaurentFit:
    n1: int
    n2: int
    coeffs: Mapping[int, float]
    rms_residual: float
    cond: float

    @property
    def ill_conditioned(self) -> bool:
        return self.cond > COND_FLAG


@dataclass(frozen=True)
class FitMatrix:
    entries: Mapping[tuple[int, int], TruncatedLaurentFit]
    N1: int
    N2: int
    s: np.ndarray = field(repr=False, compare=False)
    I: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class PruneReport:
    eps_c: float
    kept: frozenset[tuple[int, int, int]]      # (n, n1, n2)
    dropped: frozenset[tuple[int, int, int]]
    averages: Mapping[tuple[int, int, int], float]
    N1: int
    N2: int


@dataclass(frozen=True)
class RegularizationResult:
    pole_order: int
    c_minus: float                               # mean of the per-n2 leading coefficients
    c_minus_by_window: Mapping[int, float]       # n2 -> C(pole_order, n2)
    curves: Mapping[int, list[tuple[int, float]]]
    turning_values: Mapping[int, float]
    c0: float
    diagnostics: Mapping[str, object]
    matrix: FitMatrix = field(repr=False)        # the window fits the pole was read from


@dataclass(frozen=True)
class LaurentParams:
    N1: int = -6
    N2: int = 9
    eps_c: float = 1e-3

    def __post_init__(self) -> None:
        if self.N1 >= -1:
            raise ValueError(f"N1 must be <= -2, got {self.N1}")
        if self.N2 <= 1:
            raise ValueError(f"N2 must be >= 2, got {self.N2}")
        if not 0.0 <= self.eps_c < 1.0:
            raise ValueError(f"eps_c must lie in [0,1), got {self.eps_c}")


def _extract(samples) -> tuple[np.ndarray, np.ndarray]:
    """Accept (s, I) arrays, an (J, 2) array, or a list of IntegralSample."""
    if isinstance(samples, tuple) and len(samples) == 2:
        s, I = np.asarray(samples[0], dtype=float), np.asarray(samples[1], dtype=float)
    elif hasattr(samples, "ndim"):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("array samples must have shape (J, 2)")
        s, I = arr[:, 0], arr[:, 1]
    else:
        s = np.array([p.s for p in samples], dtype=float)
        I = np.array([p.value for p in samples], dtype=float)
    if s.shape != I.shape or s.ndim != 1:
        raise ValueError("sample abscissae and values must be 1-D and congruent")
    if np.any(s <= 0.0):
        raise ValueError("all sample points must be positive")
    return s, I


def fit_window(samples, n1: int, n2: int) -> TruncatedLaurentFit:
    """Least-squares fit of sum_{n=n1}^{n2} c_n s^n to the samples.

    Basis columns are norm-equilibrated before solving; the condition
    estimate of the equilibrated system is reported on the fit.
    """
    if n1 >= n2:
        raise FitError(f"window requires n1 < n2, got ({n1}, {n2})")
    s, I = _extract(samples)
    ncoef = n2 - n1 + 1
    if len(s) <= ncoef:
        raise FitError(f"{len(s)} samples cannot determine {ncoef} coefficients")
    powers = np.arange(n1, n2 + 1)
    design = s[:, None] ** powers[None, :]
    rhs = I.astype(float)
    norms = np.linalg.norm(design, axis=0)
    if np.any(norms == 0.0):
        raise FitError("degenerate basis column")
    coef_scaled, _, rank, sv = np.linalg.lstsq(design / norms, rhs, rcond=None)
    if rank < ncoef:
        raise FitError(f"rank-deficient window ({n1}, {n2}): rank {rank} < {ncoef}")
    coef = coef_scaled / norms
    resid = design @ coef - rhs
    rms = float(np.sqrt(np.mean(resid**2)))
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else math.inf
    return TruncatedLaurentFit(
        n1=int(n1), n2=int(n2),
        coeffs={int(n): float(c) for n, c in zip(powers, coef)},
        rms_residual=rms, cond=cond)


def build_matrix(samples, N1: int = -6, N2: int = 9) -> FitMatrix:
    """Complete rectangle of window fits: N1 < n1 <= -1, 1 <= n2 < N2."""
    s, I = _extract(samples)
    entries: dict[tuple[int, int], TruncatedLaurentFit] = {}
    for n1 in range(N1 + 1, 0):
        for n2 in range(1, N2):
            entries[(n1, n2)] = fit_window((s, I), n1, n2)
    return FitMatrix(entries=entries, N1=int(N1), N2=int(N2), s=s, I=I)


def _peer_average(fit: TruncatedLaurentFit, n1: int, n: int) -> float:
    """M_n: |sum of the window's own principal coefficients| / |n|."""
    own = [fit.coeffs[j] for j in range(n1, 0)]
    signed = abs(sum(own)) / abs(n)
    mean_abs = float(np.mean([abs(c) for c in own]))
    if signed < AVERAGE_CANCEL_GUARD * mean_abs:
        return mean_abs
    return signed


def prune(matrix: FitMatrix, eps_c: float = 1e-3) -> PruneReport:
    """Classify every principal-part coefficient by the ratio test |c_n|/M_n > eps_c."""
    if eps_c < 0.0:
        raise ValueError(f"eps_c must be non-negative, got {eps_c}")
    kept: set[tuple[int, int, int]] = set()
    dropped: set[tuple[int, int, int]] = set()
    averages: dict[tuple[int, int, int], float] = {}
    for (n1, n2), fit in matrix.entries.items():
        for n in range(n1, 0):
            m = _peer_average(fit, n1, n)
            averages[(n, n1, n2)] = m
            if m == 0.0:
                dropped.add((n, n1, n2))
            elif abs(fit.coeffs[n]) / m > eps_c:
                kept.add((n, n1, n2))
            else:
                dropped.add((n, n1, n2))
    return PruneReport(eps_c=eps_c, kept=frozenset(kept), dropped=frozenset(dropped),
                       averages=averages, N1=matrix.N1, N2=matrix.N2)


def _most_singular_kept(report: PruneReport) -> dict[tuple[int, int], int | None]:
    msk: dict[tuple[int, int], int | None] = {}
    for n1 in range(report.N1 + 1, 0):
        for n2 in range(1, report.N2):
            ks = [n for (n, w1, w2) in report.kept if (w1, w2) == (n1, n2)]
            msk[(n1, n2)] = min(ks) if ks else None
    return msk


def detect_pole_order(report: PruneReport) -> tuple[int, frozenset[tuple[int, int]]]:
    """Pole order N and the largest window rectangle agreeing on it.

    The rectangle must span at least 2 x 2 windows; area ties break toward
    the more singular exponent.
    """
    msk = _most_singular_kept(report)
    rows = list(range(report.N1 + 1, 0))
    cols = list(range(1, report.N2))
    labels = sorted({v for v in msk.values() if v is not None})
    best_key: tuple[int, int] | None = None
    best: tuple[int, frozenset[tuple[int, int]]] | None = None
    for lab in labels:
        for i0 in range(len(rows)):
            for i1 in range(i0, len(rows)):
                for j0 in range(len(cols)):
                    for j1 in range(j0, len(cols)):
                        nr, nc = i1 - i0 + 1, j1 - j0 + 1
                        if nr < 2 or nc < 2:
                            continue
                        cells = [(rows[i], cols[j])
                                 for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]
                        if all(msk[cell] == lab for cell in cells):
                            key = (nr * nc, -lab)
                            if best_key is None or key > best_key:
                                best_key = key
                                best = (lab, frozenset(cells))
    if best is None:
        raise DetectionError("no pole order is stable across any 2 x 2 window rectangle")
    return best


def subtract_and_refit(samples, N: int, matrix: FitMatrix, N2: int | None = None
                       ) -> dict[int, list[tuple[int, float]]]:
    """For each n2: subtract C(N, n2) s^N from the data and refit [N, nhat2].

    Returns curves: n2 -> [(nhat2, c0hat)] for nhat2 in [1, N2-1].
    """
    s, I = _extract(samples)
    if N2 is None:
        N2 = matrix.N2
    curves: dict[int, list[tuple[int, float]]] = {}
    for n2 in range(1, N2):
        c_lead = matrix.entries[(N, n2)].coeffs[N]
        reduced = I - c_lead * s**float(N)
        pts: list[tuple[int, float]] = []
        for nhat2 in range(1, N2):
            refit = fit_window((s, reduced), N, nhat2)
            pts.append((nhat2, refit.coeffs[0]))
        curves[n2] = pts
    return curves


def turning_point(curve: Sequence) -> float:
    """Ordinate of the first interior sign change of the discrete differences;
    for monotone curves, the ordinate after the smallest absolute step."""
    ys = np.array([p[1] if isinstance(p, (tuple, list)) else p for p in curve],
                  dtype=float)
    if len(ys) < 3:
        raise ValueError(f"turning_point needs >= 3 points, got {len(ys)}")
    d = np.diff(ys)
    for i in range(1, len(d)):
        if d[i - 1] * d[i] <= 0.0:
            return float(ys[i])
    i = int(np.argmin(np.abs(d)))
    return float(ys[i + 1])


def regularize(samples, params: LaurentParams | None = None) -> RegularizationResult:
    """Full pipeline: matrix -> prune -> pole detection -> subtract/refit -> c0."""
    params = params or LaurentParams()
    s, I = _extract(samples)

    try:
        matrix = build_matrix((s, I), params.N1, params.N2)
    except (FitError, ValueError) as exc:
        raise RegularizationError("fit", str(exc)) from exc
    try:
        report = prune(matrix, params.eps_c)
    except ValueError as exc:
        raise RegularizationError("prune", str(exc)) from exc
    try:
        pole, rectangle = detect_pole_order(report)
    except DetectionError as exc:
        raise RegularizationError("detect", str(exc)) from exc
    try:
        curves = subtract_and_refit((s, I), pole, matrix, params.N2)
    except FitError as exc:
        raise RegularizationError("refit", str(exc)) from exc

    turning = {n2: turning_point(curve) for n2, curve in curves.items()}
    tvals = np.array(list(turning.values()), dtype=float)
    c0 = float(np.mean(tvals))
    c_by_window = {n2: matrix.entries[(pole, n2)].coeffs[pole]
                   for n2 in range(1, params.N2)}
    flagged = sorted(w for w, fit in matrix.entries.items() if fit.ill_conditioned)
    diagnostics = {
        "spread": float(tvals.max() - tvals.min()),
        "rectangle": sorted(rectangle),
        "flagged_windows": flagged,
        "eps_c": params.eps_c,
    }
    return RegularizationResult(
        pole_order=int(pole),
        c_minus=float(np.mean(list(c_by_window.values()))),
        c_minus_by_window=c_by_window,
        curves=curves,
        turning_values=turning,
        c0=c0,
        diagnostics=diagnostics,
        matrix=matrix)
