"""Laurent-window regularization of sampled singular functions.

Given samples of I(s) on a grid in (0, s_R], the pipeline fits truncated
Laurent series over a matrix of exponent windows [n1, n2], prunes
principal-part coefficients that are small relative to a window average,
detects the pole order N as the most singular exponent shared by a stable
sub-rectangle of windows, and reads the regularized constant term c0 off the
turning point of the constant terms of windows (N, nhat2), which the paper's
subtract-and-refit route (`subtract_and_refit`) gives in exact arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Mapping

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
    if not math.isfinite(s_R):     # eps_s < s_R, so eps_s is finite too
        raise ValueError(f"s_R must be finite, got {s_R}")
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
class _PowerTable:
    """Basis columns s**n for n = n_lo, n_lo+1, ..., their norms, and the
    norm-equilibrated columns; every window fit slices these."""
    n_lo: int
    table: np.ndarray
    norms: np.ndarray
    scaled: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray, n_lo: int, n_hi: int) -> "_PowerTable":
        """Raises FitError where a column's norm overflows or underflows."""
        with np.errstate(over="ignore"):   # an inf column or norm is reported below
            table = s[:, None] ** np.arange(n_lo, n_hi + 1)[None, :]
            norms = np.linalg.norm(table, axis=0)
        bad = np.flatnonzero(~(np.isfinite(norms) & (norms > 0.0)))
        if bad.size:
            raise FitError(f"basis column s^{n_lo + bad[0]} has norm {norms[bad[0]]:g} "
                           f"on the grid [{s.min():g}, {s.max():g}]: the monomials "
                           f"cannot represent it in doubles")
        return cls(n_lo=int(n_lo), table=table, norms=norms, scaled=table / norms)

    def fit_row(self, rhs: np.ndarray, n1: int, n2s: Iterable[int]
                ) -> list[TruncatedLaurentFit]:
        """Least-squares fits of sum_{n=n1}^{n2} c_n s^n to rhs, one solve per
        n2 of n2s, in that order.

        The rhs component along the unit first column s^n1 bypasses the
        solves and their roundoff; the row shares it, so each window's fit
        has the bits of that window fitted alone.  Beside the solves, the
        row is worked as arrays of its windows: every operation is
        elementwise or, for the residual sums, a reduction along each
        window's own contiguous row, so each value has the bits of a lone
        window's.
        """
        n1, M = int(n1), len(rhs)
        lo = n1 - self.n_lo
        # np.sum, not a BLAS dot, whose bits depend on strides
        lead_col = self.scaled[:, lo]
        lead = np.sum(lead_col * rhs)
        reduced = rhs - lead * lead_col
        n2s = [int(n2) for n2 in n2s]
        sizes = [n2 - n1 + 1 for n2 in n2s]
        # row j: window j's scaled coefficients, zero-padded; ends[j]: the
        # largest and smallest singular values of its equilibrated basis
        coef = np.zeros((len(n2s), max(sizes, default=0)))
        ends = np.empty((len(n2s), 2))
        for j, (n2, ncoef) in enumerate(zip(n2s, sizes)):
            if M <= ncoef:
                raise FitError(f"{M} samples cannot determine {ncoef} coefficients")
            # checked at each solve, so that a rank-deficient window stops the
            # row before a later window is solved, as it stops a lone fit
            coef[j, :ncoef], _, rank, sv = np.linalg.lstsq(
                self.scaled[:, lo:lo + ncoef], reduced, rcond=None)
            if rank < ncoef:
                raise FitError(f"rank-deficient window ({n1}, {n2}): rank {rank} < {ncoef}")
            ends[j] = sv[0], sv[-1]
        coef[:, 0] += lead
        coef /= self.norms[lo:lo + coef.shape[1]]
        # each window's fitted values by a matrix-vector product on a
        # C-contiguous copy of its columns, as a lone fit forms them
        resid = np.empty((len(n2s), M))
        for j, ncoef in enumerate(sizes):
            np.matmul(np.ascontiguousarray(self.table[:, lo:lo + ncoef]), coef[j, :ncoef],
                      out=resid[j])
        resid -= rhs
        rms = np.sqrt(np.sum(np.square(resid, out=resid), axis=-1) / M)
        cond = np.divide(ends[:, 0], ends[:, 1], out=np.full(len(n2s), math.inf),
                         where=ends[:, 1] > 0.0)
        return [TruncatedLaurentFit(n1=n1, n2=n2, coeffs=dict(zip(range(n1, n2 + 1), c)),
                                    rms_residual=r, cond=k)
                for n2, c, r, k in zip(n2s, coef.tolist(), rms.tolist(), cond.tolist())]


@dataclass(frozen=True)
class FitMatrix:
    entries: Mapping[tuple[int, int], TruncatedLaurentFit]
    N1: int
    N2: int
    s: np.ndarray = field(repr=False, compare=False)
    I: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class PruneReport:
    kept: frozenset[tuple[int, int, int]]      # (n, n1, n2); the rest are dropped
    averages: Mapping[tuple[int, int, int], float]
    N1: int
    N2: int


@dataclass(frozen=True)
class RegularizationResult:
    pole_order: int
    c_minus: float                               # mean of the per-n2 leading coefficients
    curve: list[tuple[int, float]]               # (nhat2, c0hat of window (pole_order, nhat2))
    c0: float
    diagnostics: Mapping[str, object]
    matrix: FitMatrix = field(repr=False)        # the window fits the pole was read from


@dataclass(frozen=True)
class LaurentParams:
    N1: int = -6
    N2: int = 9
    eps_c: float = 1e-3

    def __post_init__(self) -> None:
        # pole detection needs two window rows (N1 <= -3), and the turning
        # point three windows in the pole's row (N2 >= 4)
        if self.N1 >= -2:
            raise ValueError(f"N1 must be <= -3, got {self.N1}")
        if self.N2 <= 3:
            raise ValueError(f"N2 must be >= 4, got {self.N2}")
        if not 0.0 <= self.eps_c < 1.0:
            raise ValueError(f"eps_c must lie in [0,1), got {self.eps_c}")


def _extract(samples) -> tuple[np.ndarray, np.ndarray]:
    """Accept an (s, I) pair of arrays or a list of IntegralSample."""
    if isinstance(samples, tuple) and len(samples) == 2:
        s, I = np.asarray(samples[0], dtype=float), np.asarray(samples[1], dtype=float)
    else:
        try:
            s = np.array([p.s for p in samples], dtype=float)
            I = np.array([p.value for p in samples], dtype=float)
        except AttributeError:
            raise ValueError("samples must be an (s, I) pair or IntegralSamples") from None
    if s.shape != I.shape or s.ndim != 1:
        raise ValueError("sample abscissae and values must be 1-D and congruent")
    if not s.size:
        raise ValueError("no samples: a fit needs at least one sample point")
    bad = np.flatnonzero(~(np.isfinite(s) & np.isfinite(I)))
    if bad.size:
        j = bad[0]
        raise ValueError(f"sample {j} is not finite: s={s[j]}, I={I[j]}")
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
    [fit] = _PowerTable.of(s, n1, n2).fit_row(I, n1, [n2])
    return fit


def build_matrix(samples, N1: int = LaurentParams.N1, N2: int = LaurentParams.N2) -> FitMatrix:
    """Complete rectangle of window fits: N1 < n1 <= -1, 1 <= n2 < N2."""
    s, I = _extract(samples)
    powers = _PowerTable.of(s, N1 + 1, N2 - 1)
    entries = {(fit.n1, fit.n2): fit for n1 in range(N1 + 1, 0)
               for fit in powers.fit_row(I, n1, range(1, N2))}
    return FitMatrix(entries=entries, N1=int(N1), N2=int(N2), s=s, I=I)


def prune(matrix: FitMatrix, eps_c: float = LaurentParams.eps_c) -> PruneReport:
    """Keep every principal-part coefficient that passes the ratio test
    |c_n|/M_n > eps_c; a zero M_n drops its coefficients.

    M_n is |sum of the window's own principal coefficients| / |n|, or their
    mean magnitude where the signed sum cancels below AVERAGE_CANCEL_GUARD.
    Each window row is worked as one array with a row per window: the signed
    sums are the builtin sum of each window's coefficients in exponent order
    and the means np.mean along each array row, so every M_n has the bits of
    its window taken alone.
    """
    if eps_c < 0.0:
        raise ValueError(f"eps_c must be non-negative, got {eps_c}")
    rows: dict[int, list[int]] = {}
    for n1, n2 in matrix.entries:
        rows.setdefault(n1, []).append(n2)
    kept: set[tuple[int, int, int]] = set()
    averages: dict[tuple[int, int, int], float] = {}
    for n1, n2s in rows.items():
        own = [[matrix.entries[(n1, n2)].coeffs[n] for n in range(n1, 0)] for n2 in n2s]
        magnitude = np.abs(own)
        total = np.array([abs(sum(c)) for c in own])
        mean_abs = np.mean(magnitude, axis=-1)[:, None]
        signed = total[:, None] / np.arange(-n1, 0, -1)
        m = np.where(signed < AVERAGE_CANCEL_GUARD * mean_abs, mean_abs, signed)
        ratio = np.divide(magnitude, m, out=np.zeros(m.shape), where=m > 0.0)
        keys = [(n, n1, n2) for n2 in n2s for n in range(n1, 0)]
        averages.update(zip(keys, m.ravel().tolist()))
        kept.update(compress(keys, (ratio > eps_c).ravel().tolist()))
    return PruneReport(kept=frozenset(kept), averages=averages, N1=matrix.N1, N2=matrix.N2)


def detect_pole_order(report: PruneReport) -> tuple[int, frozenset[tuple[int, int]]]:
    """Pole order N and the largest window rectangle agreeing on it.

    The rectangle must span at least 2 x 2 windows; area ties break toward
    the more singular exponent, then toward the first rectangle in the scan
    order (row start, row end, column start, column end).
    """
    rows = range(report.N1 + 1, 0)
    cols = range(1, report.N2)
    # grid[i][j]: the most singular exponent window (rows[i], cols[j]) keeps,
    # 0 (above every principal-part exponent) where it keeps none
    grid = [[0] * len(cols) for _ in rows]
    for n, n1, n2 in report.kept:
        row = grid[n1 - rows.start]
        row[n2 - 1] = min(row[n2 - 1], n)
    grid = np.array(grid, dtype=int)
    labels = np.unique(grid[grid < 0])
    if not labels.size:
        raise DetectionError("no pole order is stable across any 2 x 2 window rectangle")
    # prefix[l, i, j]: windows labelled labels[l] among the first i rows and j columns
    prefix = np.zeros((len(labels), len(rows) + 1, len(cols) + 1), dtype=int)
    prefix[:, 1:, 1:] = (grid == labels[:, None, None]).cumsum(1).cumsum(2)
    # count[l, i0, i1, j0, j1]: windows labelled labels[l] in rows i0..i1, columns j0..j1
    ri, ci = np.arange(len(rows)), np.arange(len(cols))
    band = prefix[:, ri[None, :] + 1] - prefix[:, ri[:, None]]
    count = band[..., ci[None, :] + 1] - band[..., ci[:, None]]
    nr, nc = (ri[None, :] - ri[:, None] + 1)[:, :, None, None], ci[None, :] - ci[:, None] + 1
    area = nr * nc
    uniform = (count == area) & (nr >= 2) & (nc >= 2)
    # argmax takes the first maximum in C order: the largest area, then the
    # smallest label, then the first rectangle in scan order
    best = np.unravel_index(np.argmax(np.where(uniform, area, 0)), uniform.shape)
    if not uniform[best]:
        raise DetectionError("no pole order is stable across any 2 x 2 window rectangle")
    lab, b_i0, b_i1, b_j0, b_j1 = (int(k) for k in best)
    cells = frozenset((rows[i], cols[j])
                      for i in range(b_i0, b_i1 + 1) for j in range(b_j0, b_j1 + 1))
    return int(labels[lab]), cells


def subtract_and_refit(matrix: FitMatrix, N: int, c_lead: float) -> list[tuple[int, float]]:
    """Subtract c_lead s^N from the matrix's samples and refit [N, nhat2].

    Returns the refit curve [(nhat2, c0hat)] for nhat2 in [1, N2-1]: the
    paper's route to the curve `regularize` reads off the matrix windows
    (N, nhat2), equal to it in exact arithmetic.
    """
    reduced = matrix.I - c_lead * matrix.s**float(N)
    powers = _PowerTable.of(matrix.s, N, matrix.N2 - 1)
    return [(fit.n2, fit.coeffs[0]) for fit in powers.fit_row(reduced, N, range(1, matrix.N2))]


def _turning(ys: np.ndarray) -> tuple[int, bool]:
    """Index of the turning ordinate, and whether the differences changed sign
    there (False: the fallback after the smallest absolute step)."""
    if len(ys) < 3:
        raise ValueError(f"a turning point needs >= 3 points, got {len(ys)}")
    d = np.diff(ys)
    for i in range(1, len(d)):
        if d[i - 1] * d[i] <= 0.0:
            return i, True
    return int(np.argmin(np.abs(d))) + 1, False


def regularize(samples, params: LaurentParams | None = None) -> RegularizationResult:
    """Full pipeline: matrix -> prune -> pole detection -> c0, read off the
    constant terms of windows (N, nhat2); c_minus is reported, not used."""
    params = params or LaurentParams()
    try:
        matrix = build_matrix(samples, params.N1, params.N2)
    except ValueError as exc:    # FitError, and samples _extract rejects
        raise RegularizationError("fit", str(exc)) from exc
    report = prune(matrix, params.eps_c)
    try:
        pole, rectangle = detect_pole_order(report)
    except DetectionError as exc:
        raise RegularizationError("detect", str(exc)) from exc
    c_minus = float(np.mean([matrix.entries[(pole, n2)].coeffs[pole]
                             for n2 in range(1, params.N2)]))
    curve = [(n2, matrix.entries[(pole, n2)].coeffs[0]) for n2 in range(1, params.N2)]
    turn, sign_change = _turning(np.array([c0hat for _, c0hat in curve]))

    flagged = sorted(w for w, fit in matrix.entries.items() if fit.ill_conditioned)
    diagnostics = {
        "rectangle": sorted(rectangle),
        "flagged_windows": flagged,
        "turning_nhat2": curve[turn][0],
        "sign_change": sign_change,
    }
    return RegularizationResult(
        pole_order=int(pole),
        c_minus=c_minus,
        curve=curve,
        c0=float(curve[turn][1]),
        diagnostics=diagnostics,
        matrix=matrix)
