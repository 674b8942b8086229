"""Controlled-accuracy evaluation of the damped semi-infinite mode integrals.

Produces I(s) samples for the regularization pipeline: the single vacuum
integral (which has the closed form Psi(3, s/2)/24 - 2/s^4) and the
dielectric double integrals over mode order nu and radial argument y.

The relative budget `rel_tol` is the one sampling setting: `None` means the
kind's default (1e-9 vacuum, 1e-7 dielectric, see :func:`resolve_rel_tol`).
The absolute floor ABS_TOL and the tail cut TAIL_TOL are fixed.

All use the 21-point Gauss-Kronrod rule `qk21` of QUADPACK (Piessens et
al., 1983).  A vacuum or TM batch is Int e^{-s r} F(r) dr over fixed panels
in the mode radius r that no grid moves (:func:`_fixed_panels`), so every s
shares one F and each sample's sums are whole-array products
(:func:`_laplace`).  F is (1/3) r^3 coth(r) for vacuum; F_TM
(:func:`_radial_tm`) is the TM double integral in polar coordinates of
(g, y), g = sqrt(nu^2 + 1), with the angle on fixed qk21 nodes.  The TE
integrals run on :func:`_adaptive_gk21`, a batched copy of QUADPACK's `qag`
driver: many integrals advance in lockstep, each bisecting its own
largest-error panel, with one integrand call per step for all of them.
Every step works row by row, so an integral's bits do not depend on what
else is in its batch.  The per-step cost beside the integrand is a few
whole-array operations: qk21's terms are whole-array products over
node-major rows, one element per panel, added to its four sums a row at a
time in QUADPACK's order, and the panel tables are one array, read and
written once per step, in place while every integral is active.  In a TE
batch (:func:`_batch`), one member per damping s, the outer nu integrals
advance together, and every nu node an outer step asks for, of every
member, starts an inner y integral, and those advance together as well.

:func:`sample_curve` is the one way in, one curve of one kind per call.
It checks the kind, sigma, every s and rel_tol before the first sample,
builds every sample and names every failure.  :func:`eval_I_dielectric` is
the batch of one, a one-point curve, as is :func:`eval_I_vacuum`.  A vacuum
or TM curve is one batch, and a TE curve is sampled in contiguous blocks of
at most MAX_CHUNK points, one batch each, in order (:func:`_curve`).  An
integral that fails, here or in a helper, raises only its index in its
batch and what went wrong (:class:`_Failed`); its name and its member are
added on the way out, where they are known.

On two or more CPUs (``os.sched_getaffinity``), where the platform can
fork, dielectric work goes to this process's team of forked helper
processes, one per CPU.  The team starts at the first dielectric call that
needs it, serves every later call and closes at interpreter exit
(:func:`_close_team`); a helper also ends when this process dies, on the
end of its pipe.  Every use of the team sends rows of work to the helpers
in interleaved parts, one part per helper (:func:`_split`): the points of a
TE curve of two or more points, the radii of F_TM, or each outer step's
inner y integrals of a lone TE point.  Vacuum batches stay in this
process.  A sample's value and error estimate are the same bits whatever
the CPU count, and so is a failure: where a part fails, the unsplit call
runs again in this process and raises what a one-CPU run raises.  A
failing TE curve is thus sampled again here up to its first failing
block.  ``taskset -c 0`` gives a serial run in this process, which starts
no other.  Helpers run the module state as it was when they were forked: a
module attribute changed later (a kernel or MAX_PANELS, say) reaches them
only once the team is closed and the next call forks a new one.

The dielectric integrand is y * dlog_cross weighted by the damping
exp(-s * sqrt(g^2 + y^2)) with g = nu (TE) or g = sqrt(nu^2 + 1) (TM):
the damping attaches to the mode radius.  That convention is fixed by the
vacuum limit, where the same polar weighting reproduces the closed form
above exactly; a separable e^{-s nu} e^{-s y} weighting does not (it
changes the pole order of I(s) from -4 to -3).
"""

from __future__ import annotations

import atexit
import math
import os
import signal
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import specfun
from .integrands import SpectrumKind, check_sigma, dlog_cross, vacuum_integrand

# Default relative budgets: the vacuum integral is cheap and feeds a
# 7-significant-figure comparison; the dielectric double integral is
# ~10^5 evaluations per sample point.
VACUUM_REL_TOL = 1e-9
DIELECTRIC_REL_TOL = 1e-7

# Panel limit of every integral, the absolute error floor of each, and the
# size of the e^{-s x} tail cut off at X(s).
MAX_PANELS = 200
ABS_TOL = 1e-14
TAIL_TOL = 1e-13

# The most points one TE batch holds, which bounds its memory.  Measured on a
# 2-CPU host, before TM samples took the fixed panels, the default 200-point
# TE + TM curves (three runs each) sampled in a median 19.5 s with chunks of
# 25 points, 20.3 s with 10 and 22.4 s with 100 (one chunk per process and
# kind, whose slower small-s half leaves a process idle at the end), with a
# peak RSS per sampling process of 51, 44 and 77 MB.
MAX_CHUNK = 25

# QUADPACK qk21: the 21-point Kronrod abscissae on [0, 1] (descending, the
# centre last; the odd positions 1, 3, ..., 9 are the 10-point Gauss
# abscissae), their weights, and the weights of the embedded Gauss rule.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067052903, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# qk21 adds its node pairs Gauss nodes first, in this order.
_PAIR_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
# The vacuum rule's first panel is [0, 2^_K0] (so s up to about 2e4 keeps
# 1e-13 relative error), and it takes at most _OCTAVES doubling panels, which
# below X(s) 2^-30 leave a share of the integral under 1e-30.
_K0 = -10
_OCTAVES = 30
# A TM sample's panels below r = 2 have edges 1 and 1 + 4^-j, j = _TM_GRADES,
# ..., 0, each at least a third of its width from r = 1, where F_TM rises
# like (r - 1)^(1/2).  At sigma = 8/27 and 27/8 and s from 0.05 to 60, 20
# grades move no sample by more than 2e-16, 10 grades by up to 2.2e-12.
_TM_GRADES = 15
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


class QuadratureError(ArithmeticError):
    """Quadrature failed to converge or the integrand returned non-finite values."""


class _Failed(QuadratureError):
    """Integral `index` of a batch failed, or, where `count` > 1, one of the
    `count` from it on, for a kernel error raised for them as a whole:
    `text`, after the integral's `name` once a caller gives it.  Picklable,
    to cross a helper's pipe."""

    def __init__(self, index: int, text: str, name: str = "", count: int = 1) -> None:
        super().__init__(index, text, name, count)
        self.index, self.text, self.name, self.count = index, text, name, count


class IntegralSample(NamedTuple):
    """One I(s) sample: its damping s, value, error estimate, kind and
    sigma (1 for vacuum).  Immutable, and as cheap to build as a tuple."""
    s: float
    value: float
    est_error: float
    kind: SpectrumKind
    sigma: float


def resolve_rel_tol(kind: SpectrumKind, rel_tol: float | None = None) -> float:
    """The relative budget a sample of `kind` runs at: rel_tol, or the kind's
    default for None.  Raises ValueError outside (0, 1), NaN included."""
    if rel_tol is None:
        return VACUUM_REL_TOL if kind is SpectrumKind.VACUUM else DIELECTRIC_REL_TOL
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0,1), got {rel_tol}")
    return float(rel_tol)


def truncation_point(s: float) -> float:
    """Upper limit X(s): beyond it e^{-s x} alone is below TAIL_TOL with margin."""
    return (-math.log(TAIL_TOL) + 20.0) / s


def check_reach(sigma: float, s: float) -> None:
    """Raise ValueError unless a dielectric sample at damping s and contrast
    sigma keeps every kernel argument, at most max(1, sigma) * X(s), within
    2^30, the range of specfun.log_bessel_ik."""
    reach = max(1.0, sigma) * truncation_point(s)
    if not reach <= specfun._BOX_MAX:
        raise ValueError(f"sigma={sigma} and s={s} reach kernel arguments of {reach}, past "
                         "2^30, the argument range of log_bessel_ik")


def _qk21(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK qk21 on the panels [a_i, b_i] of the integrals owner_i, with
    one call f(x, owner) on the (panels, 21) node array: (result, abserr,
    resasc) per panel, in QUADPACK's order of operations.  Its sums are
    QUADPACK's, added in place a node-major row at a time: np.add.reduce
    would add a panel's column pairwise.  Raises _Failed for the integral
    of the first non-finite value."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # the nodes are laid out node-major, each node's panels one contiguous
    # row (row k < 10 the left node of pair k, row 10 + k its right node,
    # row 20 the centre), and f sees the (panels, 21) transpose
    xt = np.empty((21, a.size))
    absc = np.multiply(_XGK[:10, None], hlgth, out=xt[10:20])
    np.subtract(centr, absc, out=xt[:10])
    absc += centr
    xt[20] = centr
    x = xt.T
    fx = f(x, owner)
    if not np.isfinite(fx).all():
        i, j = divmod(int(np.flatnonzero(~np.isfinite(fx))[0]), x.shape[1])
        raise _Failed(int(owner[i]), f": non-finite integrand at x={x[i, j]}")
    ft = fx.T
    fv1, fv2, fc = ft[:10], ft[10:20], ft[20]
    fsum = fv1 + fv2
    kterm = _WGK[:10, None] * fsum
    aterm = _WGK[:10, None] * (np.abs(fv1) + np.abs(fv2))
    gterm = _WG[:, None] * fsum[1::2]
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    resg = np.zeros(fc.size)
    for j in _PAIR_ORDER:
        resk += kterm[j]
        resabs += aterm[j]
    for term in gterm:
        resg += term
    reskh = resk * 0.5
    dev = _WGK[:10, None] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
    resasc = _WGK[10] * np.abs(fc - reskh)
    for term in dev:
        resasc += term
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    # qk21's rescaling where resasc and abserr are non-zero, then its floor
    m = (resasc != 0.0) & (abserr != 0.0)
    scaled = np.divide(200.0 * abserr, resasc, out=np.zeros_like(abserr), where=m)
    scaled **= 1.5
    np.minimum(1.0, scaled, out=scaled)
    scaled *= resasc
    np.copyto(abserr, scaled, where=m)
    np.maximum((_EPMACH * 50.0) * resabs, abserr, out=abserr,
               where=resabs > _UFLOW / (50.0 * _EPMACH))
    return result, abserr, resasc


def _adaptive_gk21(f: Callable, upper: np.ndarray, rel_tol: float,
                   name: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Integrals i of f over (0, upper[i]), advanced in lockstep by QUADPACK's
    qag rule: each step bisects every unconverged integral's largest-error
    panel, and one f call evaluates the new panels of all of them.

    f(x, owner) maps a (panels, 21) node array and the integral index of each
    panel to integrand values.  Integral i stops once its error sum is at most
    max(ABS_TOL, rel_tol * |value|) (after one panel, also unless qk21's error
    estimate is saturated).  The value is the sum of its panel list in
    QUADPACK's order.  Returns (values, est_errors).  Raises _Failed for the
    first integral still short of its budget at MAX_PANELS panels, and names
    it, and any failure f left unnamed, `name`; rel_tol is the caller's to check.
    """
    limit = MAX_PANELS
    n = upper.size
    rows = np.arange(n)
    # panel table: left end, right end, result and error of each slot of each
    # integral, widened by doubling as it fills; empty slots have error -inf
    # and are never bisected
    table = np.zeros((4, n, 1))
    table[1, :, 0] = upper
    try:
        table[2, :, 0], table[3, :, 0], resasc = _qk21(f, table[0, :, 0], upper, rows)
        area, errsum = table[2, :, 0].copy(), table[3, :, 0].copy()
        last = np.ones(n, dtype=int)
        done = (((errsum <= np.maximum(ABS_TOL, rel_tol * np.abs(area)))
                 & (errsum != resasc)) | (errsum == 0.0))
        while not done.all():
            act = np.flatnonzero(~done)
            # a slice while every integral is active, so the per-integral
            # arrays are read and written in place
            live = act if act.size < n else slice(None)
            new = last[live]
            if new.max() >= limit:
                raise _Failed(int(act[np.argmax(new >= limit)]), " did not converge: the maximum "
                              f"number of subdivisions ({limit}) was reached")
            if new.max() == table.shape[2]:
                grow = np.zeros((4, n, min(table.shape[2], limit - table.shape[2])))
                grow[3] = -np.inf
                table = np.concatenate([table, grow], axis=2)
            m = np.argmax(table[3, live], axis=1)
            lo, hi, r0, e0 = table[:, act, m]
            mid = 0.5 * (lo + hi)
            ends = np.concatenate([lo, mid, hi])
            k = act.size
            r, e, _ = _qk21(f, ends[:2 * k], ends[k:], np.concatenate([act, act]))
            r1, r2, e1, e2 = r[:k], r[k:], e[:k], e[k:]
            errsum[live] = errsum[live] + (e1 + e2) - e0
            area[live] = area[live] + (r1 + r2) - r0
            # the half with the larger error takes the bisected panel's slot
            swap = e2 > e1
            left, right = np.array([lo, mid, r1, e1]), np.array([mid, hi, r2, e2])
            table[:, act, m] = np.where(swap, right, left)
            table[:, act, new] = np.where(swap, left, right)
            last[live] = new + 1
            done[live] = errsum[live] <= np.maximum(ABS_TOL, rel_tol * np.abs(area[live]))
        return np.cumsum(table[2], axis=1)[rows, last - 1], errsum
    except _Failed as exc:   # a failure that f raised comes named
        raise exc if exc.name else _Failed(exc.index, exc.text, name) from None


def _fixed_panels(kind: SpectrumKind, s: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed qk21 panels of a vacuum or TM batch, whose edges depend on
    no grid: (x, hlgth, used), the node-major nodes (21, panels) laid out as
    in _qk21, each panel's half-length, and used[p, i], whether sample i
    takes panel p.

    Every sample takes the doubling panels [2^k, 2^(k+1)] for 2^k < X(s_i).
    Below them, a vacuum sample takes [0, 2^j] from j = _K0, or from j with
    2^j X(s_i) 2^-_OCTAVES rounded up to a power of 2 where that is larger
    (s_i below about 5e-5), and its doubling panels start at 2^j.  F_TM
    vanishes below r = 1 and rises like (r - 1)^(1/2), so a TM sample
    takes panels graded geometrically toward 1, with edges 1 and
    1 + 4^-j, j = _TM_GRADES, ..., 0, and its doubling panels start at 2.
    Raises _Failed for the first sample that would take more than
    MAX_PANELS panels."""
    limit = MAX_PANELS
    # ceil(log2 X), read exactly off X = m 2^e, 1/2 <= m < 1: e, less 1 at m = 1/2
    mant, expo = np.frexp(truncation_point(s))
    top = expo - (mant == 0.5)
    if kind is SpectrumKind.VACUUM:
        first = np.maximum(_K0, top - _OCTAVES)
        heads = np.unique(first)
        lo, hi = np.zeros(heads.size), np.ldexp(1.0, heads)
        used = heads[:, None] == first
    else:
        first = np.ones_like(top)
        hi = 1.0 + np.ldexp(1.0, -2 * np.arange(_TM_GRADES, -1, -1))
        lo = np.concatenate([[1.0], hi[:-1]])
        used = np.ones((hi.size, s.size), dtype=bool)
    k = np.arange(first.min(), max(top.max(), first.min()))
    lo = np.concatenate([lo, np.ldexp(1.0, k)])
    hi = np.concatenate([hi, np.ldexp(1.0, k + 1)])
    used = np.concatenate([used, (k[:, None] >= first) & (k[:, None] < top)])
    count = used.sum(axis=0)
    if count.max() > limit:
        raise _Failed(int(np.argmax(count > limit)), " did not converge: the maximum number of "
                      f"subdivisions ({limit}) was reached")
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = np.empty((21, lo.size))
    np.subtract(centr, _XGK[:10, None] * hlgth, out=x[:10])
    np.add(centr, _XGK[:10, None] * hlgth, out=x[10:20])
    x[20] = centr
    return x, hlgth, used


def _radial_tm(sigma: float, r: np.ndarray) -> np.ndarray:
    """F_TM at the radii r > 1: r^3 Int_0^arccos(1/r) cos t sin t
    dlog_cross_tm(sqrt(r^2 cos^2 t - 1), r sin t) dt, the nu and y
    integrals of the TM integrand in polar coordinates of (g, y).

    The angles are the qk21 nodes of the two halves of [0, arccos(1/r)], 42
    per radius, and the kernel is called once, for every angle of every
    radius.  Each radius's Kronrod sums are added a node row at a time, so
    its value has the same bits whatever other radii share the call.
    Module-level, so that it can be sent to a helper."""
    # arccos(1/r), accurate as r nears 1 (r - 1 is exact there)
    half = 0.25 * np.arctan(np.sqrt((r - 1.0) * (r + 1.0)))
    absc = _XGK[:10, None] * half
    # node-major rows: the left nodes, right nodes and centre of the lower
    # half, then those of the upper half
    theta = np.concatenate([half - absc, half + absc, half[None],
                            3.0 * half - absc, 3.0 * half + absc, 3.0 * half[None]])
    g, y = r * np.cos(theta), r * np.sin(theta)
    nu = np.sqrt(np.maximum((g - 1.0) * (g + 1.0), 0.0))
    # g y = r^2 cos t sin t
    f = g * y * dlog_cross(SpectrumKind.TM, nu, y, sigma)
    total = np.zeros(r.size)
    for rows in (f[:21], f[21:]):
        resk = _WGK[10] * rows[20]
        for j in _PAIR_ORDER:
            resk += _WGK[j] * (rows[j] + rows[10 + j])
        total += resk
    return r * (total * half)


def _laplace(s: np.ndarray, x: np.ndarray, fx: np.ndarray, hlgth: np.ndarray,
             used: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The integrals Int e^{-s_i r} F(r) dr over the panels of
    :func:`_fixed_panels` that sample i takes, from the values fx of F at
    their nodes x.  Each panel's Kronrod sum and |Kronrod - Gauss| error are
    added to its sample's a panel at a time, in edge order, by whole-array
    products with no BLAS call, so a sample has the same bits alone, in any
    batch and on any thread count.  The error estimate is floored at qk21's
    round-off term, 50 eps |value|.  Returns (values, est_errors).  Raises
    _Failed for the first sample whose panels reach a non-finite value of
    F, then for the first that overflows, then for the first whose estimate
    is over max(ABS_TOL, rel_tol * |value|)."""
    bad = ~np.isfinite(fx)
    if bad.any():
        reach = used & bad.any(axis=0)[:, None]
        i = int(np.argmax(reach.any(axis=0)))
        column = int(np.argmax(reach[:, i]))
        raise _Failed(i, f": non-finite integrand at x={x[np.argmax(bad[:, column]), column]}")
    values, errors = np.empty(s.size), np.empty(s.size)
    # rows in blocks whose (panels, rows) arrays hold at most 12,000 values,
    # 96 KB: under glibc's 128 KB mmap threshold, so the blocks reuse heap
    # pages and a curve adds nothing to the peak RSS, which 1 MB blocks did.
    # An integral past the double range (s below about 3e-77) overflows
    # quietly here and fails below
    size = max(1, 12000 // hlgth.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, s.size, size):
            block = slice(start, start + size)
            damping = -s[block]

            def damped(i: int) -> np.ndarray:
                """The integrand at node row i of every panel, e^{-s r}
                times F(r), for each s of the block."""
                f = np.multiply.outer(x[i], damping)
                np.exp(f, out=f)
                f *= fx[i, :, None]
                return f

            resk = _WGK[10] * damped(20)
            resg = np.zeros(resk.shape)
            for j in _PAIR_ORDER:
                pair = damped(j)
                pair += damped(10 + j)
                resk += _WGK[j] * pair
                if j % 2:
                    resg += _WG[j // 2] * pair
            value, error = np.zeros(resk.shape[1]), np.zeros(resk.shape[1])
            for term in np.where(used[:, block], resk * hlgth[:, None], 0.0):
                value += term
            for term in np.where(used[:, block], np.abs(resk - resg) * hlgth[:, None], 0.0):
                error += term
            values[block] = value
            errors[block] = np.maximum(error, (50.0 * _EPMACH) * np.abs(value))
    huge = ~np.isfinite(errors)
    if huge.any():
        raise _Failed(int(np.argmax(huge)), ": the integral overflows a double")
    over = errors > np.maximum(ABS_TOL, rel_tol * np.abs(values))
    if over.any():
        i = int(np.argmax(over))
        raise _Failed(i, f" did not converge: the error estimate {errors[i]:.3g} on the fixed "
                      f"panels is over the budget of {rel_tol:.3g} relative and {ABS_TOL:.3g} "
                      "absolute")
    return values, errors


def _inner(sigma: float, rel_tol: float, nu: np.ndarray, s: np.ndarray, r_max: np.ndarray
           ) -> np.ndarray:
    """The inner TE y integrals at the orders nu, each with its damping s and
    radius r_max, as one batch of :func:`_adaptive_gk21`:
    Int_0^sqrt(r_max^2 - nu^2) y dlog_cross_te(nu, y) e^{-s sqrt(nu^2 + y^2)} dy.
    Module-level, so that it can be sent to a helper; its failures are unnamed."""
    def integrand(y, i):
        damping = np.exp(-s[i, None] * np.hypot(nu[i, None], y))
        return y * dlog_cross(SpectrumKind.TE, nu[i, None], y, sigma) * damping

    return _adaptive_gk21(integrand, np.sqrt(r_max * r_max - nu * nu), rel_tol)[0]


def _batch(kind: SpectrumKind, sigma: float, points: Sequence[float], rel_tol: float,
           team: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The integrals of `kind` at every s of points, as one batch.  A vacuum
    or TM batch is Int e^{-s r} F(r) dr on the fixed panels of
    :func:`_fixed_panels` (:func:`_laplace`), with F(r) = (1/3) r^3 coth(r)
    for vacuum and :func:`_radial_tm` for TM.  A TE batch is one of
    :func:`_adaptive_gk21`, outer nu integrals over [0, X(s)] of inner y
    integrals over [0, sqrt(X(s)^2 - nu^2)].  Where a helper team is given,
    F_TM, or the inner integrals of each outer step, are split across it
    (:func:`_split`).  Returns (values, est_errors); a failure is that of
    its member, and names the member's failing integral."""
    s = np.asarray(points, dtype=float)
    if kind is not SpectrumKind.TE:
        try:
            x, hlgth, used = _fixed_panels(kind, s)
            if kind is SpectrumKind.VACUUM:
                fx = vacuum_integrand(x)
            else:
                r = x.ravel()
                fx = (_split(team, _radial_tm, (sigma,), (r,)) if team
                      else _radial_tm(sigma, r)).reshape(x.shape)
            return _laplace(s, x, fx, hlgth, used, rel_tol)
        except _Failed as exc:
            raise _Failed(exc.index, exc.text, "quadrature") from None
    r_max = truncation_point(s)

    def inner(nu: np.ndarray, member: np.ndarray) -> np.ndarray:
        out = np.zeros(nu.shape)
        live = nu < r_max[member, None]
        nu_l, owner = nu[live], member[np.nonzero(live)[0]]
        rows = (nu_l, s[owner], r_max[owner])
        try:
            out[live] = (_split(team, _inner, (sigma, rel_tol), rows) if team
                         else _inner(sigma, rel_tol, *rows))
        except _Failed as exc:   # of inner integral i, a row of member owner[i]
            i = exc.index
            raise _Failed(int(owner[i]), exc.text, f"inner quadrature at nu={nu_l[i]}") from None
        return out

    return _adaptive_gk21(lambda nu, member: nu * inner(nu, member), r_max, rel_tol,
                          "outer quadrature")


def _curve(kind: SpectrumKind, sigma: float, rel_tol: float, s: np.ndarray,
           team: list | None = None) -> np.ndarray:
    """The integrals of `kind` at every s, as a (2, s.size) array of values
    and est_errors: a vacuum or TM curve as one batch, a TE curve in
    contiguous blocks of at most MAX_CHUNK points, one batch each, in
    order (:func:`_batch`, which splits F_TM, or the inner integrals of a
    TE batch, across `team` if given).  A failure is the first failing
    block's, with its index in s; a kernel error, raised for a block as a
    whole, names the block.  Module-level, so that it can be sent to a
    helper."""
    size = MAX_CHUNK if kind is SpectrumKind.TE else max(1, s.size)
    out = np.empty((2, s.size))
    for start in range(0, s.size, size):
        block = s[start:start + size]
        try:
            out[:, start:start + size] = _batch(kind, sigma, block, rel_tol, team)
        except _Failed as exc:
            raise _Failed(start + exc.index, exc.text, exc.name) from None
        except ArithmeticError as exc:   # the kernel's, raised for the block as a whole
            raise _Failed(start, f"{exc}", count=block.size) from exc
    return out


# ---------------------------------------------------------------------------
# The helper team: one forked process per CPU, kept for the life of this
# process.  Each helper owns one end of a pipe, over which it receives
# (function, args) tasks and returns (True, result) or (False, exception).
# The helpers are plain forks, unknown to multiprocessing, whose exit
# handler would stop them from any forked child that exits normally.
# ---------------------------------------------------------------------------

# This process's helpers, as (connection, pid) pairs; [] when closed.
_team: list = []


def _serve(conn) -> None:
    """A helper's loop: run each task received on conn and send back its
    result or exception, until this helper's pipe reaches its end.  SIGINT
    is ignored: the parent handles it for the team."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task, args = conn.recv()
        except EOFError:   # the team was closed, or the parent died
            return
        try:
            reply = (True, task(*args))
        except BaseException as exc:   # the parent raises it
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:   # the parent has gone
            return


def _helpers(count: int) -> list:
    """This process's helper team, `count` helpers forked at the first call
    after it was closed; [] where the platform cannot fork."""
    if not _team and hasattr(os, "fork"):
        # imported here: the multiprocessing modules cost ~10 ms, which only a
        # dielectric call on more than one CPU should pay
        from multiprocessing import Pipe

        # loaded before the forks, so that every helper shares its pages
        specfun.scaled_bessel()
        try:
            for _ in range(count):
                here, there = Pipe()
                pid = os.fork()
                if pid == 0:
                    # _forget_team has closed the other helpers' parent
                    # ends; with this one closed too, EOF ends the helper
                    # when the parent closes the team or dies.  Whatever
                    # happens, the helper never returns into its caller
                    try:
                        here.close()
                        _serve(there)
                    finally:
                        os._exit(0)
                there.close()
                _team.append((here, pid))
        except BaseException:
            _close_team()
            raise
    return _team


def _forget_team() -> list:
    """Drop this process's helper team and close its pipe ends; returns the
    team.  Runs in every process just forked, helpers included, where the
    team is the parent's: its helpers must still see EOF when the parent
    dies, and nothing there may stop them."""
    global _team
    team, _team = _team, []
    for conn, _ in team:
        conn.close()
    return team


def _close_team() -> None:
    """Close this process's helper team, if it has one: its pipe ends, then
    its helpers, stopped and reaped.  The next dielectric call that needs a
    team forks a new one.  Runs at interpreter exit."""
    for _, pid in _forget_team():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):   # reaped elsewhere
            pass


atexit.register(_close_team)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_team)


def _split(team: list, task: Callable, fixed: tuple, rows: tuple[np.ndarray, ...]
           ) -> np.ndarray:
    """task(*fixed, *rows), whose last axis holds one entry per row, each
    row's entries independent of the others, on the helpers of team: row j
    goes to part j mod W, W helpers in all, one part is sent to each helper
    and the replies are read in turn, so every entry has the bits of the
    unsplit call.  Where a part fails with an ArithmeticError, the unsplit
    call runs in this process and raises what a one-CPU run raises; any
    other exception of a part is raised as it is.  A helper that ends before
    it replies raises RuntimeError; that or any other exception here, an
    interrupt say, closes the team, so that no pipe is left out of step."""
    width = len(team)
    parts = [(task, (*fixed, *(row[j::width] for row in rows)))
             for j in range(min(width, rows[0].size))]
    try:
        for (conn, _), part in zip(team, parts):
            conn.send(part)
        replies = []
        for conn, _ in team[:len(parts)]:
            try:
                replies.append(conn.recv())
            except EOFError:
                raise RuntimeError("a sampling helper process ended before it replied") from None
    except BaseException:
        _close_team()
        raise
    failures = [result for ok, result in replies if not ok]
    for exc in failures:
        if not isinstance(exc, ArithmeticError):
            raise exc
    if failures:
        return task(*fixed, *rows)
    out = np.empty(replies[0][1].shape[:-1] + (rows[0].size,))
    for j, (_, result) in enumerate(replies):
        out[..., j::width] = result
    return out


def sample_curve(
    kind: SpectrumKind,
    sigma: float,
    grid: Sequence[float],
    rel_tol: float | None = None,
) -> list[IntegralSample]:
    """The curve of `kind` on grid: one IntegralSample per grid point, in
    grid order.

    The kind, sigma, every s and rel_tol, and the reach of a dielectric
    curve (:func:`check_reach`), are checked before any sample or helper
    starts.  A vacuum or TM curve is one batch on the fixed panels, and a
    TE curve is sampled in contiguous blocks of at most MAX_CHUNK points,
    one batch each (:func:`_curve`).  On more than one CPU in this
    process's affinity mask, and where the platform can fork, the helper
    team takes the dielectric work, split by rows (:func:`_split`): the
    points of a TE curve, in interleaved parts that each helper samples in
    blocks; F_TM of a TM curve; the inner integrals of a lone TE point.
    Either way each sample is the one-point curve at its s, bit for bit.
    Every sample is built here, and every failure named: the error raised
    is the one a one-CPU run raises, the first failing block's, naming the
    first of its samples to fail, which need not be its lowest failing
    index.  Where a helper's part of a TE curve fails, the whole curve is
    sampled again in this process, up to its first failing block.
    """
    points = [float(s) for s in getattr(grid, "points", grid)]
    if not isinstance(kind, SpectrumKind):
        raise ValueError(f"no cross product for kind {kind}")
    dielectric = kind is not SpectrumKind.VACUUM
    if dielectric:
        check_sigma(sigma)
    for s in points:
        if not 0.0 < s < math.inf:
            raise ValueError(f"sample_curve requires 0 < s < inf, got {s}")
    if points and dielectric:
        check_reach(sigma, min(points))
    rel_tol = resolve_rel_tol(kind, rel_tol)
    if not points:   # no sample to take the fixed panels from
        return []
    sigma = sigma if dielectric else 1.0
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else 1
    team = _helpers(cpus) if dielectric and cpus > 1 else []
    s = np.array(points)
    try:
        values, errors = (_split(team, _curve, (kind, sigma, rel_tol), (s,))
                          if team and kind is SpectrumKind.TE and s.size > 1
                          else _curve(kind, sigma, rel_tol, s, team))
    except _Failed as exc:
        i, last = exc.index, exc.index + exc.count - 1
        where = (f"sample {i} (s={points[i]})" if i == last
                 else f"one of samples {i} to {last} (s={points[i]} to {points[last]})")
        raise QuadratureError(f"{where} failed: {exc.name}{exc.text}") from exc
    return list(map(IntegralSample, points, values.tolist(), errors.tolist(),
                    repeat(kind), repeat(sigma)))


def eval_I_vacuum(s: float, rel_tol: float | None = None) -> IntegralSample:
    """(1/3) Int_0^inf r^3 coth(r) e^{-s r} dr on the fixed panels of
    :func:`_fixed_panels`: the one-point vacuum curve of
    :func:`sample_curve`, sampled in this process."""
    return sample_curve(SpectrumKind.VACUUM, 1.0, [s], rel_tol)[0]


def eval_I_dielectric(
    kind: SpectrumKind,
    s: float,
    sigma: float,
    rel_tol: float | None = None,
) -> IntegralSample:
    """The dielectric mode integral of `kind` at damping s (see
    :func:`_batch`): the one-point curve of :func:`sample_curve`.  On more
    than one CPU the helper team builds F_TM of a TM point, or the inner
    integrals of a TE point, whose outer integral runs in this process,
    with the bits of a serial run."""
    if kind is SpectrumKind.VACUUM:
        raise ValueError("use eval_I_vacuum for the vacuum integral")
    return sample_curve(kind, sigma, [s], rel_tol)[0]
