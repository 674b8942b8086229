"""Controlled-accuracy evaluation of the damped semi-infinite mode integrals.

Produces I(s) samples for the regularization pipeline: the single vacuum
integral (which has the closed form Psi(3, s/2)/24 - 2/s^4) and the nested
dielectric double integral over mode order nu and radial argument y.

The relative budget `rel_tol` is the one sampling setting: `None` means the
kind's default (1e-9 vacuum, 1e-7 dielectric, see :func:`resolve_rel_tol`).
The absolute floor ABS_TOL and the tail cut TAIL_TOL are fixed.

Both run on :func:`_adaptive_gk21`, a batched copy of QUADPACK's `qag`
driver with the 21-point Gauss-Kronrod rule `qk21` (Piessens et al., 1983):
many integrals advance in lockstep, each bisecting its own largest-error
panel, with one integrand call per step for all of them.  Every step works
row by row, so an integral's bits do not depend on what else is in its
batch.  The per-step cost beside the integrand is a few whole-array
operations: qk21's four sums are running sums down stacked node-major
rows, in QUADPACK's order of addition, and the panel tables are one array,
read and written once per step, in place while every integral is active.
A batch (:func:`_batch`) has a member per damping s: a vacuum member is
one integral; the outer nu integrals of dielectric members advance
together, and every nu node an outer step asks for, of every member,
starts an inner y integral, and those advance together as well.

:func:`sample_curve` is the one way in.  It checks every kind, sigma, s
and rel_tol before the first sample, and :func:`_sample_chunk` builds and
labels every sample.  :func:`eval_I_dielectric` is the batch of one, a
one-point curve, as is :func:`eval_I_vacuum`.  sample_curve cuts a
dielectric curve into contiguous chunks, one per CPU this process may run
on (``os.sched_getaffinity``) and at most MAX_CHUNK points, and samples
each chunk as one batch.

On two or more CPUs, where the platform can fork, dielectric work goes to
this process's team of forked helper processes, one per CPU.  The team
starts at the first dielectric call that needs it, serves every later call
and closes at interpreter exit (:func:`_close_team`); a helper also ends
when this process dies, on the end of its pipe.  A call with several
chunks, such as the TE and TM curves of a dielectric command, hands whole
chunks to the helpers.  A call with one chunk, such as a lone point, runs
its outer nu integrals here and sends each outer step's inner y integrals
to the helpers in interleaved parts.  Vacuum batches stay in this process.
A sample's value and error estimate are the same bits whatever the CPU
count; ``taskset -c 0`` gives a serial run in this process, which starts
no other.  Helpers run the module state as it was when they were forked:
a module attribute changed later (a kernel or MAX_PANELS, say) reaches
them only once the team is closed and the next call forks a new one.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrands import SpectrumKind, dlog_cross, vacuum_integrand

# Default relative budgets: the vacuum integral is cheap and feeds a
# 7-significant-figure comparison; the dielectric double integral is
# ~10^5 evaluations per sample point.
VACUUM_REL_TOL = 1e-9
DIELECTRIC_REL_TOL = 1e-7

# Subinterval limit of every adaptive integral, the absolute error floor of
# each, and the size of the e^{-s x} tail cut off at X(s).
MAX_PANELS = 200
ABS_TOL = 1e-14
TAIL_TOL = 1e-13

# The most points one dielectric batch holds.  Measured on a 2-CPU host,
# the default 200-point TE + TM curves (three runs each) sampled in a median
# 19.5 s with chunks of 25 points, 20.3 s with 10 and 22.4 s with 100 (one
# chunk per process and kind, whose slower small-s half leaves a process
# idle at the end), with a peak RSS per sampling process of 51, 44 and 77 MB.
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
# qk21 sums its node pairs Gauss nodes first.  _PAIR_ORDER lists the pairs
# in that order; _NODES picks the centre, then the left and then the right
# node of each pair in that order, from the 21 nodes as _qk21 lays them out;
# _WGK_PAIRS and _WG_PAIRS are the pairs' weights in that order, and
# _PAIR_OF_NODE[j] is the position of pair j in it.
_PAIR_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])
_NODES = np.concatenate([[20], _PAIR_ORDER, 10 + _PAIR_ORDER])
_WGK_PAIRS = _WGK[_PAIR_ORDER, None]
_WG_PAIRS = _WG[:, None]
_PAIR_OF_NODE = np.argsort(_PAIR_ORDER)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


class QuadratureError(ArithmeticError):
    """Quadrature failed to converge or the integrand returned non-finite values."""


@dataclass(frozen=True)
class IntegralSample:
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


def _running_sum(rows: np.ndarray) -> np.ndarray:
    """rows[j] += rows[j - 1] for j = 1, 2, ... in turn, in place: each
    element of the last row is then the sum of its column in QUADPACK's
    order (np.add.reduce would add a contiguous column pairwise)."""
    for prev, row in zip(rows[:-1], rows[1:]):
        row += prev
    return rows


def _qk21(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray,
          name: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QUADPACK qk21 on the panels [a_i, b_i] of the integrals owner_i, with
    one call f(x, owner) on the (panels, 21) node array: (result, abserr,
    resasc) per panel, in QUADPACK's order of operations.  Raises
    QuadratureError naming the integral of the first non-finite value."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # the nodes are laid out node-major, each node's panels one contiguous
    # row, and f sees the (panels, 21) transpose
    xt = np.empty((21, a.size))
    absc = np.multiply(_XGK[:10, None], hlgth, out=xt[10:20])
    np.subtract(centr, absc, out=xt[:10])
    absc += centr
    xt[20] = centr
    x = xt.T
    fx = f(x, owner)
    if not np.isfinite(fx).all():
        i, j = divmod(int(np.flatnonzero(~np.isfinite(fx))[0]), x.shape[1])
        raise QuadratureError(f"{name(owner[i])}: non-finite integrand at x={x[i, j]}")
    # node-major copy, node pairs in qk21's order (Gauss nodes first): row 0
    # is the centre, rows 1-10 and 11-20 the two nodes of each pair
    ft = fx.T[_NODES]
    fc, fv1, fv2 = ft[0], ft[1:11], ft[11:]
    # the Kronrod, |f| and Gauss terms side by side, each summed down the
    # rows in qk21's order; resg starts from +0
    sums = np.empty((11, 3, fc.size))
    np.multiply(_WGK[10], fc, out=sums[0, 0])
    np.abs(sums[0, 0], out=sums[0, 1])
    sums[0, 2] = 0.0
    fsum = np.add(fv1, fv2, out=sums[1:, 0])
    np.multiply(_WG_PAIRS, fsum[:5], out=sums[1:6, 2])
    sums[6:, 2] = 0.0
    fsum *= _WGK_PAIRS
    np.abs(fv1, out=sums[1:, 1])
    sums[1:, 1] += np.abs(fv2)
    sums[1:, 1] *= _WGK_PAIRS
    _running_sum(sums)
    resk, resabs, resg = sums[10, 0], sums[10, 1], sums[5, 2]
    reskh = resk * 0.5
    # resasc adds w * (|fv1 - reskh| + |fv2 - reskh|) in node order instead
    dev = np.abs(np.subtract(fv1, reskh, out=fv1), out=fv1)
    dev += np.abs(np.subtract(fv2, reskh, out=fv2), out=fv2)
    dev *= _WGK_PAIRS
    asc = np.empty((11, fc.size))
    np.multiply(_WGK[10], np.abs(fc - reskh), out=asc[0])
    np.take(dev, _PAIR_OF_NODE, axis=0, out=asc[1:])
    resasc = _running_sum(asc)[10]
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


def _adaptive_gk21(f: Callable, upper: np.ndarray, name: Callable[[int], str],
                   rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals i of f over (0, upper[i]), advanced in lockstep by QUADPACK's
    qag rule: each step bisects every unconverged integral's largest-error
    panel, and one f call evaluates the new panels of all of them.

    f(x, owner) maps a (panels, 21) node array and the integral index of each
    panel to integrand values.  Integral i stops once its error sum is at most
    max(ABS_TOL, rel_tol * |value|) (after one panel, also unless qk21's error
    estimate is saturated).  The value is the sum of its panel list in
    QUADPACK's order.  Returns (values, est_errors).  Raises ValueError for
    rel_tol outside (0, 1), and QuadratureError naming `name(i)` for the
    first integral still short of its budget at MAX_PANELS panels.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0,1), got {rel_tol}")
    limit = MAX_PANELS
    n = upper.size
    rows = np.arange(n)
    # panel table: left end, right end, result and error of each slot of each
    # integral, widened by doubling as it fills; empty slots have error -inf
    # and are never bisected
    table = np.zeros((4, n, 1))
    table[1, :, 0] = upper
    table[2, :, 0], table[3, :, 0], resasc = _qk21(f, table[0, :, 0], upper, rows, name)
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
            raise QuadratureError(f"{name(act[np.argmax(new >= limit)])} did not converge: "
                                  f"the maximum number of subdivisions ({limit}) was reached")
        if new.max() == table.shape[2]:
            grow = np.zeros((4, n, min(table.shape[2], limit - table.shape[2])))
            grow[3] = -np.inf
            table = np.concatenate([table, grow], axis=2)
        m = np.argmax(table[3, live], axis=1)
        lo, hi, r0, e0 = table[:, act, m]
        mid = 0.5 * (lo + hi)
        ends = np.concatenate([lo, mid, hi])
        k = act.size
        r, e, _ = _qk21(f, ends[:2 * k], ends[k:], np.concatenate([act, act]), name)
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


def _inner(kind: SpectrumKind, sigma: float, rel_tol: float, nu: np.ndarray, g: np.ndarray,
           s: np.ndarray, r_max: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """The inner y integrals of `kind` at the orders nu, each with its mode
    threshold g, damping s and radius r_max, as one batch of
    :func:`_adaptive_gk21`: Int_0^sqrt(r_max^2 - g^2) y dlog_cross(nu, y)
    e^{-s sqrt(g^2 + y^2)} dy.  A failure of integral i is named `name(i)`."""
    def integrand(y, i):
        damping = np.exp(-s[i, None] * np.hypot(g[i, None], y))
        return y * dlog_cross(kind, nu[i, None], y, sigma) * damping

    return _adaptive_gk21(integrand, np.sqrt(r_max * r_max - g * g), name, rel_tol)[0]


def _batch(kind: SpectrumKind, sigma: float, points: Sequence[float], rel_tol: float,
           label: Callable[[int], str], team: list | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """The integrals of `kind` at every s of points, as one batch of
    :func:`_adaptive_gk21`: (1/3) Int_0^X(s) r^3 coth(r) e^{-s r} dr for
    vacuum; for TE and TM, outer nu integrals over [0, X(s)] of inner y
    integrals over [0, sqrt(X(s)^2 - g^2)], those of each outer step split
    across the helper team where one is given (:func:`_split_inner`).  A
    failure of member i is named `label(i)` plus the failing integral.
    Returns (values, est_errors)."""
    s = np.asarray(points, dtype=float)
    r_max = truncation_point(s)
    if kind is SpectrumKind.VACUUM:
        return _adaptive_gk21(lambda x, owner: vacuum_integrand(x) * np.exp(-s[owner, None] * x),
                              r_max, lambda i: f"{label(i)}quadrature", rel_tol)

    def inner(nu: np.ndarray, member: np.ndarray) -> np.ndarray:
        g = nu if kind is SpectrumKind.TE else np.hypot(nu, 1.0)
        out = np.zeros(nu.shape)
        live = g < r_max[member, None]
        nu_l, owner = nu[live], member[np.nonzero(live)[0]]
        rows = (kind, sigma, rel_tol, nu_l, g[live], s[owner], r_max[owner],
                lambda i: f"{label(owner[i])}inner quadrature at nu={nu_l[i]}")
        out[live] = _split_inner(team, *rows) if team else _inner(*rows)
        return out

    return _adaptive_gk21(lambda nu, member: nu * inner(nu, member), r_max,
                          lambda i: f"{label(i)}outer quadrature", rel_tol)


def _sample_chunk(job: tuple[SpectrumKind, float, int, list[float], float],
                  team: list | None = None) -> list[IntegralSample]:
    """The samples of one chunk of a curve, as one batch: the chunk is the
    kind, sigma, the grid index of its first point, its points and rel_tol.
    Every sample is built here, and every failure named.  Module-level, so
    that it can be sent to a helper; a helper samples its chunk alone, this
    process with the inner integrals split across `team`, if given."""
    kind, sigma, first, points, rel_tol = job

    def label(i: int) -> str:
        return f"sample {first + i} (s={points[i]}) failed: "

    try:
        values, errors = _batch(kind, sigma, points, rel_tol, label, team)
    except QuadratureError:
        raise
    except ArithmeticError as exc:   # the kernel's, raised for the batch as a whole
        where = label(0) if len(points) == 1 else (
            f"one of samples {first} to {first + len(points) - 1} "
            f"(s={points[0]} to {points[-1]}) failed: ")
        raise QuadratureError(f"{where}{exc}") from exc
    return [IntegralSample(s=s, value=float(v), est_error=float(e), kind=kind, sigma=sigma)
            for s, v, e in zip(points, values, errors)]


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


def _reply(conn) -> tuple[bool, object]:
    """A helper's next reply on conn: (True, result) or (False, exception)."""
    try:
        return conn.recv()
    except EOFError:
        raise RuntimeError("a sampling helper process ended before it replied") from None


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


def _share_chunks(team: list, jobs: list, chunks: list[int]) -> dict[int, tuple[bool, object]]:
    """Sample the chunks jobs[i], i in chunks, on the helpers of team, one
    chunk per idle helper, TM chunks first, because a TM sample costs more.
    Once a chunk has failed, no chunk after it in curve order is handed out,
    and the chunks running are waited for; every chunk before the first
    failure in curve order is still sampled, so that it is the first failing
    chunk whatever the helper count.  Returns {i: (True, samples) or
    (False, exception)} for each chunk sampled.  Any other exception, an
    interrupt say, closes the team, so that no pipe is left out of step."""
    from multiprocessing.connection import wait

    queue = sorted(chunks, key=lambda i: jobs[i][0] is not SpectrumKind.TM)
    idle = [conn for conn, _ in team]
    running: dict = {}
    done: dict[int, tuple[bool, object]] = {}
    first_failure = len(jobs)
    try:
        while True:
            while queue and idle:
                i = queue.pop(0)
                if i < first_failure:
                    idle[-1].send((_sample_chunk, (jobs[i],)))
                    running[idle.pop()] = i
            if not running:
                return done
            for conn in wait(list(running)):
                i = running.pop(conn)
                done[i] = _reply(conn)
                idle.append(conn)
                if not done[i][0]:
                    first_failure = min(first_failure, i)
    except BaseException:
        _close_team()
        raise


def _inner_part(kind: SpectrumKind, sigma: float, rel_tol: float, nu: np.ndarray,
                g: np.ndarray, s: np.ndarray, r_max: np.ndarray):
    """A helper's part of an inner batch (:func:`_split_inner`): its values,
    or (i, text) for its integral i that failed, with `text` the error
    message that follows the integral's name."""
    failed = []

    def name(i: int) -> str:
        failed.append(i)
        return ""

    try:
        return _inner(kind, sigma, rel_tol, nu, g, s, r_max, name)
    except QuadratureError as exc:
        return failed[-1], str(exc)


def _split_inner(team: list, kind: SpectrumKind, sigma: float, rel_tol: float,
                 nu: np.ndarray, g: np.ndarray, s: np.ndarray, r_max: np.ndarray,
                 name: Callable[[int], str]) -> np.ndarray:
    """:func:`_inner` on the helpers of team: row j goes to helper j mod W,
    W helpers in all, and each helper integrates its rows as one batch, so
    every value has the bits of the unsplit batch.  A part that fails
    returns its failing row, which `name` labels here as the unsplit batch
    would; where several parts fail, the lowest row wins, and an exception
    raised for a part as a whole counts as its first row's.  Any other
    exception, an interrupt say, closes the team, so that no pipe is left
    out of step."""
    width = len(team)
    conns = [conn for conn, _ in team[:nu.size]]
    try:
        for j, conn in enumerate(conns):
            conn.send((_inner_part, (kind, sigma, rel_tol, nu[j::width], g[j::width],
                                     s[j::width], r_max[j::width])))
        replies = [_reply(conn) for conn in conns]
    except BaseException:
        _close_team()
        raise
    out = np.empty(nu.size)
    failures = []
    for j, (ok, result) in enumerate(replies):
        if not ok:
            failures.append((j, result))
        elif isinstance(result, tuple):
            row = j + width * result[0]
            failures.append((row, QuadratureError(name(row) + result[1])))
        else:
            out[j::width] = result
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return out


def sample_curve(
    kinds: SpectrumKind | tuple[SpectrumKind, ...],
    sigma: float,
    grid: Sequence[float],
    rel_tol: float | None = None,
) -> list[IntegralSample]:
    """One IntegralSample per kind and grid point: the curve of each kind in
    the order given, each in grid order.

    Every kind, sigma, s and rel_tol is checked before any sample or helper
    starts.  A vacuum curve is one batch, sampled in this process.  A
    dielectric curve is cut into contiguous chunks, one per CPU in this
    process's affinity mask and at most MAX_CHUNK points long, and each
    chunk is one batch.  On more than one CPU, and where the platform can
    fork, the helper team takes the dielectric work: whole chunks where
    there are several (:func:`_share_chunks`), the inner integrals of the
    one chunk otherwise (:func:`_split_inner`).  On one CPU the chunks are
    sampled one after another in this process.  Either way each sample is
    the one-point curve at its s, bit for bit.  The error raised is that of
    the first failing chunk in curve order, and names the first of its
    samples to fail, which need not be its lowest failing index.
    """
    points = [float(s) for s in getattr(grid, "points", grid)]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    for kind in kinds:
        if not isinstance(kind, SpectrumKind):
            raise ValueError(f"no cross product for kind {kind}")
        if kind is not SpectrumKind.VACUUM and (not 0.0 < sigma < math.inf or sigma == 1.0):
            raise ValueError(f"sigma must lie in (0,1) or (1,inf), got {sigma}")
    for s in points:
        if not 0.0 < s < math.inf:
            raise ValueError(f"sample_curve requires 0 < s < inf, got {s}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else 1
    jobs = []
    for kind in kinds:
        rel = resolve_rel_tol(kind, rel_tol)
        if kind is SpectrumKind.VACUUM:
            jobs.append((kind, 1.0, 0, points, rel))
            continue
        size = max(1, min(MAX_CHUNK, -(-len(points) // cpus)))
        jobs += [(kind, sigma, j, points[j:j + size], rel)
                 for j in range(0, len(points), size)]
    chunks = [i for i, job in enumerate(jobs) if job[0] is not SpectrumKind.VACUUM]
    team = _helpers(cpus) if chunks and cpus > 1 else []
    done = _share_chunks(team, jobs, chunks) if team and len(chunks) > 1 else {}
    samples = []
    for i, job in enumerate(jobs):
        # in curve order, so that the first failure raised is the first in it
        ok, result = done[i] if i in done else (True, _sample_chunk(job, team))
        if not ok:
            raise result
        samples += result
    return samples


def eval_I_vacuum(s: float, rel_tol: float | None = None) -> IntegralSample:
    """(1/3) Int_0^inf r^3 coth(r) e^{-s r} dr by adaptive quadrature: the
    one-point vacuum curve of :func:`sample_curve`, sampled in this
    process."""
    return sample_curve(SpectrumKind.VACUUM, 1.0, [s], rel_tol)[0]


def eval_I_dielectric(
    kind: SpectrumKind,
    s: float,
    sigma: float,
    rel_tol: float | None = None,
) -> IntegralSample:
    """The dielectric mode integral of `kind` at damping s (see
    :func:`_batch`): the one-point curve of :func:`sample_curve`.  On more
    than one CPU its outer integral runs in this process and its inner
    integrals on the helper team, with the bits of a serial run."""
    if kind is SpectrumKind.VACUUM:
        raise ValueError("use eval_I_vacuum for the vacuum integral")
    return sample_curve(kind, sigma, [s], rel_tol)[0]
