"""Set-up cost of the package in a fresh interpreter: import plus warm-up.

Run as `python3 perfbench/setup_probe.py <src dir>`; prints the seconds from
before `import casimir_laurent` to the end of `warm_up()`, scaled to the
reference host speed by five probe slices run after it (see hostspeed.py).  The
benchmark calls `warm_up()` in its own process too, before any timed round.
"""

import sys
import time


def warm_up() -> None:
    """One small call through each layer: the first quadrature, the first
    least-squares window fit and the first Bessel evaluation of each kind."""
    from casimir_laurent import integrands, laurent, quadrature
    from casimir_laurent.integrands import SpectrumKind

    grid = laurent.make_grid(0.05, 1.0, 16)
    laurent.regularize(quadrature.sample_curve(SpectrumKind.VACUUM, 1.0, grid))
    integrands.dlog_cross_te(1.0, 1.0, 0.5)
    integrands.dlog_cross_tm(1.0, 1.0, 0.5)


if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import casimir_laurent  # noqa: F401
    warm_up()
    elapsed = time.perf_counter() - t0
    # imported only now, so that nothing it loads shortens the timed import
    import hostspeed
    probe = hostspeed.Probe()
    probe.run(5)
    print(repr(elapsed * probe.scale()))
