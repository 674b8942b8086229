"""Casimir force difference across an exponentially graded dielectric.

Runs both polarizations at contrast sigma = 8/27 and converts the
regularized coefficients into SI force numbers for a 1 mm x 1 mm plate
pair separated by one micron.

Both 200-point curves are sampled in one call, on one pool of worker
processes; expect about 20 s on 2 CPUs.
"""

import time

from casimir_laurent import (DielectricSpec, PlateGeometry, SpectrumKind,
                             force_report, make_grid, regularize, sample_curve)

SIGMA = 8.0 / 27.0
KINDS = (SpectrumKind.TE, SpectrumKind.TM)

grid = make_grid(0.05, 1.0, 200)
t0 = time.perf_counter()
samples = sample_curve(KINDS, SIGMA, grid)
print(f"sampled TE and TM in {time.perf_counter() - t0:.0f}s")
results = {}
for kind in KINDS:
    results[kind] = res = regularize([p for p in samples if p.kind is kind])
    print(f"{kind.value}: pole {res.pole_order}, c0 = {res.c0:.6f} "
          f"(read at nhat2 = {res.diagnostics['turning_nhat2']})")

spec = DielectricSpec.from_sigma(SIGMA)
geom = PlateGeometry(Lx=1e-3, Ly=1e-3, Lz=1e-6)
report = force_report(results[SpectrumKind.TE].c0, results[SpectrumKind.TM].c0,
                      spec, geom)

print(f"\nalpha                = {spec.alpha:.6f}")
print(f"F0 prefactor         = {report.F0:.4e} N")
print(f"force difference     = {report.delta_force:.4e} N")
print(f"vacuum benchmark     = {report.vacuum_force:.4e} N")
print(f"ratio TE / vacuum    = {report.ratio_te:.6f}")
print(f"ratio TM / vacuum    = {report.ratio_tm:.6f}")
print(f"scaled TE (N m^2)    = {report.scaled_te:.5e} * LxLy/Lz^4")
print(f"scaled TM (N m^2)    = {report.scaled_tm:.5e} * LxLy/Lz^4")
