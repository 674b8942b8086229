"""Walk the vacuum pipeline end to end.

The vacuum mode integral has the closed form Psi(3, s/2)/24 - 2/s^4, so this
is the calibration case: the pipeline should find a fourth-order pole with
strength 2 and a constant term near pi^4/360 = 0.2705808.
"""

import math

from casimir_laurent import (SpectrumKind, make_grid, regularize, sample_curve)

grid = make_grid(0.05, 1.0, 200)
print(f"sampling I(s) at {len(grid)} points on [{grid.eps_s}, {grid.s_R}] ...")
samples = sample_curve(SpectrumKind.VACUUM, 1.0, grid)

result = regularize(samples)

print(f"\ndetected pole order : {result.pole_order}")
print(f"pole strength       : {result.c_minus:.6f}  (expect 2)")
print(f"stable rectangle    : {len(result.diagnostics['rectangle'])} windows")

print(f"\nconstant terms of windows ({result.pole_order}, nhat2):")
for nhat2, value in result.curve:
    print(f"  nhat2 = {nhat2}:  c0_hat = {value:.9f}")
turned = "turns" if result.diagnostics["sign_change"] else "is monotone; smallest step"
print(f"curve {turned} at nhat2 = {result.diagnostics['turning_nhat2']}")

exact = math.pi**4 / 360.0
print(f"\nc0        = {result.c0:.9f}")
print(f"pi^4/360  = {exact:.9f}")
print(f"deviation = {abs(result.c0 - exact) / exact:.2%}")
