"""How stable is the vacuum c0 against the knobs that matter?

Sweeps the grid size and the pruning threshold. The pruning threshold only
gates pole detection, so c0 is bit-identical across it; refining the grid
relocates the turning point on a near-flat plateau and moves c0 at the
1e-4 level.
"""

from casimir_laurent import (LaurentParams, SpectrumKind, make_grid,
                             regularize, sample_curve)

print("grid size sweep:")
samples_by_j = {}
for J in (100, 200, 400):
    grid = make_grid(0.05, 1.0, J)
    samples_by_j[J] = sample_curve(SpectrumKind.VACUUM, 1.0, grid)
    res = regularize(samples_by_j[J])
    print(f"  J = {J:>3}: pole {res.pole_order}, c0 = {res.c0:.9f}, "
          f"read at nhat2 = {res.diagnostics['turning_nhat2']}")

print("\npruning threshold sweep (J = 200):")
for eps_c in (1e-2, 1e-3, 1e-4):
    res = regularize(samples_by_j[200], LaurentParams(eps_c=eps_c))
    print(f"  eps_c = {eps_c:g}: pole {res.pole_order}, c0 = {res.c0:.12f}")
