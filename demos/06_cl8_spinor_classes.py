"""Cl(8,0) spinor bilinears, the Fierz isomorphism, the zero-pattern
classification (labels 0..31), and spinors annihilated by an algebraic flux constraint.

Run:  python demos/06_cl8_spinor_classes.py
"""

import numpy as np

from spinorlab import (
    build_constraint_operator,
    cgk_residual,
    classify_m8,
    fierz_polyform,
    gen_bilinear,
    kernel,
    pairing,
    quantize,
)
from spinorlab.m8 import chirality, flux_with_kernel_spinor, rank_one_matrix

rng = np.random.default_rng(0)

# only grades 0, 1, 4, 5, 8 survive for a symmetric pairing
xi = rng.normal(size=16)
xi /= np.linalg.norm(xi)
print("grade-k bilinear norms for a random unit Majorana spinor:")
for k in range(9):
    print(f"  k={k}: {gen_bilinear(xi, xi, k).norm_inf():.3e}")

# the polyform of a spinor pair quantizes to the rank-one endomorphism
eta = rng.normal(size=16)
E = fierz_polyform(xi, eta)
print("\nquantize(polyform) equals |xi><B eta|:",
      np.abs(quantize(E) - rank_one_matrix(xi, eta)).max() < 1e-12)

# complexified bilinears sort spinor pairs into 32 zero-pattern labels, 0 the trivial class
diag = np.diag(chirality())
pure = np.zeros(16)
pure[np.where(diag > 0)[0][0]] = 1.0
for name, xr, xi2 in [
    ("generic real     ", rng.normal(size=16), np.zeros(16)),
    ("chirality + pure ", pure, np.zeros(16)),
    ("zero             ", np.zeros(16), np.zeros(16)),
]:
    cls = classify_m8(xr, xi2)
    print(f"{name}: pattern {cls.pattern} -> class label {cls.label}")

# a flux background whose algebraic constraint annihilates a chosen spinor
seed = rng.normal(size=16)
seed /= np.linalg.norm(seed)
flux = flux_with_kernel_spinor(seed, rng)
op = build_constraint_operator(flux)
print("\nconstraint operator built from", len(flux.F), "four-form coefficients,",
      f"kappa = {flux.kappa:.3f}")
basis = kernel(op.Q)
print("kernel dimension:", basis.shape[1])
print("|Q seed| =", float(np.abs(op.Q @ seed).max()))
print("polyform constraint residual for kernel spinors:",
      cgk_residual(op.Q, basis[:, 0], basis[:, 0]))
print("kernel spinor class:", classify_m8(basis[:, 0], np.zeros(16)).label)
print("pairing of seed with itself:", pairing(seed, seed))
