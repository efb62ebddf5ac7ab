"""Property tests of the spinor layer, run under the derandomized profile of conftest.py.

The FPK identities hold and reconstruction inverts the bilinears for every finite
Dirac spinor of bounded size; the Lounesto class and the Cl(8,0) label do not
depend on a spinor's phase or scale.  Classification compares covariants with
tol * (1 + |psi|^2), which a rescaling moves relative to the covariants; the
invariance properties therefore take spinors whose covariant blocks sit at least
a factor 1e3 from that threshold, more than the factor 100 that scaling by
0.1..10 can move them.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from spinorlab.m8 import SURVIVING_GRADES, classify_m8, complexified_bilinears, gamma_blade
from spinorlab.minkowski import DiracSpinor, bilinears, classify_lounesto, fpk_residuals, reconstruct

# Components of bounded size: 0 or a magnitude in [1e-30, 1e3], so no product of four
# components (the size of the FPK scale) underflows into subnormal numbers.
coordinate = st.one_of(st.just(0.0), st.floats(1e-30, 1e3), st.floats(-1e3, -1e-30))
reps = st.sampled_from(["weyl", "dirac"])
CLASS_REPRESENTATIVES = ((1, 0, 1 + 1j, 0), (1, 0, 1, 0), (1, 0, 1j, 0), (-1j, 1j, 1, 1), (1, 0, 0, 0))


@st.composite
def dirac_spinors(draw):
    parts = draw(st.lists(coordinate, min_size=8, max_size=8))
    return DiracSpinor(draw(reps), tuple(complex(a, b) for a, b in zip(parts[::2], parts[1::2])))


@st.composite
def classified_spinors(draw):
    """Random spinors and the class 1/2/3/5/6 representatives (Weyl) times a complex factor."""
    if draw(st.booleans()):
        return draw(dirac_spinors())
    comps = draw(st.sampled_from(CLASS_REPRESENTATIVES))
    factor = complex(draw(st.floats(0.1, 10.0)), draw(st.floats(-10.0, 10.0)))
    return DiracSpinor("weyl", tuple(factor * c for c in comps))


phases = st.floats(0.0, 2 * np.pi)
scales = st.floats(0.1, 10.0)


def bilinear_distance(a, b) -> float:
    return float(np.abs(np.subtract((a.sigma, a.omega, *a.J, *a.S, *a.K),
                                    (b.sigma, b.omega, *b.J, *b.S, *b.K))).max())


def clear_of_threshold(blocks, threshold) -> bool:
    return all(b < 1e-3 * threshold or b > 1e3 * threshold for b in blocks)


@given(dirac_spinors())
def test_fpk_residuals_vanish_for_spinors(psi):
    assert fpk_residuals(bilinears(psi)).max_residual() <= 1e-12


@given(dirac_spinors(), reps)
def test_reconstruct_gives_back_the_bilinears(psi, rep):
    assume(psi.norm_squared() >= 1e-2)
    B = bilinears(psi)  # the covariants are the same in either representation
    psi2, _ = reconstruct(B, rep=rep)
    assert psi2.rep == rep
    assert bilinear_distance(bilinears(psi2), B) <= 1e-10 * (1.0 + psi.norm_squared())


@given(classified_spinors(), phases, scales)
def test_lounesto_class_ignores_phase_and_scale(psi, theta, lam):
    B = bilinears(psi)
    blocks = [abs(B.sigma), abs(B.omega)] + [max(map(abs, x)) for x in (B.J, B.S, B.K)]
    assume(clear_of_threshold(blocks, 1e-9 * (1.0 + psi.norm_squared())))
    factor = lam * np.exp(1j * theta)
    moved = DiracSpinor(psi.rep, tuple(factor * c for c in psi.components))
    assert classify_lounesto(moved) == classify_lounesto(psi)


m8_coordinate = st.floats(-10.0, 10.0)


@st.composite
def m8_spinors(draw):
    """Random real/complex pairs, or chirality eigenspinors and their blade images."""
    if draw(st.booleans()):
        xr = np.array(draw(st.lists(m8_coordinate, min_size=16, max_size=16)))
        xi = np.array(draw(st.lists(m8_coordinate, min_size=16, max_size=16)))
        return xr, xi * draw(st.sampled_from([0.0, 1.0]))
    diag = np.diag(gamma_blade(0xFF))
    base = np.zeros(16)
    base[draw(st.sampled_from(np.flatnonzero(diag > 0).tolist()))] = 1.0
    if draw(st.booleans()):
        base[draw(st.sampled_from(np.flatnonzero(diag < 0).tolist()))] = 1.0
    m1, m2 = draw(st.integers(0, 255)), draw(st.integers(0, 255))
    return gamma_blade(m1) @ base, gamma_blade(m2) @ base * draw(st.sampled_from([0.0, 1.0]))


@given(m8_spinors(), phases, scales)
def test_m8_label_ignores_phase_and_scale(x, theta, lam):
    xr, xi = x
    blocks = [complexified_bilinears(xr, xi, k).norm_inf() for k in SURVIVING_GRADES]
    assume(clear_of_threshold(blocks, 1e-10 * (1.0 + xr @ xr + xi @ xi)))
    c, s = lam * np.cos(theta), lam * np.sin(theta)
    # lam e^{i theta} (xr + i xi)
    moved = classify_m8(c * xr - s * xi, s * xr + c * xi)
    assert moved.label == classify_m8(xr, xi).label
