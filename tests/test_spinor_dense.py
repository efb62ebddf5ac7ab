"""The dense-array spinor checks against a reference copy of the Multivector route.

`fpk_residuals`, `fierz_aggregate`, `aggregate_residuals`, `reconstruct` and
`classify_m8` work on coefficient arrays through the Cl(1,3) blade tables and
the gamma bundles' blade stacks.  The reference functions below keep the
earlier route: sparse Multivectors, `geometric_product`/`wedge`, a Python scan
over the reference spinors, and one `complexified_bilinears` call per grade.
"""

from itertools import combinations

import numpy as np
import pytest

from spinorlab.algebra import Multivector, basis_blade, geometric_product, wedge
from spinorlab.errors import InconsistentBilinears, ReconstructionFailed
from spinorlab.m8 import SURVIVING_GRADES, M8Class, classify_m8, complexified_bilinears, gamma_blade
from spinorlab.matrices import DIRAC_GAMMAS, WEYL_GAMMAS
from spinorlab.minkowski import (
    _EPS,
    SIG13,
    S_PAIRS,
    BilinearSet,
    DiracSpinor,
    FierzAggregate,
    FpkReport,
    aggregate_residuals,
    bilinears,
    change_representation,
    fierz_aggregate,
    fpk_residuals,
    quantize_minkowski,
    reconstruct,
)

EPS = np.finfo(float).eps
RAISE = (1.0, -1.0, -1.0, -1.0)
TAU = basis_blade(SIG13, [1, 2, 3, 4])
ONE = Multivector.scalar(SIG13, 1.0)
GAMMA0 = {"weyl": WEYL_GAMMAS[0], "dirac": DIRAC_GAMMAS[0]}
CLASS_REPRESENTATIVES = ((1, 0, 1 + 1j, 0), (1, 0, 1, 0), (1, 0, 1j, 0), (-1j, 1j, 1, 1), (1, 0, 0, 0))


# -- reference route -------------------------------------------------------------


def reference_forms(B):
    Jf = Multivector(SIG13, {1 << m: RAISE[m] * B.J[m] for m in range(4)})
    Sf = Multivector(
        SIG13,
        {(1 << m) | (1 << n): 2.0 * RAISE[m] * RAISE[n] * B.S[i] for i, (m, n) in enumerate(S_PAIRS)},
    )
    Kf = Multivector(SIG13, {1 << m: RAISE[m] * B.K[m] for m in range(4)})
    return Jf, Sf, Kf


def reference_fpk(B, tol=1e-6):
    scale = B.scale()
    if scale == 0.0:
        return FpkReport(0.0, 0.0, 0.0, 0.0, None)
    square = lambda x: x[0] * x[0] - x[1] * x[1] - x[2] * x[2] - x[3] * x[3]
    j2, k2 = square(B.J), square(B.K)
    jdotk = B.J[0] * B.K[0] - sum(B.J[i] * B.K[i] for i in (1, 2, 3))
    s_full = np.zeros((4, 4))
    for idx, (m, n) in enumerate(S_PAIRS):
        s_full[m, n] = B.S[idx]
        s_full[n, m] = -B.S[idx]
    star_s = -0.5 * np.einsum("mnab,ab->mn", _EPS, np.outer(RAISE, RAISE) * s_full)
    lhs = np.outer(B.J, B.K) - np.outer(B.K, B.J)
    flag_coord = float(np.abs(lhs - 2.0 * B.omega * s_full - 2.0 * B.sigma * star_s).max())
    Jf, Sf, Kf = reference_forms(B)
    flag_alg = (wedge(Jf, Kf) - geometric_product(ONE * B.omega - TAU * B.sigma, Sf)).norm_inf()
    aux = None
    if B.sigma**2 + B.omega**2 > tol:
        carrier = ONE * B.omega + TAU * B.sigma
        aux = (
            (geometric_product(Sf, Jf) + geometric_product(carrier, Kf)).norm_inf() / scale,
            (geometric_product(Sf, Kf) + geometric_product(carrier, Jf)).norm_inf() / scale,
            (geometric_product(Sf, Sf) - ONE * (B.omega**2 - B.sigma**2)
             - TAU * (2.0 * B.omega * B.sigma)).norm_inf() / scale,
        )
    return FpkReport(abs(j2 - B.sigma**2 - B.omega**2) / scale, abs(k2 + j2) / scale,
                     abs(jdotk) / scale, max(flag_coord, flag_alg) / scale, aux)


def reference_fierz(B, rep="weyl", tol=1e-9, imaginary_s=True):
    Jf, Sf, Kf = reference_forms(B)
    Z = Multivector(SIG13, {0: complex(B.sigma)}, "complex") + Jf.to_complex()
    Z = Z + Sf.to_complex() * (1j if imaginary_s else 1.0)
    Z = Z + geometric_product(Kf.to_complex() * 1j, TAU.to_complex())
    Z = Z + TAU.to_complex() * complex(-B.omega)
    Zm = quantize_minkowski(Z, rep)
    G0 = GAMMA0[rep]
    resid = np.abs(G0 @ Zm.conj().T @ G0 - Zm).max()
    return FierzAggregate(Z, bool(resid <= tol * max(1.0, float(np.abs(Zm).max()))))


def reference_probes(rep):
    blade = lambda mask: quantize_minkowski(Multivector(SIG13, {mask: 1.0}), rep)
    tau = blade(0b1111)
    return ([blade(0)] + [blade(1 << m) for m in range(4)]
            + [0.5j * blade((1 << m) | (1 << n)) for m, n in S_PAIRS]
            + [1j * tau @ blade(1 << m) for m in range(4)] + [tau])


def reference_aggregate_residuals(B, rep="weyl"):
    Z = quantize_minkowski(reference_fierz(B, rep).Z, rep)
    scale = max(1.0, float(np.abs(Z).max()) ** 2)
    values = (B.sigma, *B.J, *B.S, *B.K, B.omega)
    r = [float(np.abs(Z @ P @ Z - 4.0 * v * Z).max()) / scale
         for P, v in zip(reference_probes(rep), values)]
    return r[0], max(r[1:5]), max(r[5:11]), max(r[11:15]), r[15]


def reference_reconstruct(B, eta=None, rep="weyl", tol=1e-9):
    if eta is not None:
        rep = eta.rep
    G0 = GAMMA0[rep]
    Z = quantize_minkowski(reference_fierz(B, rep).Z, rep)
    scale = max(1.0, float(np.abs(Z).max()))
    if eta is not None:
        candidates = [eta.vector]
    else:
        G = [quantize_minkowski(Multivector(SIG13, {1 << m: 1.0}), rep) for m in range(4)]
        eye = np.eye(4, dtype=complex)
        f = 0.25 * (eye + G[0]) @ (eye + 1j * G[1] @ G[2])
        candidates = [next(f[:, c] for c in range(4) if np.abs(f[:, c]).max() > 1e-12)]
        candidates += [eye[:, i] for i in range(4)]
    best, best_val = None, 0.0
    for cand in candidates:
        val = complex(cand.conj() @ G0 @ Z @ cand)
        if abs(val) > best_val:
            best, best_val, best_raw = cand, abs(val), val
    if best is None or best_val <= tol * scale:
        raise ReconstructionFailed("etabar Z eta vanished for every candidate eta")
    if abs(best_raw.imag) > tol * scale or best_raw.real < 0:
        if best_raw.real < -tol * scale:
            raise InconsistentBilinears(f"negative radicand {best_raw!r}")
        best_raw = complex(max(best_raw.real, 0.0))
        if best_raw == 0:
            raise ReconstructionFailed("radicand collapsed to zero")
    N = 0.5 * float(np.sqrt(best_raw.real))
    return DiracSpinor(rep, tuple((Z @ best) / (4.0 * N))), N


def reference_classify_m8(xr, xi, tol=1e-10):
    scale = 1.0 + float(xr @ xr) + float(xi @ xi)
    flags = tuple(complexified_bilinears(xr, xi, k).norm_inf() > tol * scale for k in SURVIVING_GRADES)
    return M8Class(flags, sum(1 << i for i, f in enumerate(flags) if f))


# -- inputs ------------------------------------------------------------------------


def spinor_inputs():
    """Seeded random Weyl and Dirac spinors and the class 1/2/3/5/6 representatives."""
    rng = np.random.default_rng(2024)
    out = [DiracSpinor(rep, tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
           for rep in ("weyl", "dirac") for _ in range(40)]
    for comps in CLASS_REPRESENTATIVES:
        psi = DiracSpinor("weyl", tuple(complex(rng.normal(), rng.normal()) * c for c in comps))
        out += [psi, change_representation(psi)]
    return out


def bilinear_inputs():
    """Spinor bilinears, zero bilinears, and perturbed sets that violate the constraints."""
    rng = np.random.default_rng(2025)
    sets = [(bilinears(psi), psi.rep) for psi in spinor_inputs()]
    sets.append((BilinearSet(0.0, (0.0,) * 4, (0.0,) * 6, (0.0,) * 4, 0.0), "weyl"))
    for B, rep in sets[:20] + sets[80:90]:  # random spinors and class representatives
        noise = rng.normal(size=16) * rng.choice([1e-3, 0.3, 3.0])
        sets.append((BilinearSet(B.sigma + noise[0], tuple(np.add(B.J, noise[1:5])),
                                 tuple(np.add(B.S, noise[5:11])), tuple(np.add(B.K, noise[11:15])),
                                 B.omega + noise[15]), rep))
    sets.append((BilinearSet(1.0, (0.0,) * 4, (0.0,) * 6, (0.0,) * 4, 0.0), "weyl"))
    return sets


BILINEARS = bilinear_inputs()


def test_inputs_cover_regular_singular_and_violated_sets():
    reports = [fpk_residuals(B) for B, _ in BILINEARS]
    assert any(r.auxiliary is None for r in reports) and any(r.auxiliary for r in reports)
    assert max(r.max_residual() for r in reports) > 0.1
    assert max(max(r.auxiliary) for r in reports if r.auxiliary) > 0.1


# -- fpk ---------------------------------------------------------------------------


def test_fpk_matches_reference():
    for index, (B, _) in enumerate(BILINEARS):
        new, ref = fpk_residuals(B), reference_fpk(B)
        for name in ("j_squared", "k_plus_j", "j_dot_k", "flag_plane"):
            assert abs(getattr(new, name) - getattr(ref, name)) <= 1e-15, (index, name)
        assert (new.auxiliary is None) == (ref.auxiliary is None), index
        if ref.auxiliary is not None:
            assert len(new.auxiliary) == 3
            assert np.abs(np.subtract(new.auxiliary, ref.auxiliary)).max() <= 1e-15, index


# -- aggregate and reconstruction ------------------------------------------------


@pytest.mark.parametrize("imaginary_s", [True, False])
def test_fierz_aggregate_matches_reference(imaginary_s):
    for B, rep in BILINEARS:
        new = fierz_aggregate(B, rep, imaginary_s=imaginary_s)
        ref = reference_fierz(B, rep, imaginary_s=imaginary_s)
        assert new.Z.field == "complex" and new.Z == ref.Z
        assert new.is_boomerang == ref.is_boomerang


def test_aggregate_residuals_match_reference():
    for B, rep in BILINEARS:
        new, ref = aggregate_residuals(B, rep), reference_aggregate_residuals(B, rep)
        assert np.abs(np.subtract(new, ref)).max() <= 4 * EPS


@pytest.mark.parametrize("with_eta", [False, True])
def test_reconstruct_matches_reference(with_eta):
    eta = {rep: DiracSpinor(rep, (1, 0.5j, 0.2, -0.3)) for rep in ("weyl", "dirac")}
    for psi in spinor_inputs():
        B = bilinears(psi)
        kwargs = {"eta": eta[psi.rep]} if with_eta else {"rep": psi.rep}
        new, N = reconstruct(B, **kwargs)
        ref, N_ref = reference_reconstruct(B, **kwargs)
        assert new.rep == ref.rep
        assert abs(N - N_ref) <= 4 * EPS * N_ref
        assert np.abs(new.vector - ref.vector).max() <= 4 * EPS * np.abs(ref.vector).max()


def test_reconstruct_failure_matches_reference():
    zero = BilinearSet(0.0, (0.0,) * 4, (0.0,) * 6, (0.0,) * 4, 0.0)
    for fn in (reconstruct, reference_reconstruct):
        with pytest.raises(ReconstructionFailed):
            fn(zero)


# -- classify_m8 ---------------------------------------------------------------------


def m8_inputs():
    """Random real and complex spinors, and the chirality and blade-image families."""
    rng = np.random.default_rng(2026)
    zero = np.zeros(16)
    out = [(rng.normal(size=16), zero) for _ in range(20)]
    out += [(rng.normal(size=16), rng.normal(size=16)) for _ in range(20)]
    out += [(zero, zero), (zero, rng.normal(size=16))]
    diag = np.diag(gamma_blade(0xFF))
    e_plus, e_minus = zero.copy(), zero.copy()
    e_plus[np.where(diag > 0)[0][0]] = 1.0
    e_minus[np.where(diag < 0)[0][0]] = 1.0
    chiral = zero.copy()
    chiral[diag > 0] = rng.normal(size=8)
    out += [(chiral, zero), (zero, chiral)]
    blades = [0] + [1 << i for i in range(8)]
    blades += [sum(1 << i for i in idx) for idx in combinations(range(8), 2)]
    blades += [sum(1 << i for i in idx) for idx in combinations(range(8), 4)][:20]
    blades += [0xFF ^ (1 << i) for i in range(8)] + [0xFF]
    for base in (e_plus, e_minus, (e_plus + e_minus) / np.sqrt(2.0)):
        for m1 in blades:
            image = gamma_blade(m1) @ base
            out += [(base, image), (image, zero)]
            out += [(image, gamma_blade(m2) @ base) for m2 in blades[:12:3]]
    return out


def test_classify_m8_matches_reference():
    labels = set()
    for xr, xi in m8_inputs():
        new = classify_m8(xr, xi)
        assert new == reference_classify_m8(xr, xi)
        labels.add(new.label)
    assert {0, 21, 31} <= labels and len(labels) >= 5


def test_classify_m8_matches_reference_across_tolerances():
    # thresholds that fall between the grades' largest covariants tell every grade's
    # maximum apart, so a blade counted in the wrong grade shows
    rng = np.random.default_rng(2027)
    for _ in range(20):
        xr, xi = rng.normal(size=16), rng.normal(size=16) * rng.choice([0.0, 1e-6, 1.0])
        for tol in np.geomspace(1e-14, 10.0, 60):
            assert classify_m8(xr, xi, tol) == reference_classify_m8(xr, xi, tol)
