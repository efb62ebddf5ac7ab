"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import math
import sys
import time
from itertools import combinations

import numpy as np

from spinorlab.algebra import (
    Multivector,
    Signature,
    basis_blade,
    geometric_product,
    geometric_product_contracted,
    wedge,
)
from spinorlab.groups import membership, metric_matrix, rotor_exp, versor_to_matrix
from spinorlab.m8 import (
    SIG80,
    classify_m8,
    complexified_bilinears,
    fierz_identity_residual,
    fierz_polyform,
    gamma_blade,
    gen_bilinear,
    pairing,
    quantize,
    rank_one_matrix,
)
from spinorlab.matrices import (
    CL8_GAMMAS,
    builtin_gammas,
    dirac_weyl_similarity,
    rep_from_idempotent,
)
from spinorlab.minkowski import (
    BilinearSet,
    DiracSpinor,
    aggregate_residuals,
    bilinears,
    bilinears_closed_form,
    change_representation,
    classify_lounesto,
    factorization_residual,
    fpk_residuals,
    reconstruct,
)
from spinorlab.structure import (
    projector_pm,
    split_parallel_orthogonal,
    truncate,
    truncated_product,
    volume_form,
    volume_square_sign,
)
from spinorlab.tables import RING_DIM, AlgebraDescriptor, classify_real


def report(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}", file=sys.stderr)


def bilinear_distance(a, b):
    return max(
        abs(a.sigma - b.sigma),
        abs(a.omega - b.omega),
        max(abs(x - y) for x, y in zip(a.J, b.J)),
        max(abs(x - y) for x, y in zip(a.S, b.S)),
        max(abs(x - y) for x, y in zip(a.K, b.K)),
    )


def test_01_golden_product():
    sig = Signature(4, 2)
    a = basis_blade(sig, [1]) + basis_blade(sig, [3, 6])
    b = (
        basis_blade(sig, [1])
        + basis_blade(sig, [2])
        + basis_blade(sig, [1, 4])
        + basis_blade(sig, [2, 5])
    )
    expected = (
        Multivector.scalar(sig, 1.0)
        + basis_blade(sig, [4])
        + basis_blade(sig, [1, 2])
        + basis_blade(sig, [1, 2, 5])
        + basis_blade(sig, [1, 3, 6])
        + basis_blade(sig, [2, 3, 6])
        - basis_blade(sig, [1, 3, 4, 6])
        - basis_blade(sig, [2, 3, 5, 6])
    )
    assert geometric_product(a, b) == expected  # exact, zero tolerance
    report(1, "golden (4,2) product matches coefficient-for-coefficient")


def test_02_volume_sign_table():
    checked = 0
    for p in range(9):
        for q in range(9 - p):
            sig = Signature(p, q)
            vf = volume_form(sig)
            square = geometric_product(vf.tau, vf.tau)
            assert square == Multivector.scalar(sig, float(volume_square_sign(sig)))
            checked += 1
    assert checked == 45
    assert volume_form(Signature(1, 2)).square_sign == -1
    report(2, "tau<>tau equals the mod-8 rule on all 45 signatures with p+q <= 8")


def test_03_oracle_equivalence():
    start = time.time()
    worst = 0.0
    pairs = 0
    for n in range(7):
        for p in range(n + 1):
            sig = Signature(p, n - p)
            dim = 1 << n
            for ma in range(dim):
                A = Multivector(sig, {ma: 1.0})
                for mb in range(dim):
                    B = Multivector(sig, {mb: 1.0})
                    diff = (geometric_product(A, B) - geometric_product_contracted(A, B)).norm_inf()
                    worst = max(worst, diff)
                    pairs += 1
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed <= 60.0
    report(3, f"bitmask = contracted-wedge oracle on {pairs} blade pairs "
              f"(worst {worst:.1e}, {elapsed:.1f}s)")


def test_04_appendix_h_golden():
    sig = Signature(2, 0)
    one = Multivector.scalar(sig, 1.0)
    e1, e2, e12 = basis_blade(sig, [1]), basis_blade(sig, [2]), basis_blade(sig, [1, 2])
    idem = rep_from_idempotent(sig, (one + e1) * 0.5)
    assert idem.matrix_of(one).tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert idem.matrix_of(e1).tolist() == [[1.0, 0.0], [0.0, -1.0]]
    assert idem.matrix_of(e2).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert idem.matrix_of(e12).tolist() == [[0.0, 1.0], [-1.0, 0.0]]
    # matrix-unit laws at 1e-12
    n = idem.size
    for a in range(n):
        for b in range(n):
            prod = geometric_product(idem.f[a], idem.f[b])
            target = idem.f[a] if a == b else Multivector.zero(sig)
            assert (prod - target).norm_inf() <= 1e-12
            for c in range(n):
                for d in range(n):
                    prod = geometric_product(idem.Emat[a][b], idem.Emat[c][d])
                    target = idem.Emat[a][d] if b == c else Multivector.zero(sig)
                    assert (prod - target).norm_inf() <= 1e-12
    total = Multivector.zero(sig)
    for a in range(n):
        total = total + idem.Emat[a][a]
    assert (total - one).norm_inf() <= 1e-12
    report(4, "Cl(2,0) idempotent representation reproduces the textbook matrices exactly")


def test_05_bilinear_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        psi = DiracSpinor("weyl", tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        scale = 1.0 + psi.norm_squared()
        worst = max(worst, bilinear_distance(bilinears(psi), bilinears_closed_form(psi)) / scale)
    assert worst <= 1e-12
    report(5, f"matrix bilinears match the closed forms on 1000 spinors (worst {worst:.1e})")


def test_06_fpk_suite():
    rng = np.random.default_rng(1)
    worst_main, worst_aux = 0.0, 0.0
    for _ in range(1000):
        psi = DiracSpinor("weyl", tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        B = bilinears(psi)
        rep = fpk_residuals(B, tol=1e-6)
        worst_main = max(worst_main, rep.j_squared, rep.k_plus_j, rep.j_dot_k, rep.flag_plane)
        if B.sigma**2 + B.omega**2 > 1e-6:
            assert rep.auxiliary is not None
            worst_aux = max(worst_aux, max(rep.auxiliary))
    assert worst_main <= 1e-10
    assert worst_aux <= 1e-9
    report(6, f"FPK residuals on 1000 spinors (main {worst_main:.1e}, auxiliary {worst_aux:.1e})")


def test_07_representation_independence():
    _, residual = dirac_weyl_similarity()
    assert residual == 0.0
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(300):
        psi = DiracSpinor("weyl", tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        other = change_representation(psi)
        scale = 1.0 + psi.norm_squared()
        worst = max(worst, bilinear_distance(bilinears(psi), bilinears(other)) / scale)
        assert classify_lounesto(psi) == classify_lounesto(other)
    assert worst <= 1e-12
    report(7, f"similarity exact; bilinears and classes agree across representations "
              f"(worst {worst:.1e})")


def _vectorized_lounesto(components, tol=1e-9):
    """Zero-pattern classes for an (N,4) array of Weyl components."""
    a, b, c, d = components.T
    ac, bc, cc, dc = a.conj(), b.conj(), c.conj(), d.conj()
    sigma = (c * ac + d * bc + a * cc + b * dc).real
    omega = (1j * (c * ac + d * bc - a * cc - b * dc)).real
    J = np.stack(
        [
            (abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2),
            (b * ac + a * bc - d * cc - c * dc).real,
            (1j * (-b * ac + a * bc + d * cc - c * dc)).real,
            (abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2),
        ]
    )
    S = np.stack(
        [
            (0.5j * (-d * ac - c * bc + b * cc + a * dc)).real,
            (0.5j * 1j * (d * ac - c * bc - b * cc + a * dc)).real,
            (0.5j * (-c * ac + d * bc + a * cc - b * dc)).real,
            (0.5j * 1j * (-c * ac + d * bc - a * cc + b * dc)).real,
            (0.5j * (d * ac - c * bc + b * cc - a * dc)).real,
            (0.5j * 1j * (-d * ac - c * bc - b * cc - a * dc)).real,
        ]
    )
    K = np.stack(
        [
            (-abs(a) ** 2 - abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2),
            (-b * ac - a * bc - d * cc - c * dc).real,
            (1j * (b * ac - a * bc + d * cc - c * dc)).real,
            (-abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2),
        ]
    )
    thresh = tol * (1.0 + (abs(components) ** 2).sum(axis=1))
    s_nz = np.abs(sigma) > thresh
    o_nz = np.abs(omega) > thresh
    S_nz = np.abs(S).max(axis=0) > thresh
    K_nz = np.abs(K).max(axis=0) > thresh
    J_nz = np.abs(J).max(axis=0) > thresh
    labels = np.zeros(len(a), dtype=int)
    labels[s_nz & o_nz] = 1
    labels[s_nz & ~o_nz] = 2
    labels[~s_nz & o_nz] = 3
    singular = ~s_nz & ~o_nz
    labels[singular & S_nz & K_nz] = 4
    labels[singular & S_nz & ~K_nz] = 5
    labels[singular & ~S_nz & K_nz] = 6
    labels[~J_nz] = 0
    return labels


def test_08_class_representatives_and_search():
    for components, expected in [
        ((1, 0, 1 + 1j, 0), 1),
        ((1, 0, 1, 0), 2),
        ((1, 0, 1j, 0), 3),
        ((1, 0, 0, 2), 4),
        ((-1j, 1j, 1, 1), 5),
        ((1, 0, 0, 0), 6),
    ]:
        psi = DiracSpinor("weyl", components)
        assert classify_lounesto(psi) == expected
        # cross-check against the closed-form oracle route
        B = bilinears_closed_form(psi)
        thresh = 1e-9 * (1.0 + psi.norm_squared())
        s_nz, o_nz = abs(B.sigma) > thresh, abs(B.omega) > thresh
        if expected in (1, 2, 3):
            assert (s_nz, o_nz) == {1: (True, True), 2: (True, False), 3: (False, True)}[expected]
        else:
            S_nz = max(abs(x) for x in B.S) > thresh
            K_nz = max(abs(x) for x in B.K) > thresh
            assert (s_nz, o_nz) == (False, False)
            assert (S_nz, K_nz) == {4: (True, True), 5: (True, False), 6: (False, True)}[expected]

    rng = np.random.default_rng(0)
    samples = rng.normal(size=(100_000, 4)) + 1j * rng.normal(size=(100_000, 4))
    labels = _vectorized_lounesto(samples)
    counts = {k: int((labels == k).sum()) for k in range(7)}
    assert counts[1] > 0 and counts[2] >= 0 and counts[3] >= 0
    # Classes 4-6 need sigma = omega = 0, so random search does not reach them; the
    # class-4 family is pinned in test_minkowski.py::TestClassification.
    report(8, f"representatives classify correctly; search counts {counts}; class 4 is "
              "(xi, c(-conj xi_2, conj xi_1)) with 0 < |c| != 1 (measure zero)")


def test_09_inversion_round_trip():
    rng = np.random.default_rng(3)
    worst_bilinear, worst_overlap = 0.0, 1.0
    for _ in range(500):
        psi = DiracSpinor("weyl", tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        B = bilinears(psi)
        psi2, _ = reconstruct(B)
        scale = 1.0 + psi.norm_squared()
        worst_bilinear = max(worst_bilinear, bilinear_distance(B, bilinears(psi2)) / scale)
        overlap = abs(np.vdot(psi2.vector, psi.vector))
        norms = np.linalg.norm(psi2.vector) * np.linalg.norm(psi.vector)
        worst_overlap = min(worst_overlap, overlap / norms)
    assert worst_bilinear <= 1e-8
    assert worst_overlap >= 1 - 1e-8
    report(9, f"500 reconstructions (bilinear worst {worst_bilinear:.1e}, "
              f"overlap min {worst_overlap:.12f})")


def test_10_singular_identities():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
        psi5 = DiracSpinor("weyl", (-1j * b.conjugate(), 1j * a.conjugate(), a, b))
        assert classify_lounesto(psi5) in (5, None)
        worst = max(worst, max(aggregate_residuals(bilinears(psi5))))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi6 = DiracSpinor("weyl", (phase * a, phase * b, 0, 0))
        assert classify_lounesto(psi6) in (6, None)
        worst = max(worst, max(aggregate_residuals(bilinears(psi6))))
    assert worst <= 1e-9
    worst_fact = 0.0
    count = 0
    while count < 100:
        psi = DiracSpinor("weyl", tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
        B = bilinears(psi)
        if B.sigma**2 + B.omega**2 <= 1e-6:
            continue
        worst_fact = max(worst_fact, factorization_residual(B))
        count += 1
    assert worst_fact <= 1e-9
    report(10, f"class-5/6 sandwich identities (worst {worst:.1e}) and "
               f"aggregate factorization (worst {worst_fact:.1e})")


def test_11_cl8_algebra_and_admissibility():
    eye = np.eye(16)
    for i in range(8):
        for j in range(8):
            anti = CL8_GAMMAS[i] @ CL8_GAMMAS[j] + CL8_GAMMAS[j] @ CL8_GAMMAS[i]
            assert np.array_equal(anti, 2.0 * eye * (i == j))  # exact
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        x, y = rng.normal(size=16), rng.normal(size=16)
        assert pairing(x, y) == pairing(y, x)
        for m in range(8):
            g = CL8_GAMMAS[m]
            worst = max(worst, abs(pairing(g @ x, y) - pairing(x, g @ y)))
    assert worst <= 1e-10
    report(11, "cl8 anticommutation exact; pairing symmetric with epsilon(B) = +1 "
               "on 1000 random pairs")


def test_12_vanishing_grades():
    rng = np.random.default_rng(6)
    stacks = {
        k: np.stack([gamma_blade(sum(1 << i for i in idx)) for idx in combinations(range(8), k)])
        for k in (2, 3, 6, 7)
    }
    worst = 0.0
    xs = rng.normal(size=(1000, 16))
    for k, G in stacks.items():
        vals = np.einsum("ni,bij,nj->nb", xs, G, xs)
        worst = max(worst, float(np.abs(vals).max()))
    assert worst <= 1e-12 * float((1.0 + (xs**2).sum(axis=1)).max())
    report(12, f"grades 2,3,6,7 vanish on 1000 spinors (worst {worst:.1e})")


def test_13_fierz_isomorphism():
    rng = np.random.default_rng(7)
    worst_rank_one = 0.0
    for _ in range(200):
        x, y = rng.normal(size=16), rng.normal(size=16)
        resid = np.abs(quantize(fierz_polyform(x, y)) - rank_one_matrix(x, y)).max()
        worst_rank_one = max(worst_rank_one, float(resid) / max(1.0, np.abs(x).max() * np.abs(y).max()))
    assert worst_rank_one <= 1e-10
    worst_quad = 0.0
    for _ in range(100):
        quad = [rng.normal(size=16) for _ in range(4)]
        worst_quad = max(worst_quad, fierz_identity_residual(*quad))
    assert worst_quad <= 1e-10
    report(13, f"Fierz isomorphism (rank-one worst {worst_rank_one:.1e}, "
               f"four-spinor worst {worst_quad:.1e})")


def test_14_m8_classes():
    rng = np.random.default_rng(8)
    generic = classify_m8(rng.normal(size=16), np.zeros(16))
    assert generic.pattern == (True,) * 5
    diag = np.diag(gamma_blade(0xFF))
    xi = np.zeros(16)
    xi[np.where(diag > 0)[0][0]] = 1.0
    pure = classify_m8(xi, np.zeros(16))
    assert pure.pattern == (True, False, True, False, True)
    assert classify_m8(np.zeros(16), np.zeros(16)).label == 0

    found = set()
    # random spinor pairs
    for _ in range(400):
        found.add(classify_m8(rng.normal(size=16), rng.normal(size=16)).label)
        found.add(classify_m8(rng.normal(size=16), np.zeros(16)).label)
    # targeted families: chirality eigenspinors and their blade images
    e_plus = np.zeros(16)
    e_plus[np.where(diag > 0)[0][0]] = 1.0
    e_minus = np.zeros(16)
    e_minus[np.where(diag < 0)[0][0]] = 1.0
    blades = [0] + [1 << i for i in range(8)]
    blades += [sum(1 << i for i in idx) for idx in combinations(range(8), 2)]
    blades += [sum(1 << i for i in idx) for idx in combinations(range(8), 4)][:20]
    blades += [0xFF ^ (1 << i) for i in range(8)] + [0xFF]
    bases = (e_plus, e_minus, (e_plus + e_minus) / np.sqrt(2.0))
    for base in bases:
        for m1 in blades:
            image = gamma_blade(m1) @ base
            found.add(classify_m8(base, image).label)
            found.add(classify_m8(image, np.zeros(16)).label)
            for m2 in blades[:12]:
                found.add(classify_m8(image, gamma_blade(m2) @ base).label)
    found.discard(0)
    report(14, f"pinned patterns hold; search realized {len(found)} of 32 nonzero patterns: "
               f"{sorted(found)} (informational; the enumeration is combinatorial)")


def test_15_kahler_atiyah_structure():
    sig = Signature(5, 0)
    rng = np.random.default_rng(9)
    theta = basis_blade(sig, [1])

    def random_mv():
        terms = {m: rng.normal() for m in range(32) if rng.random() < 0.5}
        return Multivector(sig, terms)

    worst = 0.0
    for _ in range(200):
        a, b = truncate(random_mv(), "lower"), truncate(random_mv(), "lower")
        for sign in (1, -1):
            back = truncate(projector_pm(a, sign), "lower") * 2.0
            worst = max(worst, (back - a).norm_inf() / max(1.0, a.norm_inf()))
            lhs = projector_pm(truncated_product(a, b, sign), sign)
            rhs = geometric_product(projector_pm(a, sign), projector_pm(b, sign))
            worst = max(worst, (lhs - rhs).norm_inf() / max(1.0, rhs.norm_inf()))
    assert worst <= 1e-10

    worst_split = 0.0
    for _ in range(200):
        w, z = random_mv(), random_mv()
        rw = split_parallel_orthogonal(theta, w)
        rz = split_parallel_orthogonal(theta, z)
        scale = max(1.0, w.norm_inf() * max(1.0, z.norm_inf()))
        worst_split = max(worst_split, (rw.parallel + rw.orthogonal - w).norm_inf() / scale)
        again = split_parallel_orthogonal(theta, rw.parallel)
        worst_split = max(worst_split, (again.parallel - rw.parallel).norm_inf() / scale)
        worst_split = max(worst_split, again.orthogonal.norm_inf() / scale)
        prod = split_parallel_orthogonal(theta, geometric_product(w, z))
        perp = geometric_product(rw.orthogonal, rz.orthogonal) + geometric_product(
            rw.parallel, rz.parallel
        )
        par = geometric_product(rw.orthogonal, rz.parallel) + geometric_product(
            rw.parallel, rz.orthogonal
        )
        worst_split = max(worst_split, (prod.orthogonal - perp).norm_inf() / scale)
        worst_split = max(worst_split, (prod.parallel - par).norm_inf() / scale)
        top = geometric_product(rw.top, rz.orthogonal) + geometric_product(
            rw.orthogonal.grade_involution(), rz.top
        )
        perp2 = geometric_product(rw.orthogonal, rz.orthogonal) + geometric_product(
            rw.top.grade_involution(), rz.top
        )
        worst_split = max(worst_split, (prod.top - top).norm_inf() / scale)
        worst_split = max(worst_split, (prod.orthogonal - perp2).norm_inf() / scale)
    assert worst_split <= 1e-10
    report(15, f"(5,0) truncated-product round trip (worst {worst:.1e}) and split laws "
               f"(worst {worst_split:.1e})")


def test_16_groups():
    sig = Signature(3, 0)
    G = metric_matrix(sig)
    R2pi = rotor_exp(basis_blade(sig, [1, 2]) * math.pi)
    assert (R2pi - Multivector.scalar(sig, -1.0)).norm_inf() <= 1e-10

    rng = np.random.default_rng(10)
    worst, worst_metric = 0.0, 0.0
    for _ in range(200):
        terms = {m: rng.normal() for m in (0b011, 0b101, 0b110)}
        R = rotor_exp(Multivector(sig, terms))
        S = rotor_exp(Multivector(sig, {m: rng.normal() for m in (0b011, 0b101, 0b110)}))
        MR, MS = versor_to_matrix(R), versor_to_matrix(S)
        worst = max(worst, float(np.abs(versor_to_matrix(R * -1.0) - MR).max()))
        comp = versor_to_matrix(geometric_product(R, S))
        worst = max(worst, float(np.abs(comp - MR @ MS).max()))
        worst_metric = max(worst_metric, float(np.abs(MR.T @ G @ MR - G).max()))
        assert membership(R).verdict == "spin_plus"
        # reflection isometry through versor_to_matrix
        v = Multivector(sig, {1: rng.normal(), 2: rng.normal(), 4: rng.normal()})
        n_v = geometric_product(v, v).scalar_part()
        if abs(n_v) > 0.1:
            Mv = versor_to_matrix(v)
            worst_metric = max(worst_metric, float(np.abs(Mv.T @ G @ Mv - G).max()))
    assert worst <= 1e-10
    assert worst_metric <= 1e-8
    report(16, f"double cover/composition (worst {worst:.1e}), "
               f"metric preservation (worst {worst_metric:.1e}), R(2pi) = -1")


def test_17_classification_tables():
    for p in range(9):
        for q in range(9 - p):
            desc = classify_real(p, q)
            assert desc.summands * desc.matrix_dim**2 * RING_DIM[desc.division_ring] == 2 ** (
                p + q
            )
    assert classify_real(3, 0) == AlgebraDescriptor("C", 2, 1)
    assert classify_real(0, 2) == AlgebraDescriptor("H", 1, 1)
    catalogue = [
        (("R", 2, 1), [(2, 0), (1, 1)]),
        (("C", 2, 1), [(3, 0), (1, 2)]),
        (("H", 2, 1), [(0, 4), (4, 0), (1, 3)]),
        (("R", 4, 1), [(3, 1), (2, 2)]),
        (("H", 2, 2), [(5, 0), (1, 4)]),
        (("C", 4, 1), [(0, 5), (4, 1), (2, 3)]),
        (("H", 4, 1), [(6, 0), (5, 1), (1, 5), (2, 4)]),
        (("C", 8, 1), [(7, 0), (1, 6), (5, 2), (3, 4)]),
        (("R", 8, 2), [(0, 7), (4, 3)]),
        (("H", 4, 2), [(6, 1), (2, 5)]),
    ]
    for (ring, dim, summands), sigs in catalogue:
        for p, q in sigs:
            assert classify_real(p, q) == AlgebraDescriptor(ring, dim, summands)
    report(17, "dimension identity on p+q <= 8 and the isomorphism catalogue hold")
