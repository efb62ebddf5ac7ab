"""The batched blade-table route: `stack_products`, the idempotent representation
and the versor matrix, each against a per-product reference built here from
`geometric_product` one pair at a time."""

import dataclasses

import numpy as np
import pytest

from spinorlab.algebra import (
    Multivector,
    Signature,
    basis_blade,
    blade_images,
    geometric_product,
    right_product_matrix,
    stack_products,
)
from spinorlab.errors import InvalidInput, NonInvertible, UnsupportedDivisionRing
from spinorlab.groups import rotor_exp, versor_inverse, versor_to_matrix
from spinorlab.matrices import rep_from_idempotent

SMALL_SIGS = [Signature(p, n - p) for n in range(7) for p in range(n + 1)]


def random_stack(rng, count, dim, kind, density=1.0):
    stack = rng.normal(size=(count, dim))
    if kind == "complex":
        stack = stack + 1j * rng.normal(size=(count, dim))
    return stack * (rng.random((count, dim)) < density)


def pairwise(sig, A, B):
    field = "complex" if np.iscomplexobj(A) or np.iscomplexobj(B) else "real"
    out = np.zeros((len(A), len(B), 1 << sig.n), dtype=complex if field == "complex" else float)
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            x, y = Multivector.from_vector(sig, a, field), Multivector.from_vector(sig, b, field)
            out[i, j] = geometric_product(x, y).to_vector()
    return out


class TestStackProducts:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("sig", SMALL_SIGS, ids=str)
    def test_matches_pairwise_products(self, sig, kind):
        rng = np.random.default_rng(7 * sig.p + 101 * sig.q + (kind == "complex"))
        dim = 1 << sig.n
        # dense rows meet sparse rows, so the pairwise reference takes both routes
        A = random_stack(rng, 3, dim, kind)
        B = np.vstack([random_stack(rng, 1, dim, kind), random_stack(rng, 2, dim, kind, density=0.2)])
        out = stack_products(sig, A, B)
        assert out.shape == (3, 3, dim)
        assert np.abs(out - pairwise(sig, A, B)).max() <= 1e-12

    def test_cl80_full_density(self):
        sig = Signature(8, 0)
        rng = np.random.default_rng(80)
        for kind in ("real", "complex"):
            A, B = random_stack(rng, 2, 256, kind), random_stack(rng, 3, 256, kind)
            out = stack_products(sig, A, B)
            ref = pairwise(sig, A, B)
            assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    def test_mixed_real_and_complex_stacks(self):
        sig = Signature(2, 2)
        rng = np.random.default_rng(3)
        A, B = random_stack(rng, 2, 16, "real"), random_stack(rng, 2, 16, "complex")
        for X, Y in ((A, B), (B, A)):
            assert np.abs(stack_products(sig, X, Y) - pairwise(sig, X, Y)).max() <= 1e-12

    def test_empty_stacks(self):
        sig = Signature(2, 0)
        assert stack_products(sig, np.zeros((0, 4)), np.ones((2, 4))).shape == (0, 2, 4)
        assert stack_products(sig, np.ones((2, 4)), np.zeros((0, 4))).shape == (2, 0, 4)

    @pytest.mark.parametrize(
        "sig", [Signature(0, 0), Signature(2, 1), Signature(3, 3), Signature(1, 7)], ids=str
    )
    def test_blade_images_match_blade_products(self, sig):
        rng = np.random.default_rng(sig.n)
        v = random_stack(rng, 1, 1 << sig.n, "complex")[0]
        mv = Multivector.from_vector(sig, v)
        left, right = blade_images(sig, v)
        for mask in range(1 << sig.n):
            blade = Multivector(sig, {mask: 1.0})
            assert np.array_equal(left[mask], geometric_product(blade, mv).to_vector())
            assert np.array_equal(right[mask], geometric_product(mv, blade).to_vector())
        frame = [1 << i for i in range(sig.n)]
        some_left, some_right = blade_images(sig, v, frame)
        assert np.array_equal(some_left, left[frame]) and np.array_equal(some_right, right[frame])
        R = right_product_matrix(sig, v)
        assert np.array_equal(R, left)  # row M: e_M <> v
        x = random_stack(rng, 1, 1 << sig.n, "real")[0]
        assert np.allclose(x @ R, geometric_product(Multivector.from_vector(sig, x), mv).to_vector())

    def test_rejects_bad_shapes_and_large_n(self):
        with pytest.raises(InvalidInput):
            stack_products(Signature(2, 0), np.ones((1, 8)), np.ones((1, 4)))
        with pytest.raises(InvalidInput):
            stack_products(Signature(2, 0), np.ones(4), np.ones((1, 4)))
        with pytest.raises(InvalidInput):
            stack_products(Signature(11, 0), np.ones((1, 2048)), np.ones((1, 2048)))


# -- idempotent representation ----------------------------------------------------


def idempotent(sig, blades):
    one = Multivector.scalar(sig, 1.0)
    f1 = one
    for idx in blades:
        f1 = geometric_product(f1, (one + basis_blade(sig, idx)) * 0.5)
    return f1


def reference_rep(sig, f1, tol=1e-9):
    """The per-product construction: greedy ideal bases over Multivectors, P, the dual basis, E_ab."""
    dim = 1 << sig.n

    def greedy(side_mul):
        basis, ortho = [], []
        for mask in sorted(range(dim), key=lambda m: (bin(m).count("1"), m)):
            image = side_mul(Multivector(sig, {mask: 1.0}))
            v = image.to_vector()
            norm = np.linalg.norm(v)
            if norm <= tol:
                continue
            w = v.copy()
            for u in ortho:
                w -= (u @ w) * u
            if np.linalg.norm(w) > tol * norm:
                basis.append(image)
                ortho.append(w / np.linalg.norm(w))
        return basis

    cols = greedy(lambda b: geometric_product(b, f1))
    rows = greedy(lambda b: geometric_product(f1, b))
    size = len(cols)
    P = np.array([[geometric_product(r, c).scalar_part() / f1.scalar_part() for c in cols] for r in rows])
    coeffs = np.linalg.solve(P.T, np.eye(size)).T
    erow = []
    for a in range(size):
        acc = Multivector.zero(sig)
        for j, r in enumerate(rows):
            acc = acc + r * coeffs[a, j]
        erow.append(acc)
    emat = [[geometric_product(cols[a], erow[b]) for b in range(size)] for a in range(size)]
    gammas = []
    for i in range(1, sig.n + 1):
        left = [geometric_product(e, basis_blade(sig, [i])) for e in erow]
        gammas.append(
            np.array([[geometric_product(l, c).scalar_part() / f1.scalar_part() for c in cols] for l in left])
        )
    return cols, erow, emat, gammas


def mv_distance(a, b):
    return np.abs(a.to_vector() - b.to_vector()).max()


REP_CASES = [
    (Signature(0, 0), []),
    (Signature(2, 0), [[1]]),
    (Signature(1, 1), [[1]]),
    (Signature(3, 1), [[1], [2, 4]]),
    (Signature(2, 2), [[1], [2, 4]]),
    (Signature(4, 4), [[1], [2, 5], [3, 6], [4, 7]]),
]


class TestIdempotentRep:
    @pytest.mark.parametrize("sig,blades", REP_CASES, ids=[str(s) for s, _ in REP_CASES])
    def test_matches_per_product_reference(self, sig, blades):
        f1 = idempotent(sig, blades)
        idem = rep_from_idempotent(sig, f1)
        cols, erow, emat, gammas = reference_rep(sig, f1)
        assert idem.size == len(cols) == 1 << (sig.n // 2)
        assert idem.Ecol[0] == f1
        assert [e.terms for e in idem.Ecol] == [e.terms for e in cols]  # gathered images are exact
        for a in range(idem.size):
            assert mv_distance(idem.Erow[a], erow[a]) <= 1e-12
            assert mv_distance(idem.f[a], emat[a][a]) <= 1e-12
            for b in range(idem.size):
                assert mv_distance(idem.Emat[a][b], emat[a][b]) <= 1e-12
        mine = idem.gamma_matrices()
        assert len(mine) == sig.n
        for g, ref in zip(mine, gammas):
            assert np.abs(g - ref).max() <= 1e-12

    def test_matrix_of_is_an_algebra_morphism(self):
        sig = Signature(3, 1)
        idem = rep_from_idempotent(sig, idempotent(sig, [[1], [2, 4]]))
        rng = np.random.default_rng(31)
        x = Multivector.from_vector(sig, rng.normal(size=16))
        y = Multivector.from_vector(sig, rng.normal(size=16) + 1j * rng.normal(size=16))
        mx, my = idem.matrix_of(x), idem.matrix_of(y)
        assert np.iscomplexobj(my)
        assert np.abs(idem.matrix_of(geometric_product(x, y)) - mx @ my).max() <= 1e-12 * 16

    def test_rejects_non_idempotent(self):
        sig = Signature(3, 1)
        f1 = idempotent(sig, [[1], [2, 4]])
        with pytest.raises(InvalidInput, match="not idempotent"):
            rep_from_idempotent(sig, f1 * 1.01)

    @pytest.mark.parametrize(
        "sig,blades",
        [(Signature(3, 1), [[1]]), (Signature(2, 2), []), (Signature(4, 4), [[1], [2, 5], [3, 6]])],
        ids=str,
    )
    def test_rejects_non_primitive(self, sig, blades):
        with pytest.raises(InvalidInput, match="not primitive"):
            rep_from_idempotent(sig, idempotent(sig, blades))

    def test_rejects_signatures_beyond_the_tables(self):
        sig = Signature(6, 5)
        with pytest.raises(InvalidInput, match="n <= 10"):
            rep_from_idempotent(sig, Multivector.scalar(sig, 1.0))

    @pytest.mark.parametrize("sig", [Signature(1, 3), Signature(0, 1), Signature(3, 0)], ids=str)
    def test_rejects_non_real_commutant(self, sig):
        f1 = idempotent(sig, [[1]] if sig.p else [])
        with pytest.raises(UnsupportedDivisionRing):
            rep_from_idempotent(sig, f1)

    def test_perturbed_f1_fails_the_division_ring_gate(self):
        sig = Signature(3, 1)
        idem = rep_from_idempotent(sig, idempotent(sig, [[1], [2, 4]]))
        bent = idem.f[0] + basis_blade(sig, [3]) * 1e-3
        broken = dataclasses.replace(idem, f1=bent.to_vector())
        with pytest.raises(UnsupportedDivisionRing, match="not a real multiple of f1"):
            broken.matrix_of(basis_blade(sig, [1]))
        with pytest.raises(UnsupportedDivisionRing):
            broken.gamma_matrices()

    def test_nan_entry_fails_the_gate(self):
        sig = Signature(2, 0)
        idem = rep_from_idempotent(sig, idempotent(sig, [[1]]))
        with pytest.raises(UnsupportedDivisionRing):
            idem.matrix_of(Multivector(sig, {0: 1.0, 3: float("nan")}))


# -- versor matrix ------------------------------------------------------------------


def reference_versor_matrix(a):
    sig = a.sig
    inv, hat = versor_inverse(a), a.grade_involution()
    M = np.zeros((sig.n, sig.n))
    for j in range(1, sig.n + 1):
        image = geometric_product(geometric_product(hat, basis_blade(sig, [j])), inv)
        assert (image - image.grade(1)).norm_inf() <= 1e-10 * max(1.0, image.norm_inf())
        for mask, c in image.grade(1).terms.items():
            M[mask.bit_length() - 1, j - 1] = np.real(c)
    return M


def random_rotor(rng, sig):
    masks = [(1 << i) | (1 << j) for i in range(sig.n) for j in range(i + 1, sig.n)]
    coeffs = rng.normal(size=len(masks))
    coeffs *= 1.5 / np.linalg.norm(coeffs)
    return rotor_exp(Multivector(sig, dict(zip(masks, map(float, coeffs)))))


class TestVersorMatrix:
    @pytest.mark.parametrize("sig", [s for s in SMALL_SIGS if s.n <= 5], ids=str)
    def test_matches_per_column_reference(self, sig):
        rng = np.random.default_rng(11 * sig.p + 13 * sig.q)
        versors = [Multivector.scalar(sig, 1.0)]
        if sig.n >= 1:
            versors.append(basis_blade(sig, [1]) * 2.0)
        if sig.n >= 2:
            versors += [random_rotor(rng, sig) for _ in range(3)]
        for a in versors:
            M, ref = versor_to_matrix(a), reference_versor_matrix(a)
            assert M.shape == (sig.n, sig.n)
            assert np.abs(M - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max(initial=0.0))

    def test_sparse_columns_above_the_table_route(self):
        sig = Signature(5, 4)
        R = geometric_product(
            rotor_exp(basis_blade(sig, [1, 2]) * 0.3), rotor_exp(basis_blade(sig, [3, 7]) * 0.4)
        )
        assert np.abs(versor_to_matrix(R) - reference_versor_matrix(R)).max() <= 1e-12

    def test_non_versor_raises(self):
        sig = Signature(3, 0)
        one = Multivector.scalar(sig, 1.0)
        # rev(a) a = 2 is scalar, but the twisted adjoint maps e1 to a bivector
        with pytest.raises(NonInvertible, match="preserve grade 1"):
            versor_to_matrix(one + basis_blade(sig, [1, 2, 3]))
        with pytest.raises(NonInvertible):
            versor_to_matrix(one + basis_blade(sig, [1]))
