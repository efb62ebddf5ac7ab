"""Versor machinery: inverses, reflections, the twisted adjoint, rotor
exponentials, orthogonal matrices, and group membership."""

import math

import numpy as np
import pytest

from spinorlab.algebra import (
    Multivector,
    Signature,
    approx_equal,
    basis_blade,
    geometric_product,
    norms,
)
from spinorlab import groups
from spinorlab.errors import ConvergenceError, InvalidInput, NonInvertible
from spinorlab.groups import (
    apply_versor,
    membership,
    metric_matrix,
    reflect,
    rotor_exp,
    twisted_adjoint,
    versor_inverse,
    versor_to_matrix,
)

from test_algebra import random_homogeneous

S30 = Signature(3, 0)
S13 = Signature(1, 3)


def random_versor(sig, rng, factors=3):
    """Product of random non-isotropic vectors."""
    out = Multivector.scalar(sig, 1.0)
    made = 0
    while made < factors:
        v = random_homogeneous(sig, 1, rng)
        if abs(geometric_product(v, v).scalar_part()) < 0.3:
            continue
        out = geometric_product(out, v)
        made += 1
    return out


class TestVersorInverse:
    def test_examples(self):
        s20 = Signature(2, 0)
        assert versor_inverse(basis_blade(s20, [1])) == basis_blade(s20, [1])
        s01 = Signature(0, 1)
        assert versor_inverse(basis_blade(s01, [1])) == -basis_blade(s01, [1])
        R = rotor_exp(basis_blade(S30, [1, 2]) * 0.3)
        assert approx_equal(versor_inverse(R), R.reverse(), 1e-12)

    def test_rejects_non_versor(self):
        with pytest.raises(NonInvertible):
            versor_inverse(Multivector.scalar(S30, 1.0) + basis_blade(S30, [1]))

    def test_rejects_null(self):
        s11 = Signature(1, 1)
        null = basis_blade(s11, [1]) + basis_blade(s11, [2])
        with pytest.raises(NonInvertible):
            versor_inverse(null)


class TestReflections:
    def test_examples(self):
        e1, e2 = basis_blade(S30, [1]), basis_blade(S30, [2])
        assert approx_equal(reflect(e1, e1), -e1, 1e-12)
        assert approx_equal(reflect(e1, e2), e2, 1e-12)
        assert approx_equal(reflect(e1 + e2, e1), -e2, 1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(0)
        for sig in (S30, Signature(2, 1)):
            for _ in range(50):
                u = random_homogeneous(sig, 1, rng)
                if abs(geometric_product(u, u).scalar_part()) < 0.2:
                    continue
                v, w = random_homogeneous(sig, 1, rng), random_homogeneous(sig, 1, rng)
                rv, rw = reflect(u, v), reflect(u, w)
                g = lambda a, b: geometric_product(a, b).scalar_part()
                assert abs(g(rv, rw) - g(v, w)) <= 1e-10 * max(1.0, abs(g(v, w)))

    def test_grade_guard(self):
        with pytest.raises(InvalidInput):
            reflect(basis_blade(S30, [1, 2]), basis_blade(S30, [1]))


class TestTwistedAdjoint:
    def test_examples(self):
        e1 = basis_blade(S30, [1])
        assert approx_equal(twisted_adjoint(e1, e1), -e1, 1e-12)
        x = basis_blade(S30, [2]) + basis_blade(S30, [1, 3])
        one = Multivector.scalar(S30, 1.0)
        assert approx_equal(twisted_adjoint(one, x), x, 1e-12)
        assert approx_equal(twisted_adjoint(one * -1.0, x), x, 1e-12)

    def test_matches_reflection_on_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = random_homogeneous(S30, 1, rng)
            v = random_homogeneous(S30, 1, rng)
            assert approx_equal(twisted_adjoint(u, v), reflect(u, v), 1e-10)


class TestRotorExp:
    def test_examples(self):
        assert rotor_exp(Multivector.zero(S30)) == Multivector.scalar(S30, 1.0)
        R = rotor_exp(basis_blade(S30, [1, 2]) * math.pi)
        assert approx_equal(R, Multivector.scalar(S30, -1.0), 1e-12)
        phi = 0.8
        boost = rotor_exp(basis_blade(S13, [1, 4]) * (phi / 2))
        expected = Multivector.scalar(S13, math.cosh(phi / 2)) + basis_blade(S13, [1, 4]) * math.sinh(
            phi / 2
        )
        assert approx_equal(boost, expected, 1e-12)

    def test_series_branch(self):
        sig = Signature(4, 0)
        B = basis_blade(sig, [1, 2]) * 0.4 + basis_blade(sig, [3, 4]) * 0.9
        square = geometric_product(B, B)
        assert square.grades() != {0}  # forces the series branch
        R = rotor_exp(B)
        assert approx_equal(geometric_product(R, rotor_exp(B * -1.0)),
                            Multivector.scalar(sig, 1.0), 1e-12)
        half = rotor_exp(B * 0.5)
        assert approx_equal(geometric_product(half, half), R, 1e-10)

    def test_rejects_non_bivector(self):
        with pytest.raises(InvalidInput):
            rotor_exp(basis_blade(S30, [1]))

    def test_rotation_action(self):
        R = rotor_exp(basis_blade(S30, [1, 2]) * (math.pi / 4))
        out = apply_versor(R, basis_blade(S30, [1]))
        assert approx_equal(out, -basis_blade(S30, [2]), 1e-12)
        assert approx_equal(apply_versor(R, Multivector.scalar(S30, 2.5)),
                            Multivector.scalar(S30, 2.5), 1e-12)
        assert approx_equal(apply_versor(R * -1.0, basis_blade(S30, [1])), out, 1e-12)


def multivector_series(B, tol=1e-12):
    """The rotor series on Multivectors, one sparse or dense product per term."""
    one = Multivector.scalar(B.sig, 1.0)
    term, acc = one, one
    for k in range(1, 65):
        term = geometric_product(term, B) * (1.0 / k)
        acc = acc + term
        if term.norm_inf() <= tol * (1.0 + acc.norm_inf()):
            return acc
    raise ConvergenceError("rotor series did not converge in 64 terms")


def full_bivector(sig, rng, norm, complex_coeffs=False):
    """Every grade-2 blade with a random coefficient, scaled to the given 2-norm."""
    masks = [m for m in range(1 << sig.n) if bin(m).count("1") == 2]
    coeffs = rng.normal(size=len(masks)) + (1j * rng.normal(size=len(masks)) if complex_coeffs else 0)
    coeffs *= norm / np.linalg.norm(coeffs)
    cast = complex if complex_coeffs else float
    return Multivector(sig, {m: cast(c) for m, c in zip(masks, coeffs)}, "complex" if complex_coeffs else "real")


SERIES_SIGS = [Signature(p, n - p) for n in range(4, 9) for p in range(n + 1)]


class TestRotorSeries:
    """Up to DENSE_MAX_N the series runs on a coefficient vector; it must equal the
    Multivector series, bit for bit at n <= 7 and to rounding at n = 8, where the
    Multivector products take the matrix route.  For
    n <= 3 every bivector squares to a scalar, so only the closed form runs there."""

    @pytest.mark.parametrize("sig", SERIES_SIGS, ids=str)
    def test_vector_series_matches_multivector_series(self, sig):
        rng = np.random.default_rng(60 + 9 * sig.p + sig.q)
        for complex_coeffs in (False, True):
            for norm in (0.5, 1.5, 3.0):
                B = full_bivector(sig, rng, norm, complex_coeffs)
                assert geometric_product(B, B).grades() != {0}  # the series branch
                got, want = rotor_exp(B), multivector_series(B)
                assert got.field == want.field
                if sig.n <= 7:
                    assert got.terms == want.terms, (sig, complex_coeffs, norm)
                else:
                    assert approx_equal(got, want, 1e-14), (sig, complex_coeffs, norm)

    def test_vector_series_takes_one_product(self, monkeypatch):
        calls = []
        counted = lambda a, b: calls.append(1) or geometric_product(a, b)
        monkeypatch.setattr(groups, "geometric_product", counted)
        B = full_bivector(Signature(4, 1), np.random.default_rng(61), 1.5)
        assert rotor_exp(B).terms == multivector_series(B).terms
        assert len(calls) == 1  # B <> B for the branch test; the series reads the table

    @pytest.mark.parametrize(
        "sig, blades, vector",
        [
            (Signature(8, 0), [(1, 2), (3, 4)], False),  # 4 k 2^k = 32 < 2^n = 256
            (Signature(4, 4), [(1, 2), (2, 3), (4, 5)], False),  # 96 < 256
            (Signature(4, 4), [(1, 2), (2, 3), (4, 5), (6, 7)], True),  # 256 >= 256
            (Signature(8, 0), [(1, 2), (2, 3), (4, 5), (6, 7), (7, 8)], True),  # 640 >= 256
            (Signature(3, 4), [(1, 2), (3, 4)], False),  # 32 < 128
            (Signature(3, 4), [(1, 2), (2, 3), (4, 5)], False),  # 96 < 128
            (Signature(6, 0), [(1, 2), (2, 3), (4, 5)], True),  # 96 >= 64
            (Signature(5, 0), [(1, 2), (3, 4)], True),  # 32 >= 32
        ],
    )
    def test_route_follows_term_count(self, monkeypatch, sig, blades, vector):
        """The vector series only when 4 k 2^k reaches 2^n; the results agree either way."""
        rng = np.random.default_rng(62)
        B = Multivector(sig, {(1 << i - 1) | (1 << j - 1): float(rng.uniform(0.2, 0.6)) for i, j in blades})
        calls = []
        counted = lambda a, b: calls.append(1) or geometric_product(a, b)
        monkeypatch.setattr(groups, "geometric_product", counted)
        got, want = rotor_exp(B), multivector_series(B)
        assert (len(calls) == 1) == vector, len(calls)
        if sig.n <= 7 or not vector:
            assert got.terms == want.terms
        else:
            assert approx_equal(got, want, 1e-14)

    def test_above_dense_limit_runs_multivector_series(self, monkeypatch):
        sig = Signature(5, 4)
        B = basis_blade(sig, [1, 2]) * 0.4 + basis_blade(sig, [3, 4]) * 0.9 + basis_blade(sig, [5, 9]) * 0.3
        calls = []
        counted = lambda a, b: calls.append(1) or geometric_product(a, b)
        monkeypatch.setattr(groups, "geometric_product", counted)
        assert rotor_exp(B) == multivector_series(B)
        assert len(calls) > 2

    def test_closed_form_unchanged(self):
        for sig, blade, scale in ((S30, [1, 2], 0.7), (S13, [1, 4], 0.4), (Signature(2, 0), [1, 2], 2.5),
                                  (Signature(1, 2), [2, 3], 1.1), (Signature(2, 2), [1, 3], 0.0)):
            B = basis_blade(sig, blade) * scale
            lam = geometric_product(B, B).scalar_part()
            one = Multivector.scalar(sig, 1.0)
            if lam == 0:
                want = one + B
            elif lam < 0:
                want = one * math.cos(math.sqrt(-lam)) + B * (math.sin(math.sqrt(-lam)) / math.sqrt(-lam))
            else:
                want = one * math.cosh(math.sqrt(lam)) + B * (math.sinh(math.sqrt(lam)) / math.sqrt(lam))
            got = rotor_exp(B)
            assert got.terms == want.terms and list(got.terms) == list(want.terms), sig

    @pytest.mark.parametrize("sig", [Signature(2, 0), Signature(4, 0), Signature(2, 2)], ids=str)
    def test_complex_closed_form_matches_multivector_series(self, sig):
        """B <> B is a complex scalar: the closed form takes its complex square root."""
        for coeff in (0.5j, 0.3 + 0.4j, -1.2j, 2.0 - 0.7j):
            # e12 + e13 squares to a scalar: the cross terms anticommute
            for blades in ([0b11], [0b011, 0b101] if sig.n == 4 else [0b11]):
                B = Multivector(sig, {m: coeff for m in blades}, "complex")
                square = geometric_product(B, B)
                assert square.grades() <= {0} and isinstance(square.scalar_part(), complex)
                got, want = rotor_exp(B), multivector_series(B, 1e-15)
                assert got.field == "complex"
                assert approx_equal(got, want, 1e-13), (sig, coeff, blades)

    @pytest.mark.parametrize("sig", [Signature(4, 0), Signature(5, 4)], ids=str)
    def test_large_bivector_does_not_converge(self, sig):
        B = (basis_blade(sig, [1, 2]) + basis_blade(sig, [3, 4]) * 2.0) * (100 / math.sqrt(5))
        with pytest.raises(ConvergenceError) as raised:
            rotor_exp(B)
        assert str(raised.value) == "rotor series did not converge in 64 terms"


class TestVersorMatrix:
    def test_examples(self):
        assert np.array_equal(versor_to_matrix(Multivector.scalar(S30, 1.0)), np.eye(3))
        R = rotor_exp(basis_blade(S30, [1, 2]) * (math.pi / 4))
        M = versor_to_matrix(R)
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(M - expected).max() <= 1e-12
        s20 = Signature(2, 0)
        assert np.array_equal(versor_to_matrix(basis_blade(s20, [1])), np.diag([-1.0, 1.0]))

    def test_double_cover_and_composition(self):
        rng = np.random.default_rng(2)
        for sig in (S30, Signature(2, 1)):
            G = metric_matrix(sig)
            for _ in range(30):
                a, b = random_versor(sig, rng), random_versor(sig, rng)
                Ma, Mb = versor_to_matrix(a), versor_to_matrix(b)
                assert np.array_equal(versor_to_matrix(a * -1.0), Ma)
                Mab = versor_to_matrix(geometric_product(a, b))
                scale = max(1.0, np.abs(Mab).max())
                assert np.abs(Mab - Ma @ Mb).max() <= 1e-10 * scale
                assert np.abs(Ma.T @ G @ Ma - G).max() <= 1e-9 * max(1.0, np.abs(Ma).max() ** 2)

    def test_blade_determinant_parity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            a = Multivector.scalar(S30, 1.0)
            for _ in range(k):
                v = random_homogeneous(S30, 1, rng)
                a = geometric_product(a, v)
            det = np.linalg.det(versor_to_matrix(a))
            assert abs(det - (-1.0) ** k) <= 1e-9

    def test_rotor_matrix_special_orthogonal(self):
        rng = np.random.default_rng(4)
        G = metric_matrix(S30)
        for _ in range(30):
            B = random_homogeneous(S30, 2, rng)
            M = versor_to_matrix(rotor_exp(B))
            assert np.abs(M.T @ G @ M - G).max() <= 1e-8
            assert abs(np.linalg.det(M) - 1.0) <= 1e-8

    def test_norm_multiplicative_on_versors(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            a, b = random_versor(S30, rng), random_versor(S30, rng)
            na, _ = norms(a)
            nb, _ = norms(b)
            nab, _ = norms(geometric_product(a, b))
            assert abs(nab - na * nb) <= 1e-10 * max(1.0, abs(na * nb))


def membership_reference(a, tol=1e-9):
    """membership through versor_to_matrix, which forms a^-1 and the frame images itself."""
    n_val = float(np.real(geometric_product(a.reverse(), a).scalar_part()))
    is_even = all(k % 2 == 0 for k in a.grades())
    try:
        versor_to_matrix(a, tol)
        preserves = True
    except NonInvertible:
        preserves = False
    unit_norm = abs(abs(n_val) - 1.0) <= tol
    verdict = "none"
    if preserves and unit_norm:
        verdict = ("spin_plus" if abs(n_val - 1.0) <= tol else "spin") if is_even else "pin"
    return groups.MembershipReport(is_even, n_val, preserves, verdict)


class TestMembership:
    @pytest.mark.parametrize(
        "sig", [S30, S13, Signature(2, 2), Signature(1, 1), Signature(6, 2), Signature(5, 4)], ids=str
    )
    def test_matches_versor_matrix_route(self, sig, monkeypatch):
        """One rev(a) <> a and one frame-image pass; no versor_to_matrix or versor_inverse call."""
        rng = np.random.default_rng(70 + sig.n)
        one = Multivector.scalar(sig, 1.0)
        cases = [random_versor(sig, rng, 2), random_versor(sig, rng, 3), random_homogeneous(sig, 1, rng),
                 one + basis_blade(sig, [1]), one * 0.0, basis_blade(sig, [1, 2]) * 1.0 + one * 0.5]
        if sig.n <= 8:
            cases.append(rotor_exp(random_homogeneous(sig, 2, rng) * 0.3))
        want = [membership_reference(a) for a in cases]

        def forbidden(*args):
            raise AssertionError("versor_to_matrix or versor_inverse called")

        monkeypatch.setattr(groups, "versor_to_matrix", forbidden)
        monkeypatch.setattr(groups, "versor_inverse", forbidden)
        assert [membership(a) for a in cases] == want
        assert any(r.preserves_vectors for r in want) and not all(r.preserves_vectors for r in want)

    def test_examples(self):
        R = rotor_exp(basis_blade(S30, [1, 2]) * 0.7)
        assert membership(R).verdict == "spin_plus"
        rep = membership(basis_blade(S30, [1]))
        assert rep.verdict == "pin" and not rep.is_even and rep.norm_N == 1.0
        bad = membership(Multivector.scalar(S30, 1.0) + basis_blade(S30, [1]))
        assert bad.verdict == "none" and not bad.preserves_vectors

    def test_spin_not_plus(self):
        s11 = Signature(1, 1)
        # e1 e2 has N = <rev(e1 e2) e1 e2>_0 = -(e1 e2)^2 = ... = -1: even, norm -1
        a = geometric_product(basis_blade(s11, [1]), basis_blade(s11, [2]))
        rep = membership(a)
        assert rep.is_even and abs(rep.norm_N + 1.0) <= 1e-12
        assert rep.verdict == "spin"


class TestFrameImageCheck:
    """The off-grade check of the frame images runs once over the (n, 2^n) stack."""

    @pytest.mark.parametrize("sig", [S30, Signature(2, 2), Signature(5, 4)], ids=str)
    def test_nan_carrying_versor_is_rejected(self, sig):
        R = rotor_exp(basis_blade(sig, [1, 2]) * 0.4)
        bad = Multivector(sig, {**R.terms, 0b11: math.nan})
        with pytest.raises(NonInvertible, match="does not preserve grade 1: not a versor"):
            versor_to_matrix(bad)
        report = membership(bad)
        assert not report.preserves_vectors and report.verdict == "none"

    def test_nan_in_a_grade_one_entry_fails(self, monkeypatch):
        """A NaN image fails even where only a grade-1 entry carries the NaN."""
        R = rotor_exp(basis_blade(S30, [1, 2]) * 0.4)
        inv = versor_inverse(R)
        images = groups._frame_images(R, inv, 1e-10)
        assert images.shape == (3, 8)
        poisoned = images[:, None].copy()  # stack_products' (n, 1, 2^n) shape
        poisoned[1, 0, 0b100] = math.nan
        monkeypatch.setattr(groups, "stack_products", lambda *args: poisoned)
        with pytest.raises(NonInvertible, match="does not preserve grade 1: not a versor"):
            groups._frame_images(R, inv, 1e-10)

    @pytest.mark.parametrize("sig", [S30, Signature(1, 3), Signature(6, 3)], ids=str)
    def test_non_versor_is_rejected(self, sig):
        """1 + e_{123}: rev(a) <> a is a scalar, but e^j is sent off grade 1."""
        a = Multivector.scalar(sig, 1.0) + basis_blade(sig, [1, 2, 3])
        versor_inverse(a)  # passes the inverse's own check
        with pytest.raises(NonInvertible, match="does not preserve grade 1: not a versor"):
            versor_to_matrix(a)
        assert not membership(a).preserves_vectors
