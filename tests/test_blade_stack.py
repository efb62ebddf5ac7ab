"""The stacked blade tensor of a gamma bundle and the contractions built on it:
every stacked blade against the ascending generator product, the bilinears and
the Fierz polyforms against per-blade matrix chains, and the quantize /
dequantize pairs as inverses of each other."""

from itertools import combinations, permutations

import numpy as np
import pytest

from spinorlab.algebra import Multivector, Signature, geometric_product, permutation_sign
from spinorlab.errors import InvalidInput
from spinorlab.m8 import (
    SIG80,
    complexified_bilinears,
    dequantize,
    fierz_polyform,
    gamma_blade,
    gen_bilinear,
    quantize,
)
from spinorlab.matrices import CL8_GAMMAS, RepBundle, builtin_gammas, check_clifford_relations
from spinorlab.minkowski import SIG13, _EPS, dequantize_minkowski, quantize_minkowski

BUNDLES = ["pauli", "dirac", "weyl", "cl8"]


def ascending_product(gammas, mask):
    out = np.eye(gammas[0].shape[0], dtype=gammas[0].dtype)
    for i, g in enumerate(gammas):
        if mask >> i & 1:
            out = out @ g
    return out


CL8_REFERENCE = [ascending_product(CL8_GAMMAS, mask) for mask in range(256)]


def random_multivector(rng, sig, field):
    coeffs = rng.normal(size=1 << sig.n)
    if field == "complex":
        coeffs = coeffs + 1j * rng.normal(size=1 << sig.n)
    coeffs[rng.random(1 << sig.n) < 0.3] = 0.0
    return Multivector(sig, dict(enumerate(coeffs.tolist())), field)


class TestStack:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_every_blade_is_the_ascending_product(self, name):
        rep = builtin_gammas(name)
        assert rep.blades.shape == (1 << rep.sig.n, rep.dim, rep.dim)
        for mask in range(1 << rep.sig.n):
            assert np.array_equal(rep.blades[mask], ascending_product(rep.gammas, mask)), mask
            assert np.array_equal(rep.gamma_blade(mask), rep.blades[mask])

    @pytest.mark.parametrize("name", BUNDLES)
    def test_read_only(self, name):
        rep = builtin_gammas(name)
        for view in (rep.blades, rep.gamma_blade(1), rep.chirality):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 7.0
        with pytest.raises(ValueError):
            gamma_blade(3)[0, 0] = 7.0

    def test_construction_builds_no_stack(self):
        rep = builtin_gammas("cl8")
        check_clifford_relations(rep)
        assert "blades" not in vars(rep)
        bare = RepBundle(rep.sig, rep.dim, rep.field_tag, rep.gammas)
        check_clifford_relations(bare)
        assert "blades" not in vars(bare)
        first = rep.blades
        assert "blades" in vars(rep) and rep.blades is first

    def test_m8_gamma_blade_is_a_stack_slice(self):
        for mask in (0, 1, 0x0F, 0xA5, 0xFF):
            assert np.array_equal(gamma_blade(mask), CL8_REFERENCE[mask])

    @pytest.mark.parametrize("sig", [Signature(8, 0), Signature(1, 3), Signature(3, 0),
                                     Signature(2, 3), Signature(0, 4)])
    def test_blade_squares_match_the_algebra(self, sig):
        rep = RepBundle(sig, 1, "real", [])  # the squares read only the signature
        for mask in range(1 << sig.n):
            blade = Multivector(sig, {mask: 1.0})
            assert rep.blade_squares[mask] == geometric_product(blade, blade).scalar_part()

    def test_dequantize_needs_a_faithful_irreducible_bundle(self):
        with pytest.raises(InvalidInput):
            builtin_gammas("pauli").dequantize(np.eye(2))
        with pytest.raises(InvalidInput):
            builtin_gammas("cl8").dequantize(np.eye(4))


class TestContractions:
    """Each covariant against x @ G_M @ y with G_M built blade by blade in the test."""

    def test_gen_bilinear(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            x, y = rng.normal(size=16), rng.normal(size=16)
            for k in range(9):
                got = gen_bilinear(x, y, k)
                for idx in combinations(range(8), k):
                    mask = sum(1 << i for i in idx)
                    assert abs(got.coefficient(mask) - x @ CL8_REFERENCE[mask] @ y) <= 1e-12
                assert got.grades() <= {k}

    def test_fierz_polyform(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            x, y = rng.normal(size=16), rng.normal(size=16)
            got = fierz_polyform(x, y)
            for mask in range(256):
                assert abs(got.coefficient(mask) - x @ CL8_REFERENCE[mask] @ y / 16.0) <= 1e-12

    def test_complexified_bilinears(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            xr, xi = rng.normal(size=16), rng.normal(size=16)
            for k in range(9):
                got = complexified_bilinears(xr, xi, k)
                assert got.field == "complex" and got.grades() <= {k}
                for idx in combinations(range(8), k):
                    g = CL8_REFERENCE[sum(1 << i for i in idx)]
                    want = complex(xr @ g @ xr - xi @ g @ xi, xr @ g @ xi + xi @ g @ xr)
                    assert abs(got.coefficient(sum(1 << i for i in idx)) - want) <= 1e-12


class TestQuantizeRoundTrip:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_cl8(self, field):
        rng = np.random.default_rng(44)
        for _ in range(10):
            a = random_multivector(rng, SIG80, field)
            T = quantize(a)
            reference = sum(c * CL8_REFERENCE[m] for m, c in a.terms.items())
            assert np.abs(T - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
            back = dequantize(T)
            assert back.field == field
            assert (back - a).norm_inf() <= 1e-12 * max(1.0, a.norm_inf())

    def test_cl8_matrix_side(self):
        rng = np.random.default_rng(45)
        T = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        assert np.abs(quantize(dequantize(T)) - T).max() <= 1e-12

    @pytest.mark.parametrize("rep", ["weyl", "dirac"])
    def test_minkowski(self, rep):
        rng = np.random.default_rng(46)
        gammas = builtin_gammas(rep).gammas
        for _ in range(10):
            a = random_multivector(rng, SIG13, "complex")
            T = quantize_minkowski(a, rep)
            reference = sum(c * ascending_product(gammas, m) for m, c in a.terms.items())
            assert np.abs(T - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
            back = dequantize_minkowski(T, rep)
            assert (back - a).norm_inf() <= 1e-12 * max(1.0, a.norm_inf())
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.abs(quantize_minkowski(dequantize_minkowski(T, rep), rep) - T).max() <= 1e-12


class TestPermutationSign:
    def test_eps_is_the_determinant_of_the_permutation_matrix(self):
        eye = np.eye(4)
        for idx in np.ndindex(4, 4, 4, 4):
            expected = np.linalg.det(eye[list(idx)])  # 0 when an index repeats
            assert _EPS[idx] == round(expected)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_sign_matches_the_determinant(self, k):
        eye = np.eye(k)
        for perm in permutations(range(k)):
            assert permutation_sign(perm) == round(np.linalg.det(eye[list(perm)]))
