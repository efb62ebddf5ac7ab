"""The stacked blade tensor of a gamma bundle and the contractions built on it:
every stacked blade against the ascending generator product, the bilinears and
the Fierz polyforms against per-blade matrix chains, and the quantize /
dequantize pairs as inverses of each other."""

import ast
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest

import spinorlab
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
        for bad in (np.ones(16), np.ones((2, 255)), np.float64(1.0)):
            with pytest.raises(InvalidInput):
                builtin_gammas("cl8").quantize(bad)
        for bad in (np.ones(256), np.ones((3, 16, 4)), np.ones((16, 16, 2))):
            with pytest.raises(InvalidInput):
                builtin_gammas("cl8").dequantize(bad)


STACKED_BUNDLES = [pytest.param(builtin_gammas(name), id=name) for name in BUNDLES]


@pytest.mark.parametrize("rep", STACKED_BUNDLES)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_stacked_calls_repeat_the_single_calls(rep, kind):
    """quantize and dequantize over leading axes equal the per-entry calls bit for bit."""
    rng = np.random.default_rng(47)
    blades, dim = 1 << rep.sig.n, rep.dim
    coeffs = rng.normal(size=(2, 3, blades))
    matrices = rng.normal(size=(5, dim, dim))
    if kind == "complex":
        coeffs = coeffs + 1j * rng.normal(size=coeffs.shape)
        matrices = matrices + 1j * rng.normal(size=matrices.shape)
    T = rep.quantize(coeffs)
    assert T.shape == (2, 3, dim, dim)
    assert np.array_equal(T, [[rep.quantize(c) for c in line] for line in coeffs])
    if dim * dim != blades:  # Pauli: no trace-pairing inverse
        return
    back = rep.dequantize(matrices)
    assert back.shape == (5, blades)
    assert np.array_equal(back, [rep.dequantize(m) for m in matrices])
    assert np.abs(rep.dequantize(T) - coeffs).max() <= 1e-14 * np.abs(coeffs).max()
    assert np.abs(rep.quantize(back) - matrices).max() <= 1e-14 * np.abs(matrices).max()


@pytest.mark.parametrize("rep", STACKED_BUNDLES)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_act_on_a_block_repeats_the_single_calls(rep, kind):
    """act on a (dim, k) block equals the k single-spinor calls bit for bit, and
    pairings(x, y, masks) is act(y, masks) @ x."""
    rng = np.random.default_rng(53)
    block, x = rng.normal(size=(rep.dim, 3)), rng.normal(size=rep.dim)
    if kind == "complex":
        block, x = block + 1j * rng.normal(size=block.shape), x + 1j * rng.normal(size=x.shape)
    top = (1 << rep.sig.n) - 1
    for masks in (slice(None), np.array([top, 0, 3, 1])):
        out = rep.act(block, masks)
        for j in range(block.shape[1]):
            single = rep.act(block[:, j], masks)
            assert out[..., j].shape == single.shape
            assert np.array_equal(out[..., j], single), (masks, j)
            assert np.array_equal(rep.pairings(x, block[:, j], masks), single @ x)
    assert np.array_equal(rep.act(block[:, 0])[top], rep.gamma_blade(top) @ block[:, 0])


@pytest.mark.parametrize("rep", STACKED_BUNDLES)
def test_act_in_place_has_the_bits_of_the_copied_blades(rep):
    """act multiplies the whole stack in place and selects the listed rows; act and
    pairings keep the bits of multiplying a copy of the listed blades, for index
    arrays (repeats, any order), slices (any step), real and complex spinors and
    blocks, with signed zeros and subnormals among the entries."""
    from spinorlab.matrices import _matvec

    count = 1 << rep.sig.n
    rng = np.random.default_rng(54)
    for case in range(100):
        if case % 3 == 0:
            masks = rng.choice(count, size=rng.integers(1, 2 * count), replace=True)
        elif case % 3 == 1:
            start, stop = sorted(rng.integers(0, count + 1, size=2).tolist())
            masks = slice(start, stop, int(rng.choice([1, 2, 3]))) if case % 2 else slice(stop, start, -1)
        else:
            masks = np.sort(rng.choice(count, size=rng.integers(1, count + 1), replace=False))
        y, x = rng.normal(size=(2, rep.dim)) * 10.0 ** rng.integers(-150, 150, size=(2, rep.dim))
        if case % 2:
            y, x = y + 1j * rng.normal(size=rep.dim), x - 1j * rng.normal(size=rep.dim)
        y[case % rep.dim] = (0.0, -0.0, 5e-324, -1e-310)[case % 4]
        block = np.stack((y, rng.normal(size=rep.dim)), axis=1)
        rows = rep.blades[masks].reshape(-1, rep.dim)  # the listed blades, copied
        want = _matvec(rows, y).reshape(-1, rep.dim)
        assert rep.act(y, masks).tobytes() == want.tobytes(), (case, masks)
        assert rep.pairings(x, y, masks).tobytes() == (want @ x).tobytes(), (case, masks)
        assert rep.act(block, masks).tobytes() == (rows @ block).reshape(-1, rep.dim, 2).tobytes()


def test_only_matrices_reads_the_blade_stack():
    """Outside matrices no module reads a bundle's `blades`: the stack's storage is
    RepBundle's alone, and every other module calls act, pairings, quantize,
    dequantize or gamma_blade."""
    package = Path(spinorlab.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "matrices.py")
    assert len(modules) >= 8
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "blades"]
    assert not found, found


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
