"""Cl(8,0) spinor machinery: the admissible pairing, graded bilinears, the
Fierz isomorphism, complexified classification, and the constraint operator."""

import numpy as np
import pytest

from spinorlab.algebra import Multivector, Signature, basis_blade, geometric_product
from spinorlab.errors import InvalidInput, UnsupportedSignature
from spinorlab.io import flux_from_json, m8_spinor_from_json
from spinorlab.m8 import (
    SIG80,
    SURVIVING_GRADES,
    FluxData,
    M8Class,
    build_constraint_operator,
    cgk_residual,
    chirality,
    classify_m8,
    complexified_bilinears,
    dequantize,
    fierz_identity_residual,
    fierz_polyform,
    flux_from_tensor,
    flux_with_kernel_spinor,
    gen_bilinear,
    kernel,
    pairing,
    quantize,
    rank_one_matrix,
)


def chirality_eigenspinor(sign: int) -> np.ndarray:
    diag = np.diag(chirality())
    out = np.zeros(16)
    out[np.where(diag == sign)[0][0]] = 1.0
    return out


class TestPairing:
    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.normal(size=16), rng.normal(size=16)
            assert pairing(x, y) == pairing(y, x)

    def test_unit_norm(self):
        x = np.zeros(16)
        x[3] = 1.0
        assert pairing(x, x) == 1.0

    def test_type_on_homogeneous_elements(self):
        # B(gamma(alpha) x, y) = B(x, gamma(rev alpha) y) for blades of every grade
        rng = np.random.default_rng(1)
        from itertools import combinations

        for k in range(9):
            idx = next(iter(combinations(range(1, 9), k)))
            blade = basis_blade(SIG80, idx)
            mat = quantize(blade)
            rev = quantize(blade.reverse())
            for _ in range(10):
                x, y = rng.normal(size=16), rng.normal(size=16)
                assert abs(pairing(mat @ x, y) - pairing(x, rev @ y)) <= 1e-10


class TestGenBilinears:
    def test_vanishing_grades(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=16)
            for k in (2, 3, 6, 7):
                assert gen_bilinear(x, x, k).norm_inf() <= 1e-12 * (1 + x @ x)

    def test_scalar_grade(self):
        x = np.zeros(16)
        x[5] = 1.0
        assert gen_bilinear(x, x, 0) == Multivector.scalar(SIG80, 1.0)

    def test_top_grade_is_chirality(self):
        xi = chirality_eigenspinor(+1)
        assert gen_bilinear(xi, xi, 8) == basis_blade(SIG80, range(1, 9))
        eta = chirality_eigenspinor(-1)
        assert gen_bilinear(eta, eta, 8) == -basis_blade(SIG80, range(1, 9))

    def test_grade_range(self):
        with pytest.raises(InvalidInput):
            gen_bilinear(np.zeros(16), np.zeros(16), 9)


class TestQuantization:
    def test_morphism_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            terms_a = {int(rng.integers(0, 256)): rng.normal() for _ in range(6)}
            terms_b = {int(rng.integers(0, 256)): rng.normal() for _ in range(6)}
            a, b = Multivector(SIG80, terms_a), Multivector(SIG80, terms_b)
            lhs = quantize(geometric_product(a, b))
            rhs = quantize(a) @ quantize(b)
            assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_round_trips(self):
        assert dequantize(np.eye(16)) == Multivector.scalar(SIG80, 1.0)
        e1 = basis_blade(SIG80, [1])
        assert dequantize(quantize(e1)) == e1
        rng = np.random.default_rng(4)
        T = rng.normal(size=(16, 16))
        assert np.abs(quantize(dequantize(T)) - T).max() <= 1e-10

    def test_blade_morphism_example(self):
        e1, e2 = basis_blade(SIG80, [1]), basis_blade(SIG80, [2])
        assert np.array_equal(quantize(geometric_product(e1, e2)), quantize(e1) @ quantize(e2))

    def test_non_simple_signature_rejected(self):
        with pytest.raises(UnsupportedSignature):
            dequantize(np.eye(16), Signature(1, 0))
        with pytest.raises(UnsupportedSignature):
            dequantize(np.eye(16), Signature(5, 0))


class TestFierz:
    def test_polyform_quantizes_to_rank_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.normal(size=16), rng.normal(size=16)
            E = fierz_polyform(x, y)
            assert np.abs(quantize(E) - rank_one_matrix(x, y)).max() <= 1e-10 * (
                1 + abs(pairing(x, x) * pairing(y, y))
            )

    def test_scalar_part(self):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=16), rng.normal(size=16)
        assert abs(fierz_polyform(x, y).scalar_part() - pairing(x, y) / 16.0) <= 1e-12

    def test_zero(self):
        assert fierz_polyform(np.zeros(16), np.zeros(16)).is_zero()

    @pytest.mark.parametrize("route", ["rank_one_matrix", "quantize"])
    def test_identity_residual_keeps_nan(self, monkeypatch, route):
        # a NaN in the matrix route (second) or the bridge (third) was dropped by a plain max;
        # the matrix route forms its rank-one matrices with np.outer on the validated spinors,
        # as rank_one_matrix does, so that is where its NaN is planted
        import spinorlab.m8 as m8

        owner, name = (m8.np, "outer") if route == "rank_one_matrix" else (m8, route)
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: original(*args) * np.nan)
        rng = np.random.default_rng(8)
        assert np.isnan(fierz_identity_residual(*(rng.normal(size=16) for _ in range(4))))

    def test_unit_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=16)
        x /= np.linalg.norm(x)
        assert fierz_identity_residual(x, x, x, x) <= 1e-12

    def test_orthogonal_pair_annihilates(self):
        x2 = np.zeros(16)
        x2[0] = 1.0
        x3 = np.zeros(16)
        x3[1] = 1.0
        rng = np.random.default_rng(8)
        x1, x4 = rng.normal(size=16), rng.normal(size=16)
        from spinorlab.algebra import dense_table

        table = dense_table(SIG80)
        prod = table.product(
            fierz_polyform(x1, x2).to_vector(), fierz_polyform(x3, x4).to_vector()
        )
        assert np.abs(prod).max() <= 1e-12 * (1 + np.abs(x1).max() * np.abs(x4).max())

    def test_random_quadruples(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            quad = [rng.normal(size=16) for _ in range(4)]
            assert fierz_identity_residual(*quad) <= 1e-10


class TestComplexified:
    def test_reduces_to_real_cases(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=16)
        zero = np.zeros(16)
        for k in (0, 1, 4, 5, 8):
            real_only = complexified_bilinears(x, zero, k)
            assert (real_only - gen_bilinear(x, x, k).to_complex()).norm_inf() <= 1e-12
            imag_only = complexified_bilinears(zero, x, k)
            assert (imag_only + gen_bilinear(x, x, k).to_complex()).norm_inf() <= 1e-12

    def test_equal_parts_double_into_imaginary(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=16)
        for k in (0, 1, 4, 5, 8):
            mv = complexified_bilinears(x, x, k)
            target = gen_bilinear(x, x, k).to_complex() * 2j
            assert (mv - target).norm_inf() <= 1e-12 * (1 + x @ x)

    def test_cross_grades_vanish(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            xr, xi = rng.normal(size=16), rng.normal(size=16)
            for k in (2, 3, 6, 7):
                assert complexified_bilinears(xr, xi, k).norm_inf() <= 1e-12 * (
                    1 + xr @ xr + xi @ xi
                )


class TestClassifyM8:
    def test_pinned_patterns(self):
        rng = np.random.default_rng(13)
        generic = classify_m8(rng.normal(size=16), np.zeros(16))
        assert generic.pattern == (True,) * 5 and generic.label == 31
        pure = classify_m8(chirality_eigenspinor(+1), np.zeros(16))
        assert pure.pattern == (True, False, True, False, True) and pure.label == 21
        trivial = classify_m8(np.zeros(16), np.zeros(16))
        assert trivial.pattern == (False,) * 5 and trivial.label == 0

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            xr, xi = rng.normal(size=16), rng.normal(size=16)
            base = classify_m8(xr, xi)
            assert classify_m8(-xi, xr) == base
            assert classify_m8(3.0 * xr, 3.0 * xi) == base

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_finite(self, tol):
        with pytest.raises(InvalidInput):
            classify_m8(np.ones(16), np.zeros(16), tol)

    def test_label_is_binary_pattern(self):
        rng = np.random.default_rng(15)
        cls = classify_m8(rng.normal(size=16), rng.normal(size=16))
        assert cls.label == sum(1 << i for i, f in enumerate(cls.pattern) if f)

    @staticmethod
    def _per_grade_maxima(xr, xi):
        return [complexified_bilinears(xr, xi, k).norm_inf() for k in SURVIVING_GRADES]

    def test_maxima_match_per_grade_covariants(self):
        rng = np.random.default_rng(16)
        inputs = [(rng.normal(size=16), rng.normal(size=16)) for _ in range(20)]
        inputs += [(rng.normal(size=16), np.zeros(16)), (chirality_eigenspinor(+1), np.zeros(16))]
        for xr, xi in inputs:
            cls = classify_m8(xr, xi)
            assert len(cls.maxima) == len(SURVIVING_GRADES)
            for got, want in zip(cls.maxima, self._per_grade_maxima(xr, xi)):
                assert abs(got - want) <= 1e-13 * max(want, 1e-300)
            assert cls.pattern == tuple(m > 1e-10 * (1 + xr @ xr + xi @ xi) for m in cls.maxima)

    def test_grade_five_maximum_on_its_first_blade(self):
        # The largest grade-5 covariant sits on e12345 (mask 0b11111), the first
        # grade-5 blade, and exceeds every grade-4 one: a grade boundary placed one
        # blade late moves it into grade 4 and changes both maxima.
        rng = np.random.default_rng(50)
        xr, xi = rng.normal(size=16), rng.normal(size=16)
        g5 = complexified_bilinears(xr, xi, 5)
        assert max(g5.terms, key=lambda m: abs(g5.terms[m])) == 0b11111
        assert g5.norm_inf() > complexified_bilinears(xr, xi, 4).norm_inf()
        cls = classify_m8(xr, xi)
        for got, want in zip(cls.maxima, self._per_grade_maxima(xr, xi)):
            assert abs(got - want) <= 1e-13 * want

    def test_maxima_take_no_part_in_equality(self):
        cls = classify_m8(np.ones(16), np.zeros(16))
        assert cls == M8Class(cls.pattern, cls.label)
        assert hash(cls) == hash(M8Class(cls.pattern, cls.label))
        assert M8Class(cls.pattern, cls.label).maxima == ()


class TestConstraints:
    def test_zero_flux(self):
        op = build_constraint_operator(FluxData())
        assert np.abs(op.Q).max() == 0.0
        assert kernel(op.Q).shape[1] == 16

    def test_kappa_only(self):
        op = build_constraint_operator(FluxData(kappa=2.0))
        assert np.array_equal(op.Q, -2.0 * chirality())
        assert kernel(op.Q).shape[1] == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_kernel_rejects_non_finite_operator(self, bad):
        Q = np.eye(16)
        Q[3, 5] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            kernel(Q)

    def test_flux_validation(self):
        with pytest.raises(InvalidInput):
            FluxData(F={(2, 1, 3, 4): 1.0})
        with pytest.raises(InvalidInput):
            FluxData(F={(1, 1, 3, 4): 1.0})
        with pytest.raises(InvalidInput):
            FluxData(f=(1.0,) * 4)
        with pytest.raises(InvalidInput):
            FluxData(F={("a", 2, 3, 4): 1.0})

    @pytest.mark.parametrize("key,message", [
        ((2, 1, 3, 4), r"strictly ascending: \(2, 1, 3, 4\)"),
        ((1, 1, 3, 4), r"strictly ascending: \(1, 1, 3, 4\)"),
        ((np.int64(4), 3, 2, 1), r"strictly ascending: \(4, 3, 2, 1\)"),
        ((0, 1, 2, 3), r"bad 4-form index tuple \(0, 1, 2, 3\)"),
        ((1, 2, 3, 9), r"bad 4-form index tuple \(1, 2, 3, 9\)"),
        ((1, 2, 3), r"bad 4-form index tuple \(1, 2, 3\)"),
        ((1, 2, 3, 4, 5), r"bad 4-form index tuple \(1, 2, 3, 4, 5\)"),
        ((1.5, 2, 3, 4), r"bad 4-form index tuple \(1.5, 2, 3, 4\)"),
        ("1234", r"bad 4-form index tuple '1234'"),
        (("a", 2, 3, 4), r"bad 4-form index tuple \('a', 2, 3, 4\)"),
        (5, r"bad 4-form index tuple 5"),
    ])
    def test_flux_key_rejections(self, key, message):
        """Keys outside the 70 ascending tuples raise InvalidInput, naming the fault."""
        with pytest.raises(InvalidInput, match=message):
            FluxData(F={key: 1.0})
        with pytest.raises(InvalidInput, match=message):
            FluxData(F={(1, 2, 3, 5): 1.0, key: 1.0})

    def test_flux_keys_canonicalise(self):
        """numpy-int, float and other int-valued keys are stored under the Python-int tuple."""
        for key in ((np.int64(1), 2, 3, 4), (1.0, 2.0, 3.0, 4.0), (np.int8(1), np.uint16(2), 3, np.float64(4)),
                    (True, 2, 3, 4)):
            flux = FluxData(F={key: 2, (5, 6, 7, 8): np.float32(0.5), (2, 3, 4, 5): 0.0})
            assert flux.F == {(1, 2, 3, 4): 2.0, (5, 6, 7, 8): 0.5}, key
            assert all(type(i) is int for idx in flux.F for i in idx), key
            assert all(type(v) is float for v in flux.F.values()), key

    def test_tensor_antisymmetry_gate(self):
        from itertools import permutations

        F4 = np.zeros((8, 8, 8, 8))
        F4[0, 1, 2, 3] = 1.0
        with pytest.raises(InvalidInput):
            flux_from_tensor(F4)
        F4 = np.zeros((8, 8, 8, 8))
        for perm in permutations((0, 1, 2, 3)):
            sign = 1.0
            for a in range(4):
                for b in range(a + 1, 4):
                    if perm[a] > perm[b]:
                        sign = -sign
            F4[perm] = sign
        flux = flux_from_tensor(F4)
        assert flux.F == {(1, 2, 3, 4): 1.0}

    def test_kernel_flux_and_cgk(self):
        rng = np.random.default_rng(16)
        for trial in range(5):
            xi = rng.normal(size=16)
            xi /= np.linalg.norm(xi)
            flux = flux_with_kernel_spinor(xi, rng)
            op = build_constraint_operator(flux)
            assert np.abs(op.Q - op.Q.T).max() == 0.0  # f = 0 keeps Q symmetric
            assert np.abs(op.Q @ xi).max() <= 1e-12
            basis = kernel(op.Q)
            assert basis.shape[1] >= 1
            for i in range(basis.shape[1]):
                for j in range(basis.shape[1]):
                    assert cgk_residual(op.Q, basis[:, i], basis[:, j]) <= 1e-9

    def test_cgk_nonzero_off_kernel(self):
        rng = np.random.default_rng(17)
        xi = rng.normal(size=16)
        flux = flux_with_kernel_spinor(xi, rng)
        op = build_constraint_operator(flux)
        outside = rng.normal(size=16)
        assert cgk_residual(op.Q, outside, outside) > 1e-6


def flux_seeds():
    """Seeds for the flux draw: random, single-chirality, nearly single-chirality
    (1e-12 of the other half), a basis spinor with subnormal noise, a sparse one,
    and random ones scaled by 1e-300 and by 1e150."""
    rng = np.random.default_rng(61)
    diag = np.diag(chirality())
    seeds = []
    for _ in range(3):
        x = rng.normal(size=16)
        plus = np.where(diag > 0, x, 0.0)
        nearly = plus + 1e-12 * np.where(diag < 0, rng.normal(size=16), 0.0)
        basis = np.eye(16)[rng.integers(16)] + 5e-324 * rng.integers(-3, 4, size=16)
        sparse = np.where(rng.random(16) < 0.2, x, 0.0)
        sparse[rng.integers(16)] = 1.0
        seeds += [x, plus, np.where(diag < 0, x, 0.0), nearly, basis, sparse, 1e-300 * x, 1e150 * x]
    return seeds


class TestFluxDraw:
    @pytest.mark.parametrize("x", flux_seeds())
    def test_response_has_rank_16(self, x):
        from spinorlab.m8 import _flux_response

        A = _flux_response(x)
        s = np.linalg.svd(A, compute_uv=False)
        assert np.linalg.matrix_rank(A) == 16
        assert s[-1] > s[0] / 100  # the projection's 16 x 16 solve is well posed

    @pytest.mark.parametrize("x", flux_seeds())
    def test_drawn_flux_annihilates_its_seed(self, x):
        unit = x / np.abs(x).max()  # Q x at 1e-300 would be subnormal: |Q x| / |x| is read on x / |x|_max
        for seed in range(3):
            flux = flux_with_kernel_spinor(x, seed)
            Q = build_constraint_operator(flux).Q
            assert not any(flux.f)
            assert np.abs(Q @ unit).max() <= 1e-12 * np.abs(Q).max() * np.linalg.norm(unit)
            weights = np.array([*flux.dDelta, *flux.F.values(), flux.kappa])
            assert len(flux.F) == 70 and abs(np.linalg.norm(weights) - 1.0) <= 1e-15

    def test_draw_does_not_depend_on_the_seed_scale(self):
        x = np.random.default_rng(62).normal(size=16)
        flux = flux_with_kernel_spinor(x, 4)
        assert flux_with_kernel_spinor(2.0**-1000 * x, 4) == flux  # bit for bit
        for c in (1e-300, 3.7, 1e150):
            other = flux_with_kernel_spinor(c * x, 4)
            assert max(abs(a - b) for a, b in zip(other.F.values(), flux.F.values())) <= 1e-14

    def test_draw_is_uniform_on_the_nullspace_sphere(self):
        # E[w w^T] of a unit vector uniform on the sphere of the 63-dim nullspace is P / 63
        from spinorlab.m8 import _FOUR_FORMS, _flux_response

        x = np.random.default_rng(63).normal(size=16)
        A = _flux_response(x)
        P = np.eye(79) - A.T @ np.linalg.solve(A @ A.T, A)
        rng = np.random.default_rng(64)
        draws = []
        for _ in range(2000):
            flux = flux_with_kernel_spinor(x, rng)
            draws.append([*flux.dDelta, *(flux.F[idx] for idx in _FOUR_FORMS), flux.kappa])
        W = np.array(draws)
        assert np.abs(A @ W.T).max() <= 1e-14
        assert np.abs(W.T @ W / len(W) - P / 63).max() <= 3e-3

    def test_rng_is_a_generator_or_a_seed(self):
        x = np.random.default_rng(65).normal(size=16)
        assert flux_with_kernel_spinor(x, 5) == flux_with_kernel_spinor(x, np.random.default_rng(5))
        assert flux_with_kernel_spinor(x) == flux_with_kernel_spinor(x, 0)
        for bad in ("abc", -1, 1.5):
            with pytest.raises(InvalidInput, match="rng"):
                flux_with_kernel_spinor(x, bad)

    def test_drawn_flux_equals_the_validated_one(self):
        flux = flux_with_kernel_spinor(np.random.default_rng(66).normal(size=16), 7)
        assert flux == FluxData(f=flux.f, F=flux.F, dDelta=flux.dDelta, kappa=flux.kappa)
        assert all(type(i) is int for idx in flux.F for i in idx)
        assert all(type(v) is float for v in (*flux.f, *flux.dDelta, *flux.F.values(), flux.kappa))

    def test_only_zero_seeds_are_refused(self):
        for tiny in (np.full(16, 1e-300), np.eye(16)[3] * 5e-324):
            Q = build_constraint_operator(flux_with_kernel_spinor(tiny, 1)).Q
            assert np.abs(Q @ (tiny / np.abs(tiny).max())).max() <= 1e-12 * np.abs(Q).max()
        for zero in (np.zeros(16), np.full(16, -0.0)):
            with pytest.raises(InvalidInput, match="nonzero"):
                flux_with_kernel_spinor(zero, 1)


class TestOperatorInput:
    @pytest.mark.parametrize("bad", [
        np.eye(16, dtype=complex),
        np.eye(16) + 1e-3j,
        np.full((16, 16), "1.0"),
        np.eye(16)[None],
    ])
    def test_kernel_and_cgk_need_a_real_matrix(self, bad):
        x = np.eye(16)[0]
        with pytest.raises(InvalidInput, match="real matrix"):
            kernel(bad)
        with pytest.raises(InvalidInput, match="real matrix"):
            cgk_residual(bad, x, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cgk_rejects_non_finite_operator(self, bad):
        Q = np.eye(16)
        Q[3, 5] = bad
        x = np.eye(16)[0]
        with pytest.raises(InvalidInput, match="non-finite"):
            cgk_residual(Q, x, x)

    def test_integer_operator_reads_as_float(self):
        x = np.eye(16)[0]
        assert kernel(np.zeros((16, 16), dtype=int)).shape == (16, 16)
        assert cgk_residual(np.eye(16, dtype=int), x, x) == cgk_residual(np.eye(16), x, x)

    def test_one_pass_cgk_has_the_bits_of_two_pairings(self):
        # E_xy and E_yx read off one act of the (16, 2) block, against CL8.pairings each
        from spinorlab.algebra import _dense_contract
        from spinorlab.m8 import CL8

        def two_pass(Q, x, y):
            q_form = CL8.dequantize(Q)
            exy, eyx = CL8.pairings(x, y) / 16.0, CL8.pairings(y, x) / 16.0
            scale = max(1.0, float(np.abs(exy).max()) * max(1.0, float(np.abs(q_form).max())))
            left = float(np.abs(_dense_contract(SIG80, exy, q_form, "product")).max())
            right = float(np.abs(_dense_contract(SIG80, q_form, eyx, "product")).max())
            return (left + right) / scale

        rng = np.random.default_rng(67)
        for trial in range(40):
            x = rng.normal(size=16) * 10.0 ** rng.integers(-3, 4)
            flux = flux_with_kernel_spinor(x, rng)
            Q = build_constraint_operator(flux).Q
            y = kernel(Q)[:, 0] if trial % 2 else rng.normal(size=16)
            assert cgk_residual(Q, x, y) == two_pass(Q, x, y), trial


class TestJson:
    def test_spinor_parse(self):
        xr, xi = m8_spinor_from_json({"real": [1.0] + [0.0] * 15})
        assert xr[0] == 1.0 and np.abs(xi).max() == 0.0
        with pytest.raises(InvalidInput):
            m8_spinor_from_json({"real": [1.0] * 15})

    @pytest.mark.parametrize(
        "doc",
        [
            {"real": [1.0] * 15 + ["x"]},
            {"real": [1.0] * 16, "imag": 3},
            {"real": [1.0] * 16, "imag": [None] * 16},
            {"real": "1234567890123456"},
            {"real": 5},
            {"imag": [0.0] * 16},
            [[1.0] * 16],
            {"real": [1.0] * 15 + ["1.5"]},
            {"real": [True] + [0.0] * 15},
            {"real": [1.0] * 16, "imag": [False] * 16},
        ],
    )
    def test_malformed_documents_raise_invalid_input(self, doc):
        with pytest.raises(InvalidInput):
            m8_spinor_from_json(doc)

    def test_flux_parse(self):
        doc = {
            "f": [0.0] * 8,
            "F": [{"indices": [1, 2, 3, 4], "value": 2.0}],
            "dDelta": [0.1] * 8,
            "kappa": 0.5,
        }
        flux = flux_from_json(doc)
        assert flux.F == {(1, 2, 3, 4): 2.0} and flux.kappa == 0.5

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            "f",
            {"f": "12345678"},
            {"kappa": 10**400},
            {"F": {"indices": [1, 2, 3, 4], "value": 1.0}},
            {"F": [[1, 2, 3, 4]]},
            {"F": [{"indices": "1234", "value": 1.0}]},
            {"F": [{"indices": [1, 2, 3, 4.5], "value": 1.0}]},
            {"F": [{"indices": [1, 2, 3, 4]}]},
            {"F": [{"indices": [1, 2, 3, 4.0], "value": 1.0}]},
            {"F": [{"indices": [1, 2, 3, True], "value": 1.0}]},
            {"F": [{"indices": [1, 2, 3, 4], "value": "1.0"}]},
            {"f": [0.0] * 7 + [True]},
            {"kappa": "0.5"},
        ],
    )
    def test_malformed_flux_documents_raise_invalid_input(self, doc):
        with pytest.raises(InvalidInput):
            flux_from_json(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["f", "dDelta", "F", "kappa"])
    def test_flux_rejects_non_finite(self, where, bad):
        fields = {"f": (0.0,) * 8, "dDelta": (0.0,) * 8, "F": {(1, 2, 3, 4): 1.0}, "kappa": 0.5}
        if where == "F":
            fields["F"] = {(1, 2, 3, 4): 1.0, (2, 3, 5, 8): bad}
        elif where == "kappa":
            fields["kappa"] = bad
        else:
            fields[where] = (0.0,) * 7 + (bad,)
        with pytest.raises(InvalidInput):
            FluxData(**fields)
        doc = {key: list(value) if key in ("f", "dDelta") else value for key, value in fields.items()}
        doc["F"] = [{"indices": list(idx), "value": val} for idx, val in fields["F"].items()]
        with pytest.raises(InvalidInput):
            flux_from_json(doc)


class TestFluxFTerm:
    def test_f_term_uses_hodge_dual(self):
        from spinorlab.structure import hodge

        f = tuple(float(x) for x in np.arange(1, 9) / 10.0)
        op = build_constraint_operator(FluxData(f=f))
        expected = np.zeros((16, 16))
        for p in range(8):
            expected -= (f[p] / 6.0) * quantize(hodge(basis_blade(SIG80, [p + 1])))
        assert np.abs(op.Q - expected).max() == 0.0
        # the f-term is the only antisymmetric (reversion-odd) piece of Q
        assert np.abs(op.Q + op.Q.T).max() <= 1e-14

    def test_mixed_flux_transpose_split(self):
        rng = np.random.default_rng(18)
        flux = FluxData(
            f=tuple(rng.normal(size=8)),
            F={(1, 2, 3, 4): 0.7, (2, 4, 6, 8): -0.3},
            dDelta=tuple(rng.normal(size=8)),
            kappa=0.4,
        )
        Q = build_constraint_operator(flux).Q
        f_only = build_constraint_operator(FluxData(f=flux.f)).Q
        sym_part = build_constraint_operator(
            FluxData(F=flux.F, dDelta=flux.dDelta, kappa=flux.kappa)
        ).Q
        assert np.abs(Q - f_only - sym_part).max() <= 1e-14
        assert np.abs(sym_part - sym_part.T).max() == 0.0
