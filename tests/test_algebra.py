"""Blade arithmetic: constructors, products, involutions, norms, and the
algebraic laws they must satisfy."""

import math

import numpy as np
import pytest

from spinorlab.algebra import (
    Multivector,
    Signature,
    approx_equal,
    basis_blade,
    blade_indices,
    blade_mask,
    blade_order,
    contracted_wedge,
    frame_contraction,
    geometric_product,
    geometric_product_contracted,
    grade_project,
    involution,
    left_contraction,
    linear_combine,
    norms,
    sharp,
    wedge,
)
from spinorlab.errors import InvalidInput, SignatureMismatch
from spinorlab.io import multivector_from_json, multivector_to_json

S30 = Signature(3, 0)
S42 = Signature(4, 2)
S12 = Signature(1, 2)


def random_mv(sig, rng, density=0.6, complex_coeffs=False):
    terms = {}
    for mask in range(1 << sig.n):
        if rng.random() < density:
            terms[mask] = rng.normal() + (1j * rng.normal() if complex_coeffs else 0.0)
    field = "complex" if complex_coeffs else "real"
    return Multivector(sig, terms, field)


def random_homogeneous(sig, k, rng):
    from itertools import combinations

    terms = {}
    for idx in combinations(range(1, sig.n + 1), k):
        terms[sum(1 << (i - 1) for i in idx)] = rng.normal()
    return Multivector(sig, terms)


class TestConstructors:
    def test_scalar_unit(self):
        assert basis_blade(S30, []) == Multivector.scalar(S30, 1.0)

    def test_blade_examples(self):
        assert basis_blade(S42, [3, 6]).terms == {0b100100: 1.0}
        top = basis_blade(Signature(1, 3), [1, 2, 3, 4])
        assert top.terms == {0b1111: 1.0}

    def test_blade_rejects_bad_indices(self):
        with pytest.raises(InvalidInput, match=r"^indices \[1, 1\] not strictly ascending$"):
            basis_blade(S30, [1, 1])
        with pytest.raises(InvalidInput, match=r"^indices \[2, 1\] not strictly ascending$"):
            basis_blade(S30, [2, 1])
        with pytest.raises(InvalidInput, match=r"^indices \[4\] outside 1..3$"):
            basis_blade(S30, [4])
        with pytest.raises(InvalidInput, match=r"^indices \[0, 2\] outside 1..3$"):
            basis_blade(S30, [0, 2])

    @pytest.mark.parametrize("n", range(11))
    def test_blade_vocabulary_round_trips(self, n):
        """blade_indices inverts blade_mask on every mask, and blade_order is the
        (popcount, mask) sort whatever order the masks come in."""
        masks = np.arange(1 << n)
        for m in masks.tolist():
            idx = blade_indices(m)
            assert idx == sorted(idx) and len(idx) == bin(m).count("1")
            assert blade_mask(idx, n) == m and blade_mask(tuple(idx), n) == m
        want = masks[np.lexsort((masks, np.bitwise_count(masks)))].tolist()
        assert blade_order(masks.tolist()) == want
        assert blade_order(np.random.default_rng(n).permutation(masks).tolist()) == want

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", None], ids=repr)
    def test_masks_and_indices_must_be_integers(self, bad):
        with pytest.raises(InvalidInput, match="must be integers"):
            Multivector(S30, {bad: 1.0})
        with pytest.raises(InvalidInput, match="must be integers"):
            basis_blade(S30, [bad])

    def test_integer_masks_and_indices_read_as_plain_ints(self):
        mv = Multivector(S30, {np.int64(3): 1.0, True: 2.0})
        assert mv.terms == {3: 1.0, 1: 2.0} and all(type(m) is int for m in mv.terms)
        assert basis_blade(S30, [np.int32(1), 3]).terms == {0b101: 1.0}

    def test_linear_combine(self):
        e1 = basis_blade(S30, [1])
        assert linear_combine([(1, e1), (-1, e1)]).is_zero()
        e12, e23 = basis_blade(S30, [1, 2]), basis_blade(S30, [2, 3])
        combo = linear_combine([(2, e12), (1, e23)])
        assert combo == e12 * 2 + e23
        one = Multivector.scalar(S30, 1.0)
        assert linear_combine([(1, one), (1, e1)]) == one + e1

    def test_linear_combine_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            linear_combine([(1, basis_blade(S30, [1])), (1, basis_blade(S12, [1]))])

    def test_mixed_field_promotes(self):
        e1 = basis_blade(S30, [1])
        out = e1 + e1.to_complex() * 1j
        assert out.field == "complex"


SCALARS = [2, 2.0, 2 + 0j, np.int32(2), np.int64(2), np.float32(2), np.float64(2),
           np.complex64(2), np.complex128(2), 2 + 1j, np.complex128(2 + 1j)]


@pytest.mark.parametrize("s", SCALARS, ids=lambda s: f"{type(s).__name__}({s})")
def test_scalar_operands_on_either_side(s):
    """A zero-imaginary complex scalar acts as its real part; a nonzero one makes the result complex."""
    a = Multivector(S30, {0: 1.0, 0b011: -0.5})
    value = complex(s) if complex(s).imag else complex(s).real
    field = "complex" if isinstance(value, complex) else "real"
    cases = [
        (a + s, {0: 1.0 + value, 0b011: -0.5}),
        (s + a, {0: value + 1.0, 0b011: -0.5}),
        (a - s, {0: 1.0 - value, 0b011: -0.5}),
        (s - a, {0: value - 1.0, 0b011: 0.5}),
        (a * s, {0: value, 0b011: -0.5 * value}),
        (s * a, {0: value, 0b011: -0.5 * value}),
    ]
    for got, want in cases:
        assert isinstance(got, Multivector) and got.field == field
        assert got == Multivector(S30, want, field)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Multivector(S30, {0: 1j}), "complex coefficients for a real multivector"),
        (lambda: Multivector(S30, {0: np.complex128(1 + 2j)}), "complex coefficients for a real multivector"),
        (lambda: Multivector(S30, {0: 2 + 0j}), "complex coefficients for a real multivector"),
        (lambda: Multivector(S30, {0: np.complex64(2)}), "complex coefficients for a real multivector"),
        (lambda: Multivector.from_vector(S30, np.ones(8) * 1j, "real"), "complex coefficients for a real multivector"),
        (lambda: Multivector(S30, {0: 1.0}, "banana"), "unknown field tag 'banana'"),
        (lambda: Multivector.from_vector(S30, np.ones(8), "banana"), "unknown field tag 'banana'"),
        (lambda: Multivector.from_vector(S30, np.ones(8), 5), "unknown field tag 5"),
        (lambda: Multivector(S30, {0: "1"}), "coefficients must be Python or numpy numbers, got '1'"),
        (lambda: Multivector(S30, {0: None}), "coefficients must be Python or numpy numbers, got None"),
        (lambda: Multivector(S30, {0: [1.0]}), r"coefficients must be Python or numpy numbers, got \[1.0\]"),
        (lambda: Multivector(S30, {0: "1"}, "complex"), "coefficients must be Python or numpy numbers"),
        (lambda: Multivector(S30, [(0, 1.0)]), "terms must be a dict from blade mask to coefficient"),
    ],
    ids=["complex", "numpy-complex", "zero-imag", "numpy-zero-imag", "vector-complex", "field", "vector-field", "vector-field-int",
         "string", "none", "list", "complex-string", "pairs"],
)
def test_constructors_follow_one_rule(call, message):
    with pytest.raises(InvalidInput, match=message):
        call()


def test_constructors_accept_what_number_accepts():
    """Python and numpy numbers and bools for a real multivector; a complex field
    keeps a signed-zero imaginary part."""
    mv = Multivector(S30, {0: 1, 1: True, 2: np.float32(0.5), 3: np.int64(-2), 4: np.True_, 5: math.nan})
    assert repr(list(mv.terms.items())) == "[(0, 1.0), (1, 1.0), (2, 0.5), (3, -2.0), (4, 1.0), (5, nan)]"
    assert all(type(c) is float for c in mv.terms.values())
    assert Multivector(S30, {0: np.False_}).terms == {}
    cplx = Multivector(S30, {0: complex(1.0, -0.0), 1: np.complex64(1j), 2: 3, 3: np.True_}, "complex")
    assert repr(list(cplx.terms.items())) == "[(0, (1-0j)), (1, 1j), (2, (3+0j)), (3, (1+0j))]"
    assert Multivector.scalar(S30, np.True_) == Multivector.scalar(S30, True)


def test_non_numbers_are_not_scalars():
    a = Multivector(S30, {0: 1.0})
    for other in ("2", None, [2.0]):
        with pytest.raises(InvalidInput):
            Multivector.scalar(S30, other)
        for op in (lambda: a + other, lambda: other + a, lambda: a - other, lambda: a * other):
            with pytest.raises(TypeError):
                op()


class TestGeometricProduct:
    def test_golden_product_sig42(self):
        a = basis_blade(S42, [1]) + basis_blade(S42, [3, 6])
        b = (
            basis_blade(S42, [1])
            + basis_blade(S42, [2])
            + basis_blade(S42, [1, 4])
            + basis_blade(S42, [2, 5])
        )
        expected = {
            0: 1.0,
            0b1000: 1.0,
            0b11: 1.0,
            0b10011: 1.0,
            0b100101: 1.0,
            0b100110: 1.0,
            0b101101: -1.0,
            0b110110: -1.0,
        }
        assert geometric_product(a, b).terms == expected

    def test_generator_squares(self):
        for sig in (S30, S42, S12, Signature(0, 3)):
            for i in range(1, sig.n + 1):
                e = basis_blade(sig, [i])
                assert geometric_product(e, e) == Multivector.scalar(sig, float(sig.metric(i)))

    def test_fundamental_relation_exact(self):
        for sig in (S42, Signature(2, 3)):
            for i in range(1, sig.n + 1):
                for j in range(1, sig.n + 1):
                    ei, ej = basis_blade(sig, [i]), basis_blade(sig, [j])
                    anti = geometric_product(ei, ej) + geometric_product(ej, ei)
                    target = Multivector.scalar(sig, 2.0 * sig.metric(i) if i == j else 0.0)
                    assert anti == target

    def test_vector_product_decomposition(self):
        rng = np.random.default_rng(3)
        u = random_homogeneous(S30, 1, rng)
        v = random_homogeneous(S30, 1, rng)
        dot = geometric_product(u, v).scalar_part()
        assert approx_equal(geometric_product(u, v), wedge(u, v) + dot, 1e-12)

    def test_vector_homogeneous_decomposition(self):
        # u <> a = u ^ a + sharp(u) .| a and a <> u = (-1)^k (u ^ a - sharp(u) .| a)
        rng = np.random.default_rng(19)
        for sig in (Signature(2, 2), Signature(3, 0)):
            for k in range(sig.n + 1):
                for _ in range(20):
                    u = random_homogeneous(sig, 1, rng)
                    a = random_homogeneous(sig, k, rng)
                    contracted = left_contraction(sharp(u), a)
                    assert approx_equal(
                        geometric_product(u, a), wedge(u, a) + contracted, 1e-12
                    )
                    sign = -1.0 if k % 2 else 1.0
                    assert approx_equal(
                        geometric_product(a, u), (wedge(u, a) - contracted) * sign, 1e-12
                    )

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for n in range(7):
            for p in range(n + 1):
                sig = Signature(p, n - p)
                density = 0.6 if n <= 4 else 0.2
                for _ in range(500):
                    a, b, c = (random_mv(sig, rng, density) for _ in range(3))
                    lhs = geometric_product(geometric_product(a, b), c)
                    rhs = geometric_product(a, geometric_product(b, c))
                    assert approx_equal(lhs, rhs, 1e-10)

    def test_even_odd_grading(self):
        rng = np.random.default_rng(5)
        sig = Signature(2, 2)
        even = sum(
            (random_homogeneous(sig, k, rng) for k in (0, 2, 4)), Multivector.zero(sig)
        )
        odd = sum((random_homogeneous(sig, k, rng) for k in (1, 3)), Multivector.zero(sig))
        assert all(k % 2 == 0 for k in geometric_product(even, even).grades())
        assert all(k % 2 == 1 for k in geometric_product(even, odd).grades())
        assert all(k % 2 == 0 for k in geometric_product(odd, odd).grades())

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            geometric_product(basis_blade(S30, [1]), basis_blade(S12, [1]))


class TestWedgeContraction:
    def test_wedge_examples(self):
        e1 = basis_blade(S42, [1])
        assert wedge(e1, e1).is_zero()
        w = wedge(wedge(basis_blade(S42, [3]), basis_blade(S42, [6])),
                  wedge(basis_blade(S42, [1]), basis_blade(S42, [4])))
        assert w.terms == {0b101101: -1.0}
        alpha = basis_blade(S42, [2, 5])
        assert wedge(basis_blade(S42, []), alpha) == alpha

    def test_wedge_graded_commutativity(self):
        rng = np.random.default_rng(7)
        sig = Signature(3, 2)
        for ka in range(4):
            for kb in range(4):
                a, b = random_homogeneous(sig, ka, rng), random_homogeneous(sig, kb, rng)
                sign = -1.0 if (ka * kb) % 2 else 1.0
                assert approx_equal(wedge(a, b), wedge(b, a) * sign, 1e-12)

    def test_contraction_examples(self):
        e1 = basis_blade(S30, [1])
        assert left_contraction(e1, e1) == Multivector.scalar(S30, 1.0)
        e14 = wedge(e1, basis_blade(S30, [3]))
        assert left_contraction(e1, e14) == basis_blade(S30, [3])
        assert left_contraction(basis_blade(S30, [2]), Multivector.scalar(S30, 1.0)).is_zero()

    def test_contraction_delta_pairing_any_signature(self):
        sig = Signature(0, 3)
        e2 = basis_blade(sig, [2])
        assert left_contraction(e2, e2) == Multivector.scalar(sig, 1.0)

    def test_leibniz_rule(self):
        rng = np.random.default_rng(13)
        sig = Signature(2, 2)
        for _ in range(60):
            i = int(rng.integers(1, sig.n + 1))
            A = random_mv(sig, rng)
            B = random_mv(sig, rng)
            lhs = frame_contraction(i, wedge(A, B))
            rhs = wedge(frame_contraction(i, A), B) + wedge(
                A.grade_involution(), frame_contraction(i, B)
            )
            assert approx_equal(lhs, rhs, 1e-12)

    def test_adjointness_of_contraction_and_wedge(self):
        rng = np.random.default_rng(17)
        sig = Signature(2, 1)

        def pairing(a, b):
            return geometric_product(a.reverse(), b).scalar_part()

        for _ in range(50):
            theta = random_homogeneous(sig, 1, rng)
            a, b = random_mv(sig, rng), random_mv(sig, rng)
            lhs = pairing(left_contraction(sharp(theta), a), b)
            rhs = pairing(a, wedge(theta, b))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


class TestContractedWedge:
    def test_tau_examples_sig12(self):
        tau = basis_blade(S12, [1, 2, 3])
        assert contracted_wedge(tau, tau, 3) == Multivector.scalar(S12, 6.0)
        assert contracted_wedge(tau, tau, 1).is_zero()

    def test_disjoint_orders_vanish(self):
        e1, e2 = basis_blade(S42, [1]), basis_blade(S42, [2])
        assert contracted_wedge(e1, e2, 1).is_zero()
        assert contracted_wedge(e1, e2, 0) == wedge(e1, e2)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInput):
            contracted_wedge(basis_blade(S30, [1]), basis_blade(S30, [1]), -1)

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(23)
        for p in range(4):
            for q in range(4 - p):
                sig = Signature(p, q)
                for _ in range(20):
                    a, b = random_mv(sig, rng), random_mv(sig, rng)
                    assert approx_equal(
                        geometric_product(a, b), geometric_product_contracted(a, b), 1e-12
                    )


class TestGradeMapsAndNorms:
    def test_grade_project(self):
        a = Multivector.scalar(S42, 1.0) + basis_blade(S42, [4]) + basis_blade(S42, [1, 2])
        assert grade_project(a, 2) == basis_blade(S42, [1, 2])
        assert grade_project(a, 0) == Multivector.scalar(S42, 1.0)
        assert grade_project(basis_blade(S42, [1, 2]), 3).is_zero()
        assert grade_project(a, 9).is_zero()
        assert sum((grade_project(a, k) for k in range(7)), Multivector.zero(S42)) == a

    def test_involution_signs(self):
        e12 = basis_blade(S30, [1, 2])
        e123 = basis_blade(S30, [1, 2, 3])
        assert involution(e12, "reversion") == -e12
        assert involution(Multivector.scalar(S30, 2.5), "grade_involution") == Multivector.scalar(
            S30, 2.5
        )
        assert involution(e123, "conjugation") == e123
        with pytest.raises(InvalidInput):
            involution(e12, "transpose")

    def test_reversion_antiautomorphism(self):
        rng = np.random.default_rng(31)
        sig = Signature(2, 2)
        for _ in range(40):
            a, b = random_mv(sig, rng), random_mv(sig, rng)
            assert approx_equal(
                geometric_product(a, b).reverse(),
                geometric_product(b.reverse(), a.reverse()),
                1e-12,
            )
            assert approx_equal(
                geometric_product(a, b).grade_involution(),
                geometric_product(a.grade_involution(), b.grade_involution()),
                1e-12,
            )

    def test_norms_examples(self):
        assert norms(Multivector.scalar(S30, 1.0)) == (1.0, 1.0)
        s20 = Signature(2, 0)
        n, nprime = norms(basis_blade(s20, [1, 2]))
        assert n == 1.0 and nprime == 1.0
        s01 = Signature(0, 1)
        n, nprime = norms(basis_blade(s01, [1]))
        assert n == -1.0 and nprime == 1.0

    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_norm_inf_keeps_nan_wherever_it_sits(self, position, field):
        # max(1.0, nan) is 1.0: a plain max dropped a NaN that was not the first term
        finite = [(1, 1.0), (2, -2.0)]
        nan_term = [(0, float("nan"))]
        terms = nan_term + finite if position == "first" else finite + nan_term
        mv = Multivector(Signature(2, 0), dict(terms), field)
        assert np.isnan(list(mv.terms.values())[0 if position == "first" else -1])
        assert np.isnan(mv.norm_inf())

    def test_norm_inf_finite_values(self):
        assert Multivector.zero(S30).norm_inf() == 0.0
        assert Multivector(S30, {0: -3.0, 5: 2.0, 7: float("inf")}).norm_inf() == float("inf")
        assert Multivector(S30, {0: -3.0, 5: 2.0}).norm_inf() == 3.0
        assert Multivector(S30, {1: 3 + 4j}, "complex").norm_inf() == 5.0

    def test_norm_parity_relation(self):
        rng = np.random.default_rng(37)
        sig = Signature(3, 1)
        for k in range(sig.n + 1):
            a = random_homogeneous(sig, k, rng)
            n, nprime = norms(a)
            assert abs(nprime - (-1) ** k * n) <= 1e-12 * max(1.0, abs(n))


class TestApproxEqualAndJson:
    def test_approx_equal(self):
        e1, e2 = basis_blade(S30, [1]), basis_blade(S30, [2])
        assert approx_equal(e1, e1, 1e-12)
        assert approx_equal(e1, e1 + e2 * 1e-15, 1e-12)
        assert not approx_equal(e1, e2, 1e-12)
        with pytest.raises(InvalidInput):
            approx_equal(e1, e1, 0.0)

    def test_json_round_trip_lossless(self):
        rng = np.random.default_rng(41)
        for complex_coeffs in (False, True):
            mv = random_mv(S42, rng, complex_coeffs=complex_coeffs)
            doc = multivector_to_json(mv)
            back = multivector_from_json(doc)
            assert back == mv and back.field == mv.field

    def test_json_rejects_malformed(self):
        with pytest.raises(InvalidInput):
            multivector_from_json({"p": 2, "q": 0, "terms": [{"indices": [2, 1], "re": 1.0}]})
        with pytest.raises(InvalidInput):
            multivector_from_json({"q": 0, "terms": []})
        for terms in (5, [1], [[1]]):
            with pytest.raises(InvalidInput):
                multivector_from_json({"p": 2, "q": 0, "terms": terms})

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 2, "q": 0.9, "terms": []},
            {"p": 2.0, "q": 0, "terms": []},
            {"p": "2", "q": 0, "terms": []},
            {"p": True, "q": 0, "terms": []},
            {"p": 2, "q": 0, "terms": [{"indices": [1.7, "2"], "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": [1, 2.0], "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": [True], "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": "12", "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": 1, "re": 1.0}]},
            {"p": 2, "q": 0, "terms": [{"indices": [1], "re": "1.5"}]},
            {"p": 2, "q": 0, "terms": [{"indices": [1], "re": True}]},
            {"p": 2, "q": 0, "field": "complex", "terms": [{"indices": [1], "re": 1.0, "im": False}]},
        ],
    )
    def test_json_accepts_numbers_only(self, doc):
        # each of these once decoded, the strings and bools coerced and 0.9 read as 0
        with pytest.raises(InvalidInput):
            multivector_from_json(doc)

    @pytest.mark.parametrize(
        "term",
        [
            {"indices": [1], "re": float("nan")},
            {"indices": [1], "re": float("-inf")},
            {"indices": [1, 2], "re": 1.0, "im": float("inf")},
            {"indices": [2], "re": "one"},
            {"indices": [2], "re": 10**400},
        ],
    )
    def test_json_rejects_bad_coefficients(self, term):
        doc = {"p": 2, "q": 0, "field": "complex" if "im" in term else "real", "terms": [term]}
        with pytest.raises(InvalidInput):
            multivector_from_json(doc)



def _tol_inputs():
    """Valid inputs for every public function that takes a tol."""
    from types import SimpleNamespace

    from spinorlab import matrices, minkowski

    S20 = Signature(2, 0)
    f1 = (Multivector.scalar(S20, 1.0) + basis_blade(S20, [1])) * 0.5
    psi = minkowski.DiracSpinor("weyl", (1.0, 0.5j, 0.25, -0.5))
    return SimpleNamespace(
        e1=basis_blade(S30, [1]), e2=basis_blade(S30, [2]),
        B=linear_combine([(0.5, basis_blade(S30, [1, 2])), (0.2, basis_blade(S30, [1, 3])),
                          (0.1, basis_blade(S30, [2, 3]))]),
        S20=S20, f1=f1, idem=matrices.rep_from_idempotent(S20, f1),
        psi=psi, bil=minkowski.bilinears(psi), x=np.arange(1.0, 17.0),
    )


def _tol_calls():
    from spinorlab import groups, m8, matrices, minkowski, structure

    return {
        "approx_equal": lambda v, tol: approx_equal(v.e1, v.e2, tol),
        "rotor_exp": lambda v, tol: groups.rotor_exp(v.B, tol),
        "versor_inverse": lambda v, tol: groups.versor_inverse(v.B, tol),
        "versor_to_matrix": lambda v, tol: groups.versor_to_matrix(groups.rotor_exp(v.B), tol),
        "membership": lambda v, tol: groups.membership(groups.rotor_exp(v.B), tol),
        "reflect": lambda v, tol: groups.reflect(v.e1, v.e2, tol),
        "twisted_adjoint": lambda v, tol: groups.twisted_adjoint(v.e1, v.e2, tol),
        "apply_versor": lambda v, tol: groups.apply_versor(v.e1, v.e2, tol),
        "parallelism_predicate": lambda v, tol: structure.parallelism_predicate(v.e1, v.e2, "parallel", tol),
        "rep_from_idempotent": lambda v, tol: matrices.rep_from_idempotent(v.S20, v.f1, tol),
        "IdempotentRep.matrix_of": lambda v, tol: v.idem.matrix_of(basis_blade(v.S20, [2]), tol),
        "IdempotentRep.gamma_matrices": lambda v, tol: v.idem.gamma_matrices(tol),
        "m8.kernel": lambda v, tol: m8.kernel(np.eye(16), tol),
        "classify_m8": lambda v, tol: m8.classify_m8(v.x, v.x[::-1], tol),
        "bilinears": lambda v, tol: minkowski.bilinears(v.psi, tol),
        "classify_lounesto": lambda v, tol: minkowski.classify_lounesto(v.psi, tol),
        "fpk_residuals": lambda v, tol: minkowski.fpk_residuals(v.bil, tol),
        "fierz_aggregate": lambda v, tol: minkowski.fierz_aggregate(v.bil, tol=tol),
        "reconstruct": lambda v, tol: minkowski.reconstruct(v.bil, tol=tol),
    }


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", list(_tol_calls()))
def test_every_public_tol_must_be_positive_finite(name, tol):
    """One check (algebra._check_tol) guards every public tol: each entry point
    passes at a valid tol and raises InvalidInput for tol 0, -1, nan and inf."""
    call, inputs = _tol_calls()[name], _tol_inputs()
    call(inputs, 1e-9)
    with pytest.raises(InvalidInput, match="positive finite"):
        call(inputs, tol)
