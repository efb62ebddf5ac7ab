"""Bilinear covariants, FPK constraints, the Fierz aggregate, the six-class
zero-pattern classification, and spinor reconstruction."""

import numpy as np
import pytest

from spinorlab.algebra import basis_blade
from spinorlab.errors import InvalidInput, ReconstructionFailed
from spinorlab.io import bilinears_from_json, bilinears_to_json, spinor_from_json, spinor_to_json
from spinorlab.minkowski import (
    SIG13,
    BilinearSet,
    DiracSpinor,
    FpkReport,
    aggregate_residuals,
    bilinears,
    bilinears_as_forms,
    bilinears_closed_form,
    change_representation,
    classify_lounesto,
    factorization_residual,
    fierz_aggregate,
    fpk_residuals,
    quantize_minkowski,
    reconstruct,
)


def random_spinor(rng, rep="weyl"):
    return DiracSpinor(rep, tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))


def bilinear_distance(a: BilinearSet, b: BilinearSet) -> float:
    return max(
        abs(a.sigma - b.sigma),
        abs(a.omega - b.omega),
        max(abs(x - y) for x, y in zip(a.J, b.J)),
        max(abs(x - y) for x, y in zip(a.S, b.S)),
        max(abs(x - y) for x, y in zip(a.K, b.K)),
    )


class TestBilinears:
    def test_matrix_route_matches_closed_forms(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            psi = random_spinor(rng)
            scale = 1.0 + psi.norm_squared()
            assert bilinear_distance(bilinears(psi), bilinears_closed_form(psi)) <= 1e-12 * scale

    def test_singular_family_example(self):
        # (-i b*, i a*, a, b) has sigma = omega = K = 0, J != 0, S != 0
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
            psi = DiracSpinor("weyl", (-1j * b.conjugate(), 1j * a.conjugate(), a, b))
            B = bilinears(psi)
            scale = 1.0 + psi.norm_squared()
            assert abs(B.sigma) <= 1e-12 * scale and abs(B.omega) <= 1e-12 * scale
            assert max(abs(x) for x in B.K) <= 1e-12 * scale
            assert max(abs(x) for x in B.J) > 1e-6
            assert max(abs(x) for x in B.S) > 1e-9

    def test_zero_spinor(self):
        B = bilinears(DiracSpinor("weyl", (0, 0, 0, 0)))
        assert B.scale() == 0.0

    def test_weyl_component_formulas(self):
        psi = DiracSpinor("weyl", (1, 0, 1 + 1j, 0))
        B = bilinears(psi)
        assert abs(B.sigma - 2.0) <= 1e-14
        assert abs(B.omega + 2.0) <= 1e-14

    def test_forms_layout(self):
        B = BilinearSet(0.0, (1.0, 0, 0, 0), (0.0,) * 6, (0.0,) * 4, 0.0)
        _, J, S, K, omega_form = bilinears_as_forms(B)
        assert J == basis_blade(SIG13, [1])
        assert S.is_zero() and K.is_zero() and omega_form.is_zero()
        # Example 4.1 at alpha = beta = 1: S_03 = 2
        psi = DiracSpinor("weyl", (-1j, 1j, 1, 1))
        _, _, S, _, _ = bilinears_as_forms(bilinears(psi))
        assert abs(S.coefficient(0b1001) - 2.0) <= 1e-12


class TestFpk:
    def test_residuals_vanish_for_spinors(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            report = fpk_residuals(bilinears(random_spinor(rng)))
            assert report.max_residual() <= 1e-10

    def test_zero_bilinears(self):
        report = fpk_residuals(BilinearSet(0.0, (0,) * 4, (0,) * 6, (0,) * 4, 0.0))
        assert report.max_residual() == 0.0

    def test_violated_constraints_detected(self):
        B = BilinearSet(1.0, (0.0,) * 4, (0.0,) * 6, (0.0,) * 4, 0.0)
        assert fpk_residuals(B).j_squared > 0.1

    @pytest.mark.parametrize(
        "report",
        [
            FpkReport(0.0, float("nan"), 0.0, 0.0, None),
            FpkReport(float("nan"), 1.0, 0.0, 0.0, None),
            FpkReport(0.0, 0.0, 0.0, 1e-3, (0.0, float("nan"), 0.0)),
        ],
    )
    def test_max_residual_keeps_nan(self, report):
        # max(0.0, nan) is 0.0: a plain max let a NaN in one entry read as a pass
        assert np.isnan(report.max_residual())

    def test_max_residual_takes_the_worst_entry(self):
        assert FpkReport(0.0, 2e-3, 0.0, 1e-3, None).max_residual() == 2e-3
        assert FpkReport(0.0, 2e-3, 0.0, 1e-3, (1e-4, 5e-3)).max_residual() == 5e-3

    def test_auxiliary_gated_on_regularity(self):
        psi = DiracSpinor("weyl", (-1j, 1j, 1, 1))  # singular
        assert fpk_residuals(bilinears(psi)).auxiliary is None
        psi2 = DiracSpinor("weyl", (1, 0, 1, 0))
        assert fpk_residuals(bilinears(psi2)).auxiliary is not None


class TestAggregate:
    def test_quantizes_to_rank_one(self):
        rng = np.random.default_rng(3)
        from spinorlab.matrices import WEYL_GAMMAS

        for _ in range(50):
            psi = random_spinor(rng)
            Z = quantize_minkowski(fierz_aggregate(bilinears(psi)).Z, "weyl")
            v = psi.vector
            target = 4.0 * np.outer(v, v.conj() @ WEYL_GAMMAS[0])
            assert np.abs(Z - target).max() <= 1e-10 * max(1.0, np.abs(target).max())

    def test_boomerang_for_spinor_aggregates(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert fierz_aggregate(bilinears(random_spinor(rng))).is_boomerang

    def test_zero_aggregate(self):
        agg = fierz_aggregate(BilinearSet(0.0, (0,) * 4, (0,) * 6, (0,) * 4, 0.0))
        assert agg.Z.is_zero()

    def test_alternate_variant_differs_in_grade_two_only(self):
        rng = np.random.default_rng(5)
        B = bilinears(random_spinor(rng))
        default = fierz_aggregate(B).Z
        alt = fierz_aggregate(B, imaginary_s=False).Z
        diff = default - alt
        assert diff.grades() <= {2}

    def test_singular_sandwich_identities(self):
        rng = np.random.default_rng(6)
        # class-5 family and class-6 representatives
        for _ in range(40):
            a, b = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
            psi5 = DiracSpinor("weyl", (-1j * b.conjugate(), 1j * a.conjugate(), a, b))
            assert max(aggregate_residuals(bilinears(psi5))) <= 1e-9
        psi6 = DiracSpinor("weyl", (1, 0, 0, 0))
        assert max(aggregate_residuals(bilinears(psi6))) <= 1e-9
        assert classify_lounesto(psi5) == 5 and classify_lounesto(psi6) == 6

    def test_factorization_regular(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 40:
            psi = random_spinor(rng)
            B = bilinears(psi)
            if B.sigma**2 + B.omega**2 <= 1e-6:
                continue
            assert factorization_residual(B) <= 1e-9
            count += 1
        with pytest.raises(InvalidInput):
            factorization_residual(BilinearSet(0.0, (1, 0, 0, 0), (0,) * 6, (0,) * 4, 0.0))


class TestClassification:
    @pytest.mark.parametrize(
        "components,expected",
        [
            ((1, 0, 1 + 1j, 0), 1),
            ((1, 0, 1, 0), 2),
            ((1, 0, 1j, 0), 3),
            ((-1j, 1j, 1, 1), 5),
            ((1, 0, 0, 0), 6),
            ((0, 0, 0, 0), None),
        ],
    )
    def test_representatives(self, components, expected):
        assert classify_lounesto(DiracSpinor("weyl", components)) == expected

    @pytest.mark.parametrize("unit,expected", [(False, 4), (True, 5)])
    def test_class_4_family(self, unit, expected):
        # In the Weyl representation psi = (xi, eta) has sigma = omega = 0 exactly when
        # eta is orthogonal to xi, eta = c (-conj xi_2, conj xi_1).  Then S != 0 for
        # c != 0 and K_0 = (|c|^2 - 1) |xi|^2: class 4 for 0 < |c| != 1, class 5 on |c| = 1
        rng = np.random.default_rng(41)
        for _ in range(200):
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            r = 1.0 if unit else rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.25, 5.0)])
            c = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            psi = DiracSpinor("weyl", (xi[0], xi[1], -c * np.conj(xi[1]), c * np.conj(xi[0])))
            B = bilinears_closed_form(psi)
            assert abs(B.K[0] - (r * r - 1.0) * np.vdot(xi, xi).real) <= 1e-12 * (1.0 + psi.norm_squared())
            assert classify_lounesto(psi) == classify_lounesto(change_representation(psi)) == expected

    def test_phase_and_scale_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            psi = random_spinor(rng)
            label = classify_lounesto(psi)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            scaled = DiracSpinor("weyl", tuple(2.5 * phase * c for c in psi.components))
            assert classify_lounesto(scaled) == label

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_finite(self, tol):
        with pytest.raises(InvalidInput):
            classify_lounesto(DiracSpinor("weyl", (1, 0, 1, 0)), tol)

    def test_representation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            psi = random_spinor(rng)
            assert classify_lounesto(psi) == classify_lounesto(change_representation(psi))


class TestChangeRepresentation:
    def test_column_read_off(self):
        out = change_representation(DiracSpinor("weyl", (1, 0, 0, 0)))
        assert out.rep == "dirac"
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        assert np.abs(out.vector - expected).max() <= 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            psi = random_spinor(rng)
            back = change_representation(change_representation(psi))
            assert back.rep == "weyl"
            assert np.abs(back.vector - psi.vector).max() <= 4e-15 * max(
                1.0, np.abs(psi.vector).max()
            )

    def test_bilinears_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            psi = random_spinor(rng)
            scale = 1.0 + psi.norm_squared()
            assert (
                bilinear_distance(bilinears(psi), bilinears(change_representation(psi)))
                <= 1e-12 * scale
            )


class TestReconstruction:
    def test_round_trip_regular(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            psi = random_spinor(rng)
            B = bilinears(psi)
            psi2, N = reconstruct(B)
            assert N > 0
            scale = 1.0 + psi.norm_squared()
            assert bilinear_distance(B, bilinears(psi2)) <= 1e-8 * scale
            overlap = abs(np.vdot(psi2.vector, psi.vector))
            norms = np.linalg.norm(psi2.vector) * np.linalg.norm(psi.vector)
            assert overlap >= (1 - 1e-8) * norms

    def test_round_trip_singular(self):
        psi = DiracSpinor("weyl", (-1j, 1j, 1, 1))
        B = bilinears(psi)
        psi2, _ = reconstruct(B)
        overlap = abs(np.vdot(psi2.vector, psi.vector))
        norms = np.linalg.norm(psi2.vector) * np.linalg.norm(psi.vector)
        assert overlap >= (1 - 1e-10) * norms

    def test_explicit_eta(self):
        rng = np.random.default_rng(13)
        psi = random_spinor(rng)
        B = bilinears(psi)
        eta = DiracSpinor("weyl", (0, 1, 0, 0))
        psi2, _ = reconstruct(B, eta=eta)
        assert bilinear_distance(B, bilinears(psi2)) <= 1e-8 * (1 + psi.norm_squared())

    def test_dirac_representation_output(self):
        rng = np.random.default_rng(14)
        psi = random_spinor(rng, rep="dirac")
        B = bilinears(psi)
        psi2, _ = reconstruct(B, rep="dirac")
        assert psi2.rep == "dirac"
        assert bilinear_distance(B, bilinears(psi2)) <= 1e-8 * (1 + psi.norm_squared())

    def test_zero_bilinears_fail(self):
        with pytest.raises(ReconstructionFailed):
            reconstruct(BilinearSet(0.0, (0,) * 4, (0,) * 6, (0,) * 4, 0.0))


class TestJson:
    def test_spinor_round_trip(self):
        psi = DiracSpinor("dirac", (1 + 2j, 0, -0.5j, 3))
        assert spinor_from_json(spinor_to_json(psi)) == psi

    def test_bilinear_round_trip(self):
        rng = np.random.default_rng(15)
        B = bilinears(random_spinor(rng))
        assert bilinears_from_json(bilinears_to_json(B)) == B

    @pytest.mark.parametrize(
        "key,bad",
        [
            ("J", "1234"),
            ("sigma", 10**400),
            ("K", [0.0, 0.0, None, 0.0]),
            ("sigma", "1.5"),
            ("J", [True, "0", 0, 0]),
            ("omega", False),
        ],
        ids=["string-block", "overflow", "null-entry", "string-number", "bool-and-string", "bool"],
    )
    def test_malformed_bilinear_documents_raise_invalid_input(self, key, bad):
        doc = {"sigma": 1.0, "J": [1.0, 0.0, 0.0, 0.0], "S": [0.0] * 6, "K": [0.0] * 4, "omega": 0.0}
        doc[key] = bad
        with pytest.raises(InvalidInput):
            bilinears_from_json(doc)

    @pytest.mark.parametrize("doc", [[], "sigma", {"sigma": 1.0, "J": [1.0, 0.0, 0.0, 0.0]}])
    def test_bilinear_document_must_be_a_complete_object(self, doc):
        with pytest.raises(InvalidInput):
            bilinears_from_json(doc)

    def test_malformed(self):
        with pytest.raises(InvalidInput):
            spinor_from_json({"rep": "weyl", "components": [[1, 0]]})
        with pytest.raises(InvalidInput):
            spinor_from_json({"rep": "majorana", "components": [[1, 0]] * 4})

    @pytest.mark.parametrize(
        "doc",
        [
            {"rep": "weyl", "components": [["a", 0], [0, 0], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": [[0, None], [0, 0], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": [[10**400, 0], [0, 0], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": 5},
            {"rep": "weyl", "components": "abcd"},
            {"rep": "weyl", "components": [[1, 0], [0, 0], [0, 0], 7]},
            {"rep": ["weyl"], "components": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            ["weyl", [[1, 0]] * 4],
            {"rep": "weyl", "components": [["1.5", 0], [0, 0], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": [[True, 0], [0, 0], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": [[1.0, 0.0], [0.0, float("nan")], [0, 0], [0, 0]]},
            {"rep": "weyl", "components": [[float("inf"), 0.0], [0, 0], [0, 0], [0, 0]]},
            {"rep": "dirac", "components": [[1.0, -float("inf")], [0, 0], [0, 0], [0, 0]]},
        ],
    )
    def test_malformed_documents_raise_invalid_input(self, doc):
        # these ended in a ValueError/TypeError traceback instead of exit 1
        with pytest.raises(InvalidInput):
            spinor_from_json(doc)

    def test_decoded_spinor_equals_the_constructed_one(self):
        doc = {"rep": "dirac", "components": [[1, 0], [0.5, -2], [0.0, 0], [-0.0, 3.25]]}
        psi = spinor_from_json(doc)
        expected = DiracSpinor("dirac", (1, 0.5 - 2j, 0, complex(-0.0, 3.25)))
        assert psi == expected and hash(psi) == hash(expected)
        assert all(type(c) is complex for c in psi.components)
        assert spinor_to_json(psi) == spinor_to_json(expected)


# -- the bilinear pass kept on a spinor ----------------------------------------------


def counting_pass(monkeypatch):
    from spinorlab import minkowski

    calls = []
    original = minkowski._bilinear_pass

    def counted(rep, v):
        calls.append(rep)
        return original(rep, v)

    monkeypatch.setattr(minkowski, "_bilinear_pass", counted)
    return calls


class TestBilinearPass:
    def test_one_probe_contraction_per_spinor(self, monkeypatch):
        calls = counting_pass(monkeypatch)
        psi = random_spinor(np.random.default_rng(30))
        B = bilinears(psi)
        assert classify_lounesto(psi) == 1 and classify_lounesto(psi, 1e-3) == 1
        assert bilinears(psi, 1e-6) is B and bilinears(psi) is B
        assert calls == ["weyl"]
        bilinears(DiracSpinor("weyl", psi.components))  # an equal spinor makes its own pass
        assert len(calls) == 2

    def test_clif_classify_makes_one_pass(self, monkeypatch, tmp_path, capsys):
        from spinorlab.cli import main

        calls = counting_pass(monkeypatch)
        path = tmp_path / "psi.json"
        path.write_text('{"rep": "dirac", "components": [[1, 0], [0, 0.5], [0.25, 0], [0, 0]]}')
        assert main(["classify", "dirac", str(path)]) == 0
        assert calls == ["dirac"] and '"class"' in capsys.readouterr().out

    @pytest.mark.parametrize("rep", ["weyl", "dirac"])
    def test_pass_has_the_bits_of_the_stacked_probe_product(self, rep):
        # the pass multiplies the probes as one (64, 4) matrix, exact because each
        # probe row has one nonzero entry
        from spinorlab.matrices import DIRAC_GAMMAS, WEYL_GAMMAS
        from spinorlab.minkowski import _covariants, _pass, _probes

        probes = _probes(rep)
        assert (np.count_nonzero(probes, axis=2) == 1).all()
        G0 = {"weyl": WEYL_GAMMAS, "dirac": DIRAC_GAMMAS}[rep][0]
        rng = np.random.default_rng(32)
        for k in range(200):
            comps = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 10.0 ** rng.integers(-5, 6)
            comps[k % 4] = (0.0, -0.0, 1e-310j, 3.0)[k % 4]
            psi = DiracSpinor(rep, tuple(comps))
            raw = (probes @ psi.vector) @ (psi.vector.conj() @ G0)
            assert _covariants(_pass(psi).covariants).tobytes() == raw.real.tobytes()

    def test_a_rejecting_tol_rejects_after_a_passing_one(self):
        from spinorlab.minkowski import _pass

        psi = random_spinor(np.random.default_rng(31))
        B = bilinears(psi)
        worst = _pass(psi).worst_imag
        assert worst > 0.0  # rounding leaves an imaginary part for tol to reject
        strict = 0.5 * worst / (1.0 + psi.norm_squared())
        for _ in range(2):
            with pytest.raises(InvalidInput, match="bilinears not real"):
                bilinears(psi, strict)
            assert bilinears(psi) is B
        with pytest.raises(InvalidInput, match="tolerance"):
            bilinears(psi, float("nan"))
        assert bilinears(psi, 1e-9) is B

    def test_cached_vector_is_read_only(self):
        psi = DiracSpinor("weyl", (1, 2j, -0.5, 0))
        made = [psi, change_representation(psi), reconstruct(bilinears(psi))[0],
                spinor_from_json(spinor_to_json(psi))]
        for spinor in made:
            v = spinor.vector
            assert v is spinor.vector and not v.flags.writeable
            assert v.tolist() == list(spinor.components)
            with pytest.raises(ValueError):
                v[0] = 7.0
        assert psi.components == (1 + 0j, 2j, -0.5 + 0j, 0j)

    def test_equality_and_hash_read_the_fields_only(self):
        comps = (1, 0.5 - 1j, 2j, -0.25)
        fresh, used = DiracSpinor("weyl", comps), DiracSpinor("weyl", comps)
        classify_lounesto(used)
        fpk_residuals(bilinears(used))
        assert used == fresh and hash(used) == hash(fresh) == hash(("weyl", fresh.components))
        assert {used, fresh} == {fresh}
        assert used != DiracSpinor("dirac", comps)
        psi2, _ = reconstruct(bilinears(used))
        assert psi2 == DiracSpinor("weyl", psi2.components) and hash(psi2) == hash(("weyl", psi2.components))
        assert repr(used) == repr(fresh)


# -- oversized spinors and tolerances -------------------------------------------------


@pytest.mark.filterwarnings("error")
class TestOversized:
    @pytest.mark.parametrize("size", [1e77, 1e100, 1e200, 1e300])
    def test_spinor_too_large_raises_invalid_input(self, size):
        # 1e100 ended in an OverflowError from BilinearSet.scale, 1e200 in numpy
        # overflow warnings before "non-finite bilinear"
        psi = DiracSpinor("weyl", (size, 1j * size, 1.0, 0.0))
        for fn in (bilinears, classify_lounesto):
            with pytest.raises(InvalidInput, match="spinor too large"):
                fn(psi)

    def test_the_bound_is_where_the_residuals_could_overflow(self):
        from spinorlab.minkowski import _NORM_SQUARED_MAX

        assert 128.0 * _NORM_SQUARED_MAX**2 <= np.finfo(float).max
        assert 1.1e153 < _NORM_SQUARED_MAX < 1.2e153

    @pytest.mark.parametrize("rep", ["weyl", "dirac"])
    def test_spinors_at_the_bound_run_the_whole_chain(self, rep):
        # every direction gives at the bound what it gives at unit scale: the class,
        # small FPK residuals and a reconstruction of the same norm, with no warning
        from spinorlab.minkowski import _NORM_SQUARED_MAX

        rng = np.random.default_rng(33)
        units = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(20)]
        a, b = 0.6 + 0.3j, -0.2 + 0.7j
        units += [np.array([a, b, 0, 0]), np.array([0, 0, a, b]), np.array([1, 0, 1, 0]),
                  np.array([-1j * b.conjugate(), 1j * a.conjugate(), a, b])]
        for unit in units:
            unit = unit / np.linalg.norm(unit)
            small = DiracSpinor(rep, tuple(unit))
            for size in (0.5, 0.999):
                psi = DiracSpinor(rep, tuple(unit * np.sqrt(size * _NORM_SQUARED_MAX)))
                B = bilinears(psi)
                assert classify_lounesto(psi) == classify_lounesto(small)
                assert fpk_residuals(B).max_residual() <= 1e-10
                psi2, _ = reconstruct(B, rep=rep)
                assert psi2.norm_squared() == pytest.approx(psi.norm_squared(), rel=1e-9)
                assert change_representation(psi2).norm_squared() < np.inf
            beyond = DiracSpinor(rep, tuple(unit * np.sqrt(1.001 * _NORM_SQUARED_MAX)))
            with pytest.raises(InvalidInput, match="spinor too large"):
                bilinears(beyond)

    @pytest.mark.parametrize("sigma,J0", [(1e200, 0.0), (0.0, 1e200), (1.2e154, 1.2e154)])
    def test_bilinear_scale_overflow_raises_invalid_input(self, sigma, J0):
        B = BilinearSet(sigma, (J0, 0.0, 0.0, 0.0), (0.0,) * 6, (0.0,) * 4, 0.0)
        for fn in (BilinearSet.scale, fpk_residuals):
            with pytest.raises(InvalidInput, match="overflows"):
                fn(B)

    @pytest.mark.parametrize("size", ["1e100", "1e200"])
    def test_clif_classify_exits_1_with_one_line(self, tmp_path, capsys, size):
        from spinorlab.cli import main

        path = tmp_path / "psi.json"
        path.write_text(f'{{"rep": "weyl", "components": [[{size}, 0], [0, {size}], [1, 0], [0, 0]]}}')
        assert main(["classify", "dirac", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("clif: spinor too large")


BAD_TOLERANCES = [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize(
    "call",
    [
        lambda psi, tol: bilinears(psi, tol),
        lambda psi, tol: classify_lounesto(psi, tol),
        lambda psi, tol: fpk_residuals(bilinears(psi), tol),
        lambda psi, tol: reconstruct(bilinears(psi), tol=tol),
        lambda psi, tol: fierz_aggregate(bilinears(psi), tol=tol),
    ],
    ids=["bilinears", "classify_lounesto", "fpk_residuals", "reconstruct", "fierz_aggregate"],
)
def test_tolerance_must_be_positive_and_finite(call, tol):
    # NaN dropped checks (the auxiliary residuals, the vanishing and reality tests, the
    # boomerang flag); -1 reported "bilinears not real (imag 0.00e+00)"
    with pytest.raises(InvalidInput, match="tolerance must be a positive finite number"):
        call(DiracSpinor("weyl", (1, 0, 1 + 1j, 0)), tol)
