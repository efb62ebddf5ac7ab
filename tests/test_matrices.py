"""Gamma bundles, the Dirac/Weyl similarity, and the idempotent representation
algorithm with its Cl(2,0) golden values."""

import numpy as np
import pytest

import math

from spinorlab import matrices
from spinorlab.algebra import Multivector, Signature, basis_blade, blade_images, geometric_product
from spinorlab.errors import InvalidInput, UnsupportedDivisionRing
from spinorlab.matrices import (
    builtin_gammas,
    check_clifford_relations,
    dirac_weyl_similarity,
    rep_from_idempotent,
    similarity_matrix,
)


def _pairwise_report(sig, gammas):
    """One anticommutator at a time: the first pair in row-major order holding a
    NaN, else the first holding the largest residual, else (0, 0)."""
    metric = sig.metric_tuple()
    eye = np.eye(len(gammas[0]))
    worst, pair = 0.0, (0, 0)
    for i, gi in enumerate(gammas):
        for j, gj in enumerate(gammas):
            target = 2.0 * metric[i] * eye if i == j else 0.0 * eye
            res = float(np.abs(gi @ gj + gj @ gi - target).max())
            if np.isnan(res):
                return res, (i + 1, j + 1)
            if res > worst:
                worst, pair = res, (i + 1, j + 1)
    return worst, pair


class TestBuiltinBundles:
    @pytest.mark.parametrize("name", ["pauli", "dirac", "weyl", "cl8"])
    def test_relations_exact(self, name):
        assert check_clifford_relations(builtin_gammas(name)).max_residual == 0.0

    def test_pauli_anticommute(self):
        rep = builtin_gammas("pauli")
        s1, s2 = rep.gammas[0], rep.gammas[1]
        assert np.abs(s1 @ s2 + s2 @ s1).max() == 0.0

    def test_weyl_gamma0_off_diagonal(self):
        g0 = builtin_gammas("weyl").gammas[0]
        assert np.array_equal(g0[:2, 2:], np.eye(2)) and np.array_equal(g0[2:, :2], np.eye(2))
        assert np.abs(g0[:2, :2]).max() == 0.0 and np.abs(g0[2:, 2:]).max() == 0.0

    def test_cl8_symmetric_with_diagonal_chirality(self):
        rep = builtin_gammas("cl8")
        assert all(np.array_equal(g, g.T) for g in rep.gammas)
        assert all(np.array_equal(g @ g, np.eye(16)) for g in rep.gammas)
        chi = rep.chirality
        assert np.array_equal(chi, np.diag(np.diag(chi)))
        diag = np.diag(chi)
        assert sorted(set(diag)) == [-1.0, 1.0] and diag.sum() == 0.0

    def test_corrupted_bundle_reports_residual(self):
        # scaling one generator by 2 turns its diagonal relation 2 g_ii I into
        # 8 g_ii I, a max-entry deviation of 6
        rep = builtin_gammas("dirac")
        gammas = [g.copy() for g in rep.gammas]
        gammas[1] = 2.0 * gammas[1]
        from spinorlab.matrices import RepBundle

        bad = RepBundle(rep.sig, rep.dim, rep.field_tag, gammas)
        report = check_clifford_relations(bad)
        assert report.max_residual == 6.0
        assert report.worst_pair == (2, 2)

    def test_nan_entry_is_reported(self):
        # a NaN in gamma_3 must not read as a zero residual
        rep = builtin_gammas("dirac")
        gammas = [g.copy() for g in rep.gammas]
        gammas[3][0, 0] = np.nan
        from spinorlab.matrices import RepBundle

        report = check_clifford_relations(RepBundle(rep.sig, rep.dim, rep.field_tag, gammas))
        assert np.isnan(report.max_residual)
        assert report.worst_pair == (1, 4) == _pairwise_report(rep.sig, gammas)[1]

    @pytest.mark.parametrize("name", ["pauli", "dirac", "weyl", "cl8"])
    def test_matches_the_pairwise_scan(self, name):
        # worst residual and its first pair in row-major order, ties included
        from spinorlab.matrices import RepBundle

        rep = builtin_gammas(name)
        rng = np.random.default_rng(17)
        for trial in range(12):
            gammas = [g.copy() for g in rep.gammas]
            k = int(rng.integers(len(gammas)))
            if trial % 3 == 0:
                gammas[k] = 2.0 * gammas[k]
            elif trial % 3 == 1:
                gammas[k] = gammas[k] + 1e-9 * rng.normal(size=gammas[k].shape)
            else:
                gammas[k] = gammas[(k + 1) % len(gammas)].copy()
            report = check_clifford_relations(RepBundle(rep.sig, rep.dim, rep.field_tag, gammas))
            assert (report.max_residual, report.worst_pair) == _pairwise_report(rep.sig, gammas)

    def test_unknown_bundle(self):
        with pytest.raises(InvalidInput):
            builtin_gammas("majorana")


class TestSimilarity:
    def test_conjugation_exact(self):
        S, residual = dirac_weyl_similarity()
        assert residual == 0.0
        assert np.allclose(S @ S, np.eye(4), atol=1e-15)

    def test_column_read_off(self):
        S = similarity_matrix()
        out = S @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(out, np.array([1, 0, 1, 0]) / np.sqrt(2))


class TestIdempotentRep:
    def test_cl20_golden(self):
        sig = Signature(2, 0)
        f1 = (Multivector.scalar(sig, 1.0) + basis_blade(sig, [1])) * 0.5
        idem = rep_from_idempotent(sig, f1)
        e1, e2 = basis_blade(sig, [1]), basis_blade(sig, [2])
        half = 0.5
        assert idem.Ecol[0] == f1
        assert idem.Ecol[1] == (e2 - basis_blade(sig, [1, 2])) * half
        assert idem.Erow[1] == (e2 + basis_blade(sig, [1, 2])) * half
        assert idem.matrix_of(Multivector.scalar(sig, 1.0)).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert idem.matrix_of(e1).tolist() == [[1.0, 0.0], [0.0, -1.0]]
        assert idem.matrix_of(e2).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert idem.matrix_of(basis_blade(sig, [1, 2])).tolist() == [[0.0, 1.0], [0.0 - 1.0, 0.0]]

    @pytest.mark.parametrize(
        "sig,f1_blades",
        [
            (Signature(2, 0), [[1]]),
            (Signature(1, 1), [[1]]),
            (Signature(3, 1), [[1], [2, 4]]),
            (Signature(2, 2), [[1], [2, 4]]),
        ],
    )
    def test_constructed_rep_laws(self, sig, f1_blades):
        f1 = Multivector.scalar(sig, 1.0)
        for blades in f1_blades:
            f1 = geometric_product(
                f1, (Multivector.scalar(sig, 1.0) + basis_blade(sig, blades)) * 0.5
            )
        idem = rep_from_idempotent(sig, f1)
        n = idem.size
        # matrix-unit laws
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        prod = geometric_product(idem.Emat[a][b], idem.Emat[c][d])
                        target = idem.Emat[a][d] if b == c else Multivector.zero(sig)
                        assert (prod - target).norm_inf() <= 1e-10
        total = Multivector.zero(sig)
        for a in range(n):
            total = total + idem.Emat[a][a]
        assert (total - Multivector.scalar(sig, 1.0)).norm_inf() <= 1e-12
        for a in range(n):
            for b in range(n):
                prod = geometric_product(idem.f[a], idem.f[b])
                target = idem.f[a] if a == b else Multivector.zero(sig)
                assert (prod - target).norm_inf() <= 1e-12
        # extracted generators obey the Clifford relations
        gammas = idem.gamma_matrices()
        metric = sig.metric_tuple()
        for i in range(sig.n):
            for j in range(sig.n):
                anti = gammas[i] @ gammas[j] + gammas[j] @ gammas[i]
                target = 2.0 * metric[i] * np.eye(n) if i == j else np.zeros((n, n))
                assert np.abs(anti - target).max() <= 1e-10

    def test_identity_rep_in_cl00(self):
        sig = Signature(0, 0)
        idem = rep_from_idempotent(sig, Multivector.scalar(sig, 1.0))
        assert idem.size == 1
        assert idem.matrix_of(Multivector.scalar(sig, 1.0)).tolist() == [[1.0]]

    def test_rejects_non_idempotent(self):
        sig = Signature(2, 0)
        with pytest.raises(InvalidInput):
            rep_from_idempotent(sig, basis_blade(sig, [1]) * 0.7)

    def test_idempotence_gate(self):
        """f1 f1 is read off the left blade images; the rule and message are approx_equal's."""
        sig = Signature(2, 0)
        one, e1 = Multivector.scalar(sig, 1.0), basis_blade(sig, [1])
        with pytest.raises(InvalidInput, match="f1 is not idempotent"):
            rep_from_idempotent(sig, (one + e1) * 0.6)
        nearly = (one + e1) * (0.5 + 1e-10)  # within tol = 1e-9 of idempotent
        assert rep_from_idempotent(sig, nearly).size == 2
        with pytest.raises(InvalidInput, match="f1 is not idempotent"):
            rep_from_idempotent(sig, nearly, tol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_coefficients_up_front(self, bad):
        # inf reached the idempotence product (RuntimeWarning in matmul), NaN read as
        # "f1 is not idempotent"; the check now names the blade before any product
        sig = Signature(2, 0)
        with pytest.raises(InvalidInput, match="non-finite coefficient of f1 on blade e12"):
            rep_from_idempotent(sig, Multivector(sig, {0: 0.5, 1: 0.5, 3: bad}))
        with pytest.raises(InvalidInput, match="on blade e2"):
            rep_from_idempotent(sig, Multivector(sig, {0: 0.5, 1: 0.5, 2: bad}))

    def test_rejects_non_primitive(self):
        sig = Signature(2, 0)
        with pytest.raises(InvalidInput):
            rep_from_idempotent(sig, Multivector.scalar(sig, 1.0))

    def test_rejects_non_real_commutant(self):
        sig = Signature(3, 0)  # Mat(2, C)
        f1 = (Multivector.scalar(sig, 1.0) + basis_blade(sig, [1])) * 0.5
        with pytest.raises(UnsupportedDivisionRing):
            rep_from_idempotent(sig, f1)


def _single_scan(images, tol=1e-9):
    """One image set at a time, as the scan ran before it was stacked: np.linalg.norm
    and qr(mode="r") on the images as columns in (grade, mask) order."""
    masks = np.arange(len(images))
    order = masks[np.lexsort((masks, np.bitwise_count(masks)))]
    columns = images[order].T
    norms = np.linalg.norm(columns, axis=0)
    live = norms > tol
    columns[:, ~live] = 0.0
    distance = np.abs(np.diagonal(np.linalg.qr(columns, mode="r")))
    return order[live & (distance > tol * norms)].tolist()


@pytest.mark.parametrize(
    "sig,f1_blades",
    [(Signature(2, 0), [[1]]), (Signature(1, 1), [[1, 2]]), (Signature(3, 1), [[1], [2, 4]]),
     (Signature(2, 2), [[1], [2, 4]]), (Signature(3, 0), [[1]]),
     (Signature(4, 4), [[1], [2, 5], [3, 6], [4, 7]])],
    ids=str,
)
def test_stacked_ideal_scan_equals_single_scans(sig, f1_blades):
    """Rank-deficient blade images, all-zero and NaN images and a full-rank set."""
    one = Multivector.scalar(sig, 1.0)
    f1 = one
    for blades in f1_blades:
        f1 = geometric_product(f1, (one + basis_blade(sig, blades)) * 0.5)
    left, right = blade_images(sig, f1.to_vector())
    dim = 1 << sig.n
    rng = np.random.default_rng(sig.n)
    zero, full = np.zeros((dim, dim)), rng.normal(size=(dim, dim))
    partial = left.copy()
    partial[3] = math.nan
    sets = [left, right, zero, full, partial]
    want = [_single_scan(images.copy()) for images in sets]
    assert matrices._ideal_basis_rows(np.array(sets)) == want
    for images, masks in zip(sets, want):
        assert matrices._ideal_basis_rows(images[None]) == [masks]
    assert want[2] == [] and sorted(want[3]) == list(range(dim)) and 0 < len(want[0]) < dim
