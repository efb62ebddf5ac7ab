"""Gamma-matrix bundles and the idempotent route to matrix representations.

Built-in bundles: Pauli (Cl(3,0) on 2x2 complex), Dirac and Weyl (C (x) Cl(1,3)
on 4x4 complex, index 0..3 display order), and a real symmetric 16x16 set for
Cl(8,0) with diagonal chirality.  Each is an algebra.RepBundle, the class of
the n = 8 matrix route's bundles too.  The idempotent algorithm turns a
primitive idempotent of a real-commutant algebra into an explicit matrix
representation living inside the algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import (
    Multivector,
    RepBundle,
    Signature,
    _tensor_word,
    approx_equal,
    blade_images,
    geometric_product,
    stack_products,
)
from .errors import InvalidInput, SignatureMismatch, UnsupportedDivisionRing
from .tables import RING_DIM, classify_real

# Eight real symmetric anticommuting involutions on R^16, tensor words over the
# letters of algebra._BLOCKS, whose full product (the chirality operator) is diagonal
# +-1.  Verified exactly by test.
_CL8_WORDS = ["iiit", "iits", "itss", "iete", "tsss", "este", "etie", "etes"]

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

_SIGMA = PAULI
_ZERO2 = np.zeros((2, 2), dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def _block4(tl, tr, bl, br):
    return np.block([[tl, tr], [bl, br]])


# Generator sets with gamma_0^2 = +1, gamma_k^2 = -1.  The Dirac set is the
# exact image of the Weyl one under the self-inverse change of basis below,
# which is what makes the bilinears representation-independent at double
# precision (the spatial signs of the two sets are tied together by that
# requirement).
DIRAC_GAMMAS = [_block4(_EYE2, _ZERO2, _ZERO2, -_EYE2)] + [
    _block4(_ZERO2, s, -s, _ZERO2) for s in _SIGMA
]
WEYL_GAMMAS = [_block4(_ZERO2, _EYE2, _EYE2, _ZERO2)] + [
    _block4(_ZERO2, -s, s, _ZERO2) for s in _SIGMA
]


CL8_GAMMAS = [_tensor_word(w) for w in _CL8_WORDS]


def builtin_gammas(name: str) -> RepBundle:
    if name == "pauli":
        return RepBundle(Signature(3, 0), 2, "complex", [m.copy() for m in PAULI])
    if name == "dirac":
        return RepBundle(Signature(1, 3), 4, "complex", [m.copy() for m in DIRAC_GAMMAS])
    if name == "weyl":
        return RepBundle(Signature(1, 3), 4, "complex", [m.copy() for m in WEYL_GAMMAS])
    if name == "cl8":
        return RepBundle(Signature(8, 0), 16, "real", [m.copy() for m in CL8_GAMMAS])
    raise InvalidInput(f"unknown bundle {name!r}")


@dataclass(frozen=True)
class RelationReport:
    max_residual: float
    worst_pair: tuple


def check_clifford_relations(rep: RepBundle) -> RelationReport:
    """Max-abs entry of gamma_i gamma_j + gamma_j gamma_i - 2 g_ij I over all pairs.

    worst_pair is the first (i, j) in row-major order holding that maximum,
    (0, 0) when every residual is 0; a NaN entry is reported as NaN, at the
    first pair that holds one.
    """
    if not rep.gammas:
        raise InvalidInput("bundle has no gamma matrices")
    dim = rep.gammas[0].shape[0]
    if any(g.shape != (dim, dim) for g in rep.gammas):
        raise InvalidInput("gamma matrices of mixed dimensions")
    n = len(rep.gammas)
    G = np.stack(rep.gammas)
    prods = G[:, None] @ G[None]  # gamma_i gamma_j at [i, j]
    anti = prods + prods.transpose(1, 0, 2, 3)
    anti[range(n), range(n)] -= 2.0 * np.array(rep.sig.metric_tuple())[:, None, None] * np.eye(dim)
    res = np.abs(anti).max(axis=(2, 3))
    # argmax takes the first NaN, else the first largest residual in row-major order
    i, j = divmod(int(np.argmax(res)), n)
    worst = float(res[i, j])
    return RelationReport(worst, (i + 1, j + 1) if worst != 0.0 else (0, 0))


# Integer part of the Dirac<->Weyl change of basis: S = M / sqrt(2), S^-1 = S.
_SIM_M = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=float
)


def similarity_matrix() -> np.ndarray:
    return _SIM_M / np.sqrt(2.0)


def dirac_weyl_similarity() -> tuple:
    """Self-inverse S with S gamma_weyl S^-1 = gamma_dirac, plus the residual.

    Conjugation is evaluated as (M g M) / 2 with integer M, which keeps the
    comparison exact at double precision.
    """
    residual = 0.0
    for gw, gd in zip(WEYL_GAMMAS, DIRAC_GAMMAS):
        conj = (_SIM_M @ gw @ _SIM_M) / 2.0
        residual = max(residual, float(np.abs(conj - gd).max()))
    return similarity_matrix(), residual


# -- idempotent representation --------------------------------------------------


@dataclass(frozen=True)
class IdempotentRep:
    """Coefficient rows of E_a1 (cols) and E_1a (rows), and f1; Multivector views on first use."""

    sig: Signature
    size: int
    cols: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    f1: np.ndarray = field(repr=False)

    @cached_property
    def Ecol(self) -> list:
        return [Multivector.from_vector(self.sig, v) for v in self.cols]

    @cached_property
    def Erow(self) -> list:
        return [Multivector.from_vector(self.sig, v) for v in self.rows]

    @cached_property
    def Emat(self) -> list:
        """E_ab = E_a1 <> E_1b at [a][b]."""
        return [[Multivector.from_vector(self.sig, v) for v in line]
                for line in stack_products(self.sig, self.cols, self.rows)]

    @property
    def f(self) -> list:
        """The diagonal idempotents E_aa."""
        return [self.Emat[a][a] for a in range(self.size)]

    def _matrices_of(self, X: np.ndarray, tol: float) -> np.ndarray:
        """(k, size, size) matrices of the rows x of a (k, 2^n) coefficient stack:
        entry (a, b) is the lam with E_1a x E_b1 = lam f1, from two batched products."""
        k, dim = X.shape
        left = stack_products(self.sig, self.rows, X).reshape(-1, dim)  # E_1a X[i] at a * k + i
        prods = stack_products(self.sig, left, self.cols).reshape(self.size, k, self.size, dim)
        lam, resid, bad = _multiples(prods.transpose(1, 0, 2, 3), self.f1, self.f1[0], tol)
        if len(bad):
            a, b = bad[0][-2:]
            raise UnsupportedDivisionRing(
                f"E_1{a} x E_{b}1 is not a real multiple of f1 (residual {resid[tuple(bad[0])]:.2e})"
            )
        return lam

    def matrix_of(self, x: Multivector, tol: float = 1e-9) -> np.ndarray:
        if x.sig != self.sig:
            raise SignatureMismatch(f"{x.sig} vs {self.sig}")
        return self._matrices_of(x.to_vector()[None], tol)[0]

    def gamma_matrices(self, tol: float = 1e-9) -> list:
        n, dim = self.sig.n, 1 << self.sig.n
        return list(self._matrices_of(np.eye(dim)[1 << np.arange(n)], tol))


def _ideal_basis_rows(images: np.ndarray, tol: float = 1e-9) -> list:
    """Masks of the blade images that raise the rank, scanned in (grade, mask) order.

    Image i raises the rank when its distance from the span of the images
    before it exceeds tol times its norm; that distance is |R_ii| of the QR
    factorisation of the images as columns, in scan order.  Images of norm
    <= tol are skipped.  Scanning blades in (grade, mask) order makes the
    chosen basis deterministic and reproduces the textbook Cl(2,0) basis verbatim.
    """
    masks = np.arange(len(images))
    order = masks[np.lexsort((masks, np.bitwise_count(masks)))]
    columns = images[order].T
    norms = np.linalg.norm(columns, axis=0)
    live = norms > tol
    columns[:, ~live] = 0.0
    distance = np.abs(np.diagonal(np.linalg.qr(columns, mode="r")))
    return order[live & (distance > tol * norms)].tolist()


def _multiples(prods: np.ndarray, ref: np.ndarray, scalar: float, tol: float) -> tuple:
    """Read prods[...] = lam ref with lam = <prods>_0 / scalar; the division-ring gate.

    Returns lam, the residuals |prod - lam ref|_inf and the indices where the
    residual is not within tol * max(1, |prod|_inf) (a NaN residual fails).
    """
    lam = (prods[..., 0] + 0.0) / scalar  # + 0.0: an absent scalar part reads 0.0, not -0.0
    resid = np.abs(prods - lam[..., None] * ref).max(axis=-1)
    bad = np.argwhere(~(resid <= tol * np.maximum(1.0, np.abs(prods).max(axis=-1))))
    return lam, resid, bad


def rep_from_idempotent(sig: Signature, f1: Multivector, tol: float = 1e-9) -> IdempotentRep:
    """Matrix representation of Cl(p,q) from a primitive idempotent f1.

    Computes the minimal left ideal Cl <> f1 by rank analysis of the blade
    images e_M <> f1, gathered from f1's coefficients through the product
    index, picks the column basis {E_A1} by a pivoted scan, solves the dual
    basis {E_1A} from E_1A <> E_B1 = delta f1, and assembles E_AB = E_A1 <> E_1B
    on first read of Emat; the products are batched over the gather indices.
    Only the real-commutant case is supported: f1 <> Cl <> f1 must be
    one-dimensional over R.
    """
    if f1.sig != sig:
        raise InvalidInput("idempotent signature mismatch")
    if f1.field != "real":
        raise InvalidInput("idempotent must be real")
    if not approx_equal(geometric_product(f1, f1), f1, max(tol, 1e-12)):
        raise InvalidInput("f1 is not idempotent")

    descriptor = classify_real(sig.p, sig.q)
    if descriptor.division_ring != "R":
        raise UnsupportedDivisionRing(
            f"Cl({sig.p},{sig.q}) has commutant {descriptor.division_ring}; only R is supported"
        )
    expected = descriptor.matrix_dim * RING_DIM[descriptor.division_ring]

    f1v = f1.to_vector()
    left, right = blade_images(sig, f1v)  # row M: e_M <> f1 and f1 <> e_M

    col_masks = _ideal_basis_rows(left, tol)
    if len(col_masks) != expected:
        raise InvalidInput(
            f"ideal dimension {len(col_masks)} != {expected}: f1 is not primitive"
        )
    cols = left[col_masks]
    scale = max(1.0, np.abs(cols[0]).max(), np.abs(f1v).max())
    if not np.abs(cols[0] - f1v).max() <= max(tol, 1e-12) * scale:
        # The scan always hits 1 <> f1 = f1 first; anything else is a logic error.
        raise InvalidInput("ideal basis does not start at f1")

    row_masks = _ideal_basis_rows(right, tol)
    if len(row_masks) != expected:
        raise InvalidInput("row ideal dimension mismatch: f1 is not primitive")

    # P[j, b] f1 = (row image j) <> E_b1; each product must be a real
    # multiple of f1 (the division-ring gate).
    P, resid, bad = _multiples(stack_products(sig, right[row_masks], cols), f1v, f1v[0], tol)
    if len(bad):
        raise UnsupportedDivisionRing(
            f"f1 <> Cl <> f1 is not one-dimensional over R (residual {resid[tuple(bad[0])]:.2e})"
        )
    coeffs = np.linalg.solve(P.T, np.eye(expected)).T  # row a: E_1a in row-basis coordinates
    return IdempotentRep(sig, expected, cols, coeffs @ right[row_masks], f1v)
