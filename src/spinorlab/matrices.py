"""Gamma-matrix bundles and the idempotent route to matrix representations.

Built-in bundles: Pauli (Cl(3,0) on 2x2 complex), Dirac and Weyl (C (x) Cl(1,3)
on 4x4 complex, index 0..3 display order), and a real symmetric 16x16 set for
Cl(8,0) with diagonal chirality, each a RepBundle.  No product of the algebra
module reads a bundle, so the checks that quantize through one stay
independent of the products.  The idempotent algorithm turns a
primitive idempotent of a real-commutant algebra into an explicit matrix
representation living inside the algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    _check_tol,
    blade_images,
    blade_order,
    stack_products,
)
from .errors import InvalidInput, SignatureMismatch, UnsupportedDivisionRing
from .tables import RING_DIM, classify_real

# 2x2 real letters of the tensor words that build gamma matrices.
_BLOCKS = {
    "i": np.eye(2),
    "s": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "t": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "e": np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def _tensor_word(word: str) -> np.ndarray:
    m = _BLOCKS[word[0]]
    for ch in word[1:]:
        m = np.kron(m, _BLOCKS[ch])
    return m


# Eight real symmetric anticommuting involutions on R^16, tensor words over the
# letters of _BLOCKS, whose full product (the chirality operator) is diagonal
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


def _ascending_products(gammas) -> np.ndarray:
    """(2^n, d, d) stack of blade matrices, doubled once per generator: for
    m < 2^i, stack[m | 2^i] = stack[m] gamma_{i+1}, the ascending product."""
    stack = np.eye(len(gammas[0]), dtype=np.result_type(*gammas))[None]
    for g in gammas:
        stack = np.concatenate((stack, stack @ g))
    stack.flags.writeable = False
    return stack


def _blade_squares(sig: Signature) -> np.ndarray:
    """e_M^2 for every mask: the reversion sign of |M| times the generator squares in M."""
    masks = np.arange(1 << sig.n)
    k = np.bitwise_count(masks)
    negative = np.bitwise_count(masks >> sig.p)
    return 1.0 - 2.0 * ((k * (k - 1) // 2 + negative) & 1)


@dataclass(frozen=True)
class RepBundle:
    """Gamma matrices of one signature plus, built on first use, the stacked blade tensor.

    `blades[mask]` is the ascending product of the generators in mask; it is
    read-only and built once per bundle, so quantization, dequantization (both
    through its (2^n, dim^2) row view) and the spinor bilinears are single
    contractions over it.  quantize and dequantize take stacks over leading
    axes and treat each entry as a separate call would, bit for bit.
    """

    sig: Signature
    dim: int
    field_tag: str
    gammas: list = field(repr=False, default_factory=list)

    @cached_property
    def blades(self) -> np.ndarray:
        """(2^n, dim, dim) stack of the ascending products (_ascending_products)."""
        if not self.gammas:
            raise InvalidInput("bundle has no gamma matrices")
        return _ascending_products(self.gammas)

    @cached_property
    def blade_squares(self) -> np.ndarray:
        """e_M^2 for every mask: the reversion sign of |M| times the generator squares in M."""
        return _blade_squares(self.sig)

    def gamma_blade(self, mask: int) -> np.ndarray:
        """Matrix of the blade with the given index mask (ascending product), read-only."""
        return self.blades[mask]

    @property
    def chirality(self) -> np.ndarray:
        return self.gamma_blade((1 << self.sig.n) - 1)

    def act(self, y: np.ndarray, masks=slice(None)) -> np.ndarray:
        """blades[M] y for each listed mask: (masks, dim) for one spinor y, through
        _matvec, or (masks, dim, k) for the k spinors that are the columns of a
        (dim, k) block y, through one matrix product that reads the stack once.

        The product runs over the whole stack in place, never over a copy of the
        listed blades, and the listed rows are taken from it as a C-contiguous
        array.  A block that is not C-contiguous is copied to C order first: the
        product with an F-ordered block leaves numpy's fast path and takes twice
        as long.  Every built-in blade matrix is monomial, so each entry is one
        product plus exact zeros and has the bits of multiplying a copy.
        """
        rows = self.blades.reshape(-1, self.dim)
        out = _matvec(rows, y) if y.ndim == 1 else rows @ np.ascontiguousarray(y)
        out = out.reshape((len(self.blades), self.dim) + y.shape[1:])
        return np.ascontiguousarray(out[masks]).reshape((-1,) + out.shape[1:])

    def pairings(self, x: np.ndarray, y: np.ndarray, masks=slice(None)) -> np.ndarray:
        """x^T blades[M] y for each listed mask, as act(y, masks) @ x (no conjugation).

        Only the listed rows are contracted: contracting all 2^n rows and selecting
        afterwards would sum in another order and change the bits."""
        return self.act(y, masks) @ x

    def quantize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_M coeffs[..., M] blades[M] for coefficients indexed by blade mask on the last axis."""
        coeffs = np.asarray(coeffs)
        rows = self.blades.reshape(len(self.blades), -1)
        if coeffs.shape[-1:] != (len(rows),):
            raise InvalidInput(f"coefficients of {self.sig} need a last axis of {len(rows)}")
        return _matvec(rows.T, coeffs).reshape(coeffs.shape[:-1] + (self.dim, self.dim))

    def dequantize(self, T: np.ndarray) -> np.ndarray:
        """Coefficients of T[...] on the blades by the trace pairing, tr(T blades[M]) / (dim e_M^2).

        Inverts quantize when the bundle is faithful and irreducible (dim^2 = 2^n).
        """
        T = np.asarray(T)
        rows = self.blades.reshape(len(self.blades), -1)
        if self.dim * self.dim != len(rows) or T.shape[-2:] != (self.dim, self.dim):
            raise InvalidInput(f"trace-pairing inverse needs {self.dim}x{self.dim} matrices "
                               f"and dim^2 = 2^n blades")
        flat = T.swapaxes(-1, -2).reshape(T.shape[:-2] + (len(rows),))  # tr(T B) = ravel(T^T) . ravel(B)
        return _matvec(rows, flat) / (self.dim * self.blade_squares)


def _matvec(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v over the last axis of v, one matrix-vector product per leading index.

    A stack thus repeats the arithmetic of single vectors bit for bit, which
    one matrix-matrix product would not: matmul runs the same inner loop for a
    vector v as for the column v[:, None].  A real `rows` meets a complex v as
    two real columns, never as a complex copy of rows.
    """
    if v.dtype.kind == "c" and rows.dtype.kind != "c":
        pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).reshape(v.shape + (2,))
        return (rows @ pairs).view(np.complex128)[..., 0]
    return rows @ v if v.ndim == 1 else (rows @ v[..., None])[..., 0]


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
    G = np.array(rep.gammas)
    prods = G[:, None] @ G[None]  # gamma_i gamma_j at [i, j]
    anti = np.add(prods, prods.transpose(1, 0, 2, 3), out=np.empty(prods.shape, prods.dtype))
    anti.reshape(n * n, dim, dim)[:: n + 1] -= _relation_target(rep.sig, dim)  # C order: a view of (i, i)
    res = np.abs(anti).max(axis=(2, 3))
    # argmax takes the first NaN, else the first largest residual in row-major order
    i, j = divmod(int(np.argmax(res)), n)
    worst = float(res[i, j])
    return RelationReport(worst, (i + 1, j + 1) if worst != 0.0 else (0, 0))


@lru_cache(maxsize=32)
def _relation_target(sig: Signature, dim: int) -> np.ndarray:
    """The anticommutator targets 2 g_ii I of one signature, (n, dim, dim), read-only."""
    target = 2.0 * np.array(sig.metric_tuple())[:, None, None] * np.eye(dim)
    target.flags.writeable = False
    return target


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

    def _matrices_of(self, left: np.ndarray, tol: float) -> np.ndarray:
        """(k, size, size) matrices of k elements x_i from the (size, k, 2^n) stack
        left[a, i] = E_1a x_i: entry (a, b) is the lam with E_1a x_i E_b1 = lam f1."""
        _check_tol(tol)
        size, k, dim = left.shape
        prods = stack_products(self.sig, left.reshape(-1, dim), self.cols).reshape(size, k, size, dim)
        lam, resid, bad = _multiples(prods.transpose(1, 0, 2, 3), self.f1, self.f1[0], tol)
        if bad is not None:
            a, b = bad[-2:]
            raise UnsupportedDivisionRing(
                f"E_1{a} x E_{b}1 is not a real multiple of f1 (residual {resid[bad]:.2e})"
            )
        return lam

    def matrix_of(self, x: Multivector, tol: float = 1e-9) -> np.ndarray:
        if x.sig != self.sig:
            raise SignatureMismatch(f"{x.sig} vs {self.sig}")
        return self._matrices_of(stack_products(self.sig, self.rows, x.to_vector()[None]), tol)[0]

    def gamma_matrices(self, tol: float = 1e-9) -> list:
        """Matrices of the generators: E_1a e_i is gathered as a signed copy of
        E_1a's row (blade_images), so one product stack remains."""
        _, left = blade_images(self.sig, self.rows, 1 << np.arange(self.sig.n))
        return list(self._matrices_of(left, tol))


@lru_cache(maxsize=None)
def _scan_order(n: int) -> np.ndarray:
    """The 2^n blade masks in (grade, mask) order, read-only."""
    order = np.array(blade_order(range(1 << n)))
    order.flags.writeable = False
    return order


def _ideal_basis_rows(images: np.ndarray, tol: float = 1e-9) -> list:
    """Per (2^n, 2^n) stack of blade images, the masks of the images that raise
    the rank, scanned in (grade, mask) order; images is (count, 2^n, 2^n).

    Image i raises the rank when its distance from the span of the images
    before it exceeds tol times its norm; that distance is |R_ii| of the QR
    factorisation of the images as columns, in scan order, the diagonal of
    the first output of one stacked qr(mode="raw").  Images of norm <= tol
    are skipped.  Scanning blades in (grade, mask) order makes the chosen
    basis deterministic and reproduces the textbook Cl(2,0) basis verbatim.
    """
    order = _scan_order(images.shape[-1].bit_length() - 1)
    rows = images[:, order]  # a copy: image j of the scan at [:, j]
    norms = np.sqrt(np.add.reduce(rows * rows, axis=-1))  # np.linalg.norm's sum, without its checks
    live = norms > tol
    rows[~live] = 0.0
    distance = np.abs(np.diagonal(np.linalg.qr(rows.swapaxes(-1, -2), mode="raw")[0], axis1=-2, axis2=-1))
    return [order[keep].tolist() for keep in live & (distance > tol * norms)]


def _multiples(prods: np.ndarray, ref: np.ndarray, scalar: float, tol: float) -> tuple:
    """Read prods[...] = lam ref with lam = <prods>_0 / scalar; the division-ring gate.

    Returns lam, the residuals |prod - lam ref|_inf and the first index, in
    row-major order, where the residual is not within tol * max(1, |prod|_inf)
    (a NaN residual fails), or None.
    """
    lam = (prods[..., 0] + 0.0) / scalar  # + 0.0: an absent scalar part reads 0.0, not -0.0
    resid = np.maximum.reduce(np.abs(prods - lam[..., None] * ref), axis=-1)
    ok = resid <= tol * np.maximum.reduce(np.abs(prods), axis=-1, initial=1.0)  # NaN stays NaN
    return lam, resid, None if ok.all() else tuple(np.argwhere(~ok)[0].tolist())


def rep_from_idempotent(sig: Signature, f1: Multivector, tol: float = 1e-9) -> IdempotentRep:
    """Matrix representation of Cl(p,q) from a primitive idempotent f1.

    Computes the minimal left ideal Cl <> f1 by rank analysis of the blade
    images e_M <> f1, gathered from f1's coefficients through the product
    index (they also give the idempotence check, f1 <> f1 = f1 @ images),
    picks the column basis {E_A1} by a pivoted scan, solves the dual
    basis {E_1A} from E_1A <> E_B1 = delta f1, and assembles E_AB = E_A1 <> E_1B
    on first read of Emat; the products are batched over the gather indices.
    Only the real-commutant case is supported: f1 <> Cl <> f1 must be
    one-dimensional over R.
    """
    _check_tol(tol)
    if f1.sig != sig:
        raise InvalidInput("idempotent signature mismatch")
    if f1.field != "real":
        raise InvalidInput("idempotent must be real")
    f1v = f1.to_vector()
    if not np.isfinite(f1v).all():
        mask = int(np.flatnonzero(~np.isfinite(f1v))[0])
        raise InvalidInput(f"non-finite coefficient of f1 on blade {Multivector._blade_name(mask)}")
    left, right = blade_images(sig, f1v)  # row M: e_M <> f1 and f1 <> e_M
    # f1 <> f1 = sum_M f1[M] e_M <> f1 from the left images, held to approx_equal's rule:
    # |f1 f1 - f1|_inf <= tol max(1, |f1 f1|_inf, |f1|_inf), where a NaN difference fails
    square = f1v @ left
    diff, top_square, top = np.maximum.reduce(np.abs(np.array((square - f1v, square, f1v))), axis=1).tolist()
    if not diff <= max(tol, 1e-12) * max(1.0, top_square, top):
        raise InvalidInput("f1 is not idempotent")

    descriptor = classify_real(sig.p, sig.q)
    if descriptor.division_ring != "R":
        raise UnsupportedDivisionRing(
            f"Cl({sig.p},{sig.q}) has commutant {descriptor.division_ring}; only R is supported"
        )
    expected = descriptor.matrix_dim * RING_DIM[descriptor.division_ring]

    col_masks, row_masks = _ideal_basis_rows(np.array((left, right)), tol)
    if len(col_masks) != expected:
        raise InvalidInput(
            f"ideal dimension {len(col_masks)} != {expected}: f1 is not primitive"
        )
    if col_masks[0] != 0:
        # The scan always hits 1 <> f1 = f1 (left[0], an exact copy) first; anything else is a logic error.
        raise InvalidInput("ideal basis does not start at f1")
    if len(row_masks) != expected:
        raise InvalidInput("row ideal dimension mismatch: f1 is not primitive")

    # P[j, b] f1 = (row image j) <> E_b1; each product must be a real
    # multiple of f1 (the division-ring gate).
    cols, row_images = left[col_masks], right[row_masks]
    P, resid, bad = _multiples(stack_products(sig, row_images, cols), f1v, f1v[0], tol)
    if bad is not None:
        raise UnsupportedDivisionRing(
            f"f1 <> Cl <> f1 is not one-dimensional over R (residual {resid[bad]:.2e})"
        )
    coeffs = np.linalg.inv(P.T).T  # row a: E_1a in row-basis coordinates; solve(P^T, I), one gesv
    return IdempotentRep(sig, expected, cols, coeffs @ row_images, f1v)
