"""Gamma-matrix bundles and the idempotent route to matrix representations.

Built-in bundles: Pauli (Cl(3,0) on 2x2 complex), Dirac and Weyl (C (x) Cl(1,3)
on 4x4 complex, index 0..3 display order), and a real symmetric 16x16 set for
Cl(8,0) with diagonal chirality.  The idempotent algorithm turns a primitive
idempotent of a real-commutant algebra into an explicit matrix representation
living inside the algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import Multivector, Signature, approx_equal, basis_blade, geometric_product
from .errors import InvalidInput, UnsupportedDivisionRing
from .tables import RING_DIM, classify_real

# 2x2 real building blocks for tensor-word constructions.
_BLOCKS = {
    "i": np.eye(2),
    "s": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "t": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "e": np.array([[0.0, -1.0], [1.0, 0.0]]),
}

# Eight real symmetric anticommuting involutions on R^16 whose full product
# (the chirality operator) is diagonal +-1.  Verified exactly by test.
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


def _tensor_word(word: str) -> np.ndarray:
    m = _BLOCKS[word[0]]
    for ch in word[1:]:
        m = np.kron(m, _BLOCKS[ch])
    return m


CL8_GAMMAS = [_tensor_word(w) for w in _CL8_WORDS]


@dataclass(frozen=True)
class RepBundle:
    """Gamma matrices of one signature plus, built on first use, the stacked blade tensor.

    `blades[mask]` is the ascending product of the generators in mask; it is
    read-only and built once per bundle, so quantization, dequantization and the
    spinor bilinears are single contractions over it.
    """

    sig: Signature
    dim: int
    field_tag: str
    gammas: list = field(repr=False, default_factory=list)

    @cached_property
    def blades(self) -> np.ndarray:
        """(2^n, dim, dim) stack, doubled once per generator: for m < 2^i,
        blades[m | 2^i] = blades[m] gamma_{i+1}, the ascending product."""
        if not self.gammas:
            raise InvalidInput("bundle has no gamma matrices")
        stack = np.eye(self.dim, dtype=np.result_type(*self.gammas))[None]
        for g in self.gammas:
            stack = np.concatenate((stack, stack @ g))
        stack.flags.writeable = False
        return stack

    @cached_property
    def blade_squares(self) -> np.ndarray:
        """e_M^2 for every mask: the reversion sign of |M| times the generator squares in M."""
        masks = np.arange(1 << self.sig.n)
        k = np.bitwise_count(masks)
        negative = np.bitwise_count(masks >> self.sig.p)
        return 1.0 - 2.0 * ((k * (k - 1) // 2 + negative) & 1)

    def gamma_blade(self, mask: int) -> np.ndarray:
        """Matrix of the blade with the given index mask (ascending product), read-only."""
        return self.blades[mask]

    @property
    def chirality(self) -> np.ndarray:
        return self.gamma_blade((1 << self.sig.n) - 1)

    def pairings(self, x: np.ndarray, y: np.ndarray, masks=slice(None)) -> np.ndarray:
        """x^T blades[M] y for each listed mask, as (blades[masks] @ y) @ x (no conjugation)."""
        blades = self.blades[masks]
        gy = _matvec(blades.reshape(-1, self.dim), y).reshape(len(blades), self.dim)
        return gy @ x

    def quantize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_M coeffs[M] blades[M] for a coefficient vector indexed by blade mask."""
        rows = self.blades.reshape(len(self.blades), -1)
        return _matvec(rows.T, np.asarray(coeffs)).reshape(self.dim, self.dim)

    def dequantize(self, T: np.ndarray) -> np.ndarray:
        """Coefficients of T on the blades by the trace pairing, tr(T blades[M]) / (dim e_M^2).

        Inverts quantize when the bundle is faithful and irreducible (dim^2 = 2^n).
        """
        T = np.asarray(T)
        if self.dim * self.dim != len(self.blades) or T.shape != (self.dim, self.dim):
            raise InvalidInput(f"trace-pairing inverse needs a {self.dim}x{self.dim} matrix "
                               f"and dim^2 = 2^n blades")
        rows = self.blades.reshape(len(self.blades), -1)
        return _matvec(rows, T.T.ravel()) / (self.dim * self.blade_squares)


def _matvec(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v; a real `rows` meets a complex v as two real columns, not as a complex copy."""
    if np.iscomplexobj(v) and not np.iscomplexobj(rows):
        pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).reshape(-1, 2)
        return (rows @ pairs).view(np.complex128).ravel()
    return rows @ v


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


def check_clifford_relations(rep: RepBundle, tol: float = 1e-12) -> RelationReport:
    """Max-abs entry of gamma_i gamma_j + gamma_j gamma_i - 2 g_ij I over all pairs."""
    if not rep.gammas:
        raise InvalidInput("bundle has no gamma matrices")
    dim = rep.gammas[0].shape[0]
    if any(g.shape != (dim, dim) for g in rep.gammas):
        raise InvalidInput("gamma matrices of mixed dimensions")
    metric = rep.sig.metric_tuple()
    eye = np.eye(dim)
    worst, worst_pair = 0.0, (0, 0)
    for i, gi in enumerate(rep.gammas):
        for j, gj in enumerate(rep.gammas):
            target = 2.0 * metric[i] * eye if i == j else 0.0 * eye
            res = np.abs(gi @ gj + gj @ gi - target).max()
            if res > worst:
                worst, worst_pair = res, (i + 1, j + 1)
    return RelationReport(float(worst), worst_pair)


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
    sig: Signature
    size: int
    f: list
    Ecol: list
    Erow: list
    Emat: list = field(repr=False, default_factory=list)
    _f1_scalar: float = 0.0

    def component(self, a: int, b: int, x: Multivector, tol: float = 1e-9):
        """Matrix entry x_ab read against f1 from E_1a <> x <> E_b1."""
        prod = geometric_product(geometric_product(self.Erow[a], x), self.Ecol[b])
        lam = prod.scalar_part() / self._f1_scalar
        resid = (prod - self.f[0] * lam).norm_inf()
        scale = max(1.0, prod.norm_inf())
        if resid > tol * scale:
            raise UnsupportedDivisionRing(
                f"E_1{a} x E_{b}1 is not a real multiple of f1 (residual {resid:.2e})"
            )
        return lam

    def matrix_of(self, x: Multivector, tol: float = 1e-9) -> np.ndarray:
        n = self.size
        return np.array([[self.component(a, b, x, tol) for b in range(n)] for a in range(n)])

    def gamma_matrices(self, tol: float = 1e-9) -> list:
        return [
            self.matrix_of(basis_blade(self.sig, [i]), tol) for i in range(1, self.sig.n + 1)
        ]


def _canonical_blades(sig: Signature) -> list:
    masks = range(1 << sig.n)
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def _coeff_vector(mv: Multivector, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    for m, c in mv.terms.items():
        v[m] = c
    return v


def _greedy_ideal_basis(sig: Signature, side_mul, tol: float = 1e-9) -> list:
    """Pivoted scan of blade <> f1 (or f1 <> blade) images, keeping rank-increasing ones.

    Scanning blades in (grade, mask) order makes the chosen basis deterministic
    and reproduces the textbook Cl(2,0) basis verbatim.
    """
    dim = 1 << sig.n
    basis, ortho = [], []
    for mask in _canonical_blades(sig):
        image = side_mul(Multivector(sig, {mask: 1.0}))
        v = _coeff_vector(image, dim)
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


def rep_from_idempotent(sig: Signature, f1: Multivector, tol: float = 1e-9) -> IdempotentRep:
    """Matrix representation of Cl(p,q) from a primitive idempotent f1.

    Computes the minimal left ideal Cl <> f1 by rank analysis of right
    multiplication on the blade basis, picks the column basis {E_A1} by pivoted
    elimination, solves the dual basis {E_1A} from E_1A <> E_B1 = delta f1, and
    assembles E_AB = E_A1 <> E_1B.  Only the real-commutant case is supported:
    f1 <> Cl <> f1 must be one-dimensional over R.
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

    col_basis = _greedy_ideal_basis(sig, lambda b: geometric_product(b, f1), tol)
    if len(col_basis) != expected:
        raise InvalidInput(
            f"ideal dimension {len(col_basis)} != {expected}: f1 is not primitive"
        )
    if not approx_equal(col_basis[0], f1, max(tol, 1e-12)):
        # The scan always hits 1 <> f1 = f1 first; anything else is a logic error.
        raise InvalidInput("ideal basis does not start at f1")

    row_basis = _greedy_ideal_basis(sig, lambda b: geometric_product(f1, b), tol)
    if len(row_basis) != expected:
        raise InvalidInput("row ideal dimension mismatch: f1 is not primitive")

    f1_scalar = f1.scalar_part()
    size = len(col_basis)

    # P[j, b] f1 = row_basis[j] <> col_basis[b]; each product must be a real
    # multiple of f1 (the division-ring gate).
    P = np.zeros((size, size))
    for j, rj in enumerate(row_basis):
        for b, cb in enumerate(col_basis):
            prod = geometric_product(rj, cb)
            lam = prod.scalar_part() / f1_scalar
            resid = (prod - f1 * lam).norm_inf()
            if resid > tol * max(1.0, prod.norm_inf()):
                raise UnsupportedDivisionRing(
                    f"f1 <> Cl <> f1 is not one-dimensional over R (residual {resid:.2e})"
                )
            P[j, b] = lam
    coeffs = np.linalg.solve(P.T, np.eye(size)).T  # row a: E_1a in row-basis coordinates

    erow = []
    for a in range(size):
        acc = Multivector.zero(sig)
        for j, rj in enumerate(row_basis):
            acc = acc + rj * coeffs[a, j]
        erow.append(acc)

    emat = [
        [geometric_product(col_basis[a], erow[b]) for b in range(size)] for a in range(size)
    ]
    f_list = [emat[a][a] for a in range(size)]
    return IdempotentRep(sig, size, f_list, col_basis, erow, emat, f1_scalar)
