"""Generalised bilinear covariants on Cl(8,0): the admissible pairing, graded
spinor bilinears, quantization/dequantization between polyforms and 16x16
matrices, the rank-one Fierz polyforms, the zero-pattern classification of the
complexified covariants (32 labels, 0 the trivial class), and the algebraic
constraint operator of the flux background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .algebra import Multivector, Signature, basis_blade, dense_table, permutation_sign
from .errors import InvalidInput, UnsupportedSignature
from .matrices import builtin_gammas
from .structure import hodge

SIG80 = Signature(8, 0)
DIM = 16
SURVIVING_GRADES = (0, 1, 4, 5, 8)
CL8 = builtin_gammas("cl8")  # its (256, 16, 16) blade stack is built on first use

_GRADE_MASKS = [np.flatnonzero(np.bitwise_count(np.arange(1 << 8)) == k) for k in range(9)]
# The 136 blades of the surviving grades, grade by grade, and where each grade starts.
_SURVIVING_MASKS = np.concatenate([_GRADE_MASKS[k] for k in SURVIVING_GRADES])
_SURVIVING_STARTS = np.cumsum([0] + [len(_GRADE_MASKS[k]) for k in SURVIVING_GRADES[:-1]])
# Flux generators in the order of the constraint's parameters: dDelta_1..8, the
# 70 ascending four-form indices, kappa.
_FOUR_FORMS = list(combinations(range(1, 9), 4))
_FLUX_MASKS = np.array(
    [1 << m for m in range(8)] + [sum(1 << (i - 1) for i in idx) for idx in _FOUR_FORMS] + [0xFF]
)


@lru_cache(maxsize=256)
def gamma_blade(mask: int) -> np.ndarray:
    """Matrix of the (8,0) blade e^{mask}: ascending product of the gamma set (read-only)."""
    return CL8.blades[mask]


def chirality() -> np.ndarray:
    return gamma_blade(0xFF)


def _as_spinor(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (DIM,):
        raise InvalidInput(f"Majorana spinor must have {DIM} real components")
    if not np.isfinite(v).all():
        raise InvalidInput("non-finite spinor component")
    return v


def pairing(x, y) -> float:
    """Admissible bilinear B: the Euclidean dot product in the symmetric-gamma basis."""
    return float(_as_spinor(x) @ _as_spinor(y))


def gen_bilinear(x, y, k: int) -> Multivector:
    """Grade-k covariant: B(x, gamma_M y) on each ascending blade M of size k."""
    if not 0 <= k <= 8:
        raise InvalidInput("grade must lie in 0..8")
    masks = _GRADE_MASKS[k]
    coeffs = np.zeros(1 << 8)
    coeffs[masks] = CL8.pairings(_as_spinor(x), _as_spinor(y), masks)
    return Multivector.from_vector(SIG80, coeffs)


def fierz_polyform(x, y) -> Multivector:
    """Polyform (1/16) sum_k E^{(k)}_{x,y}; quantizes to the rank-one map psi -> B(psi,y) x."""
    coeffs = CL8.pairings(_as_spinor(x), _as_spinor(y)) / 16.0
    return Multivector.from_vector(SIG80, coeffs)


def quantize(alpha: Multivector) -> np.ndarray:
    """Algebra morphism Cl(8,0) -> Mat(16,R) (complex output for complex input)."""
    if alpha.sig != SIG80:
        raise InvalidInput("expected a multivector over Cl(8,0)")
    return CL8.quantize(alpha.to_vector())


def dequantize(T: np.ndarray, sig: Signature = SIG80) -> Multivector:
    """Trace-pairing inverse of quantize; only defined on simple signatures."""
    if (sig.p - sig.q) % 8 in (1, 5):
        raise UnsupportedSignature(
            f"gamma is not injective for p - q = {(sig.p - sig.q) % 8} mod 8; no dequantization"
        )
    if sig != SIG80:
        raise InvalidInput("only the built-in (8,0) bundle is wired for dequantization")
    T = np.asarray(T)
    if T.shape != (DIM, DIM):
        raise InvalidInput("expected a 16x16 matrix")
    return Multivector.from_vector(SIG80, CL8.dequantize(T))


def rank_one_matrix(x, y) -> np.ndarray:
    """Matrix of psi -> B(psi, y) x."""
    return np.outer(_as_spinor(x), _as_spinor(y))


def fierz_identity_residual(x1, x2, x3, x4) -> float:
    """Four-spinor Fierz identity: E_{12} <> E_{34} = B(x3,x2) E_{14} in the algebra
    and as endomorphisms; returns the worst normalized residual of either route
    (and of their agreement through quantization).
    """
    x1, x2, x3, x4 = map(_as_spinor, (x1, x2, x3, x4))
    e12, e34, e14 = (CL8.pairings(a, b) / 16.0 for a, b in ((x1, x2), (x3, x4), (x1, x4)))
    prod_vec = dense_table(SIG80).product(e12, e34)
    target = e14 * pairing(x3, x2)
    norm = max(1.0, float(np.abs(prod_vec).max()), float(np.abs(target).max()))
    resid_form = float(np.abs(prod_vec - target).max()) / norm

    m12, m34, m14 = (rank_one_matrix(a, b) for a, b in ((x1, x2), (x3, x4), (x1, x4)))
    mat_target = pairing(x3, x2) * m14
    mat_norm = max(1.0, float(np.abs(mat_target).max()))
    resid_mat = float(np.abs(m12 @ m34 - mat_target).max()) / mat_norm

    bridge = float(np.abs(quantize(Multivector.from_vector(SIG80, prod_vec)) - m12 @ m34).max()) / mat_norm
    return float(np.max([resid_form, resid_mat, bridge]))  # np.max keeps a NaN wherever it sits


def complexified_bilinears(xR, xI, k: int) -> Multivector:
    """Grade-k complexified covariant with real part B(xR,.xR) - B(xI,.xI) and
    imaginary part B(xR,.xI) + B(xI,.xR); computed for every grade (the
    off-pattern grades come out zero for the symmetric pairing).
    """
    if not 0 <= k <= 8:
        raise InvalidInput("grade must lie in 0..8")
    z = _as_spinor(xR) + 1j * _as_spinor(xI)
    masks = _GRADE_MASKS[k]
    coeffs = np.zeros(1 << 8, dtype=np.complex128)
    coeffs[masks] = CL8.pairings(z, z, masks)  # B(z, gamma z) = the real and imaginary parts above
    return Multivector.from_vector(SIG80, coeffs)


@dataclass(frozen=True)
class M8Class:
    """Zero pattern and label; `maxima` holds the per-grade largest |covariant| the
    pattern was decided on (grades 0,1,4,5,8) and takes no part in equality."""

    pattern: tuple
    label: int
    maxima: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.pattern) != 5:
            raise InvalidInput("pattern covers grades 0,1,4,5,8")


def classify_m8(xR, xI, tol: float = 1e-10) -> M8Class:
    """Zero-pattern class of the complexified covariants on grades 0,1,4,5,8.

    The label is the binary encoding of the pattern (grade-0 flag is bit 0);
    the all-zero pattern is the trivial class 0.  A grade is nonzero when its
    largest complexified covariant exceeds tol * (1 + |xR|^2 + |xI|^2).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput("tolerance must be a positive finite number")
    xr, xi = _as_spinor(xR), _as_spinor(xI)
    scale = 1.0 + float(xr @ xr) + float(xi @ xi)
    z = xr + 1j * xi
    # |B(z, gamma_M z)| on every surviving blade M: complexified_bilinears of all five grades
    mags = np.abs(CL8.pairings(z, z, _SURVIVING_MASKS))
    maxima = np.maximum.reduceat(mags, _SURVIVING_STARTS)
    flags = (maxima > tol * scale).tolist()
    label = sum(1 << i for i, f in enumerate(flags) if f)
    return M8Class(tuple(flags), label, tuple(maxima.tolist()))


# -- algebraic constraints -------------------------------------------------------


@dataclass(frozen=True)
class FluxData:
    """Background data entering the algebraic constraint: 1-form f, antisymmetric
    4-form coefficients F (keyed by ascending index 4-tuples, 1-based), the warp
    gradient, and the cosmological parameter kappa."""

    f: tuple = (0.0,) * 8
    F: dict = field(default_factory=dict)
    dDelta: tuple = (0.0,) * 8
    kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "f", tuple(float(v) for v in self.f))
        object.__setattr__(self, "dDelta", tuple(float(v) for v in self.dDelta))
        object.__setattr__(self, "kappa", float(self.kappa))
        if len(self.f) != 8 or len(self.dDelta) != 8:
            raise InvalidInput("f and dDelta carry 8 components")
        if not all(math.isfinite(v) for v in (*self.f, *self.dDelta, self.kappa)):
            raise InvalidInput("non-finite f, dDelta or kappa")
        clean = {}
        for idx, val in self.F.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != 4 or any(not 1 <= i <= 8 for i in idx):
                raise InvalidInput(f"bad 4-form index tuple {idx}")
            if len(set(idx)) != 4 or list(idx) != sorted(idx):
                raise InvalidInput(f"4-form indices must be strictly ascending: {idx}")
            val = float(val)
            if not math.isfinite(val):
                raise InvalidInput(f"non-finite 4-form coefficient at {idx}")
            if val != 0.0:
                clean[idx] = val
        object.__setattr__(self, "F", clean)


def flux_from_tensor(F4: np.ndarray, **kwargs) -> FluxData:
    """Build FluxData from a rank-4 coefficient tensor, checking antisymmetry."""
    F4 = np.asarray(F4, dtype=float)
    if F4.shape != (8, 8, 8, 8):
        raise InvalidInput("F tensor must be 8^4")
    coeffs = {}
    for idx in combinations(range(8), 4):
        coeffs[tuple(i + 1 for i in idx)] = float(F4[idx])
    # antisymmetry: every permutation must match its signed ascending value
    probe = np.zeros_like(F4)
    for idx, val in coeffs.items():
        base = tuple(i - 1 for i in idx)
        for perm in permutations(range(4)):
            probe[tuple(base[p] for p in perm)] = permutation_sign(perm) * val
    if not np.allclose(probe, F4, atol=1e-12 * max(1.0, np.abs(F4).max())):
        raise InvalidInput("4-form tensor is not antisymmetric")
    return FluxData(F=coeffs, **kwargs)


@dataclass(frozen=True)
class ConstraintOperator:
    Q: np.ndarray
    flux: FluxData


def build_constraint_operator(flux: FluxData) -> ConstraintOperator:
    """Q = (1/2) dDelta_m gamma^m - (1/288) F_mpqr gamma^mpqr - (1/6) f_p *(gamma^p)
    - kappa gamma^{1..8}, with the Hodge dual taken in the blade algebra.

    The four-form sum runs over all index tuples, so each ascending coefficient
    enters with weight 4!/288 = 1/12.
    """
    if not isinstance(flux, FluxData):
        raise InvalidInput("expected FluxData")
    coeffs = np.zeros(1 << 8)
    coeffs[_FLUX_MASKS] = (
        [0.5 * d for d in flux.dDelta]
        + [-flux.F.get(idx, 0.0) / 12.0 for idx in _FOUR_FORMS]
        + [-flux.kappa]
    )
    Q = CL8.quantize(coeffs)
    for p in range(8):
        if flux.f[p]:
            dual = hodge(basis_blade(SIG80, [p + 1]))
            Q -= (flux.f[p] / 6.0) * quantize(dual)
    return ConstraintOperator(Q, flux)


def kernel(Q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis (columns) by singular-value thresholding."""
    Q = np.asarray(Q, dtype=float)
    u, s, vt = np.linalg.svd(Q)
    cutoff = tol * (s[0] if s.size and s[0] > 0 else 1.0)
    null_dim = int((s <= cutoff).sum())
    if null_dim == 0:
        return np.zeros((Q.shape[1], 0))
    return vt[-null_dim:].T


def cgk_residual(Q: np.ndarray, x, y) -> float:
    """Normalized size of E_{x,y} <> Q-check and Q-check <> E_{y,x}.

    Both vanish when x and y sit in the kernel of Q and of its transpose; the
    built-in flux operators with f = 0 are symmetric, making one condition
    imply the other.
    """
    table = dense_table(SIG80)
    q_form = CL8.dequantize(np.asarray(Q, dtype=float))
    x, y = _as_spinor(x), _as_spinor(y)
    exy, eyx = CL8.pairings(x, y) / 16.0, CL8.pairings(y, x) / 16.0
    scale = max(1.0, float(np.abs(exy).max()) * max(1.0, float(np.abs(q_form).max())))
    left = float(np.abs(table.product(exy, q_form)).max())
    right = float(np.abs(table.product(q_form, eyx)).max())
    return (left + right) / scale


def flux_with_kernel_spinor(x, rng=None) -> FluxData:
    """Random flux (f = 0) whose constraint operator annihilates the given spinor.

    Q is linear in (dDelta, F, kappa); the flux is drawn from the nullspace of
    the 16 x 79 response matrix of those parameters on x.  With f = 0 the
    operator is symmetric, so x also spans kernel directions of Q transpose.
    """
    xv = _as_spinor(x)
    if np.linalg.norm(xv) == 0:
        raise InvalidInput("seed spinor must be nonzero")
    if rng is None:
        rng = np.random.default_rng(0)
    scale = np.array([0.5] * 8 + [-1.0 / 12.0] * len(_FOUR_FORMS) + [-1.0])
    A = (CL8.blades[_FLUX_MASKS] @ xv).T * scale  # 16 x 79: column j is generator j applied to x
    _, s, vt = np.linalg.svd(A)
    null = vt[len(s[s > 1e-10 * s[0]]):].T
    weights = null @ rng.normal(size=null.shape[1])
    weights /= np.linalg.norm(weights)
    w = weights.tolist()
    return FluxData(f=(0.0,) * 8, F=dict(zip(_FOUR_FORMS, w[8:-1])), dDelta=tuple(w[:8]), kappa=w[-1])
