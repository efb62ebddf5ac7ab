"""Generalised bilinear covariants on Cl(8,0): the admissible pairing, graded
spinor bilinears, quantization/dequantization between polyforms and 16x16
matrices, the rank-one Fierz polyforms, the zero-pattern classification of the
complexified covariants (32 labels, 0 the trivial class), and the algebraic
constraint operator of the flux background.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .algebra import Multivector, Signature, _check_tol, _dense_contract, permutation_sign
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
# Each parameter enters Q divided by its divisor: dDelta_m / 2, -F_idx / 12 and -kappa.
_FLUX_DIVISORS = np.array([2.0] * 8 + [-12.0] * len(_FOUR_FORMS) + [-1.0])


@lru_cache(maxsize=256)
def gamma_blade(mask: int) -> np.ndarray:
    """Matrix of the (8,0) blade e^{mask}: ascending product of the gamma set (read-only)."""
    return CL8.gamma_blade(mask)


def chirality() -> np.ndarray:
    return CL8.chirality


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


def _grade_covariant(x: np.ndarray, y: np.ndarray, k: int) -> Multivector:
    """B(x, gamma_M y) on each ascending blade M of size k, for real or complex x, y."""
    if not 0 <= k <= 8:
        raise InvalidInput("grade must lie in 0..8")
    masks = _GRADE_MASKS[k]
    coeffs = np.zeros(1 << 8, np.result_type(x, y))
    coeffs[masks] = CL8.pairings(x, y, masks)
    return Multivector.from_vector(SIG80, coeffs)


def gen_bilinear(x, y, k: int) -> Multivector:
    """Grade-k covariant: B(x, gamma_M y) on each ascending blade M of size k."""
    return _grade_covariant(_as_spinor(x), _as_spinor(y), k)


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
    b32 = float(x3 @ x2)  # B(x3, x2)
    # gamma_M x2 / 16 and gamma_M x4 / 16 on every blade M, one pass over the blade stack
    g2, g4 = (CL8.act(np.stack((x2, x4), axis=1)) / 16.0).T
    e12, e34, e14 = x1 @ g2, x3 @ g4, x1 @ g4  # the polyforms of CL8.pairings(x, y) / 16
    prod_vec = _dense_contract(SIG80, e12, e34, "product")
    target = e14 * b32
    norm = max(1.0, float(np.abs(prod_vec).max()), float(np.abs(target).max()))
    resid_form = float(np.abs(prod_vec - target).max()) / norm

    # rank_one_matrix of each pair, on the arrays validated above
    m12, m34, m14 = np.outer(x1, x2), np.outer(x3, x4), np.outer(x1, x4)
    mat_target = b32 * m14
    mat_norm = max(1.0, float(np.abs(mat_target).max()))
    m1234 = m12 @ m34
    resid_mat = float(np.abs(m1234 - mat_target).max()) / mat_norm

    bridge = float(np.abs(quantize(Multivector.from_vector(SIG80, prod_vec)) - m1234).max()) / mat_norm
    return float(np.max([resid_form, resid_mat, bridge]))  # np.max keeps a NaN wherever it sits


def complexified_bilinears(xR, xI, k: int) -> Multivector:
    """Grade-k complexified covariant with real part B(xR,.xR) - B(xI,.xI) and
    imaginary part B(xR,.xI) + B(xI,.xR); computed for every grade (the
    off-pattern grades come out zero for the symmetric pairing).
    """
    z = _as_spinor(xR) + 1j * _as_spinor(xI)
    return _grade_covariant(z, z, k)  # B(z, gamma z) = the real and imaginary parts above


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
    _check_tol(tol)
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
        for key, val in self.F.items():
            # one lookup accepts a key equal to an ascending tuple (ints, numpy ints, 1.0)
            idx = _FOUR_FORM_KEYS.get(key)
            if idx is None:
                raise _bad_four_form_key(key)
            val = float(val)
            if not math.isfinite(val):
                raise InvalidInput(f"non-finite 4-form coefficient at {idx}")
            if val != 0.0:
                clean[idx] = val
        object.__setattr__(self, "F", clean)

    @classmethod
    def _trusted(cls, f: tuple, F: dict, dDelta: tuple, kappa: float) -> "FluxData":
        """FluxData of fields already in the form __post_init__ leaves: tuples of 8
        finite floats, a finite float kappa and nonzero finite floats on ascending keys."""
        flux = object.__new__(cls)
        flux.__dict__.update(f=f, F=F, dDelta=dDelta, kappa=kappa)
        return flux


_FOUR_FORM_KEYS = {idx: idx for idx in _FOUR_FORMS}


def _bad_four_form_key(key) -> InvalidInput:
    """The error for a 4-form key that is not one of the 70 ascending tuples; a
    tuple of integers (operator.index) in 1..8 is named as not ascending."""
    try:
        entries = tuple(map(operator.index, key)) if isinstance(key, tuple) else None
    except TypeError:
        entries = None
    if entries is None:
        return InvalidInput(f"bad 4-form index tuple {key!r}")
    if len(entries) != 4 or any(not 1 <= i <= 8 for i in entries):
        return InvalidInput(f"bad 4-form index tuple {entries}")
    return InvalidInput(f"4-form indices must be strictly ascending: {entries}")


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
    enters with weight 4!/288 = 1/12.  Q is one quantization of one coefficient
    vector: dDelta / 2, -F / 12 and -kappa on their blades (_FLUX_DIVISORS, which
    flux_with_kernel_spinor's response matrix reads too) and, when f is nonzero,
    -1/6 times the Hodge dual of the 1-form f, one grade-7 blade per f_p.
    """
    if not isinstance(flux, FluxData):
        raise InvalidInput("expected FluxData")
    coeffs = np.zeros(1 << 8)
    params = [*flux.dDelta, *(flux.F.get(idx, 0.0) for idx in _FOUR_FORMS), flux.kappa]
    coeffs[_FLUX_MASKS] = np.divide(params, _FLUX_DIVISORS)
    if any(flux.f):
        f_form = np.zeros(1 << 8)
        f_form[_FLUX_MASKS[:8]] = flux.f
        coeffs -= hodge(Multivector.from_vector(SIG80, f_form)).to_vector() / 6.0
    return ConstraintOperator(CL8.quantize(coeffs), flux)


def _as_operator(Q) -> np.ndarray:
    """Q as a 2-D float array; InvalidInput for a complex, non-numeric or non-finite one."""
    Q = np.asarray(Q)
    if Q.dtype.kind not in "biuf" or Q.ndim != 2:
        raise InvalidInput("the constraint operator must be a real matrix")
    Q = Q.astype(float, copy=False)
    if not np.isfinite(Q).all():
        raise InvalidInput("non-finite entry in the constraint operator")
    return Q


def kernel(Q: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal kernel basis (columns) by singular-value thresholding."""
    _check_tol(tol)
    Q = _as_operator(Q)
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
    imply the other.  E_{x,y} and E_{y,x} are read off one CL8.act of the
    (16, 2) block of x and y; each contracts a contiguous copy of its
    (256, 16) half, so it has the bits of CL8.pairings(x, y) / 16.
    """
    q_form = CL8.dequantize(_as_operator(Q))
    x, y = _as_spinor(x), _as_spinor(y)
    g = CL8.act(np.stack((x, y), axis=1))  # gamma_M x at [M, :, 0], gamma_M y at [M, :, 1]
    exy, eyx = np.ascontiguousarray(g[..., 1]) @ x / 16.0, np.ascontiguousarray(g[..., 0]) @ y / 16.0
    scale = max(1.0, float(np.abs(exy).max()) * max(1.0, float(np.abs(q_form).max())))
    left = float(np.abs(_dense_contract(SIG80, exy, q_form, "product")).max())
    right = float(np.abs(_dense_contract(SIG80, q_form, eyx, "product")).max())
    return (left + right) / scale


def _flux_response(x: np.ndarray) -> np.ndarray:
    """16 x 79 response of Q x to (dDelta, F, kappa) for a nonzero x scaled to unit
    max-norm: column j is generator j applied to it, over its divisor."""
    return CL8.act(x / np.abs(x).max(), _FLUX_MASKS).T * (1.0 / _FLUX_DIVISORS)


def flux_with_kernel_spinor(x, rng=None) -> FluxData:
    """Random flux (f = 0) whose constraint operator annihilates the given spinor.

    Q is linear in (dDelta, F, kappa), so the flux is a unit vector in the
    nullspace of the 16 x 79 response matrix A of those parameters on x.  A is
    built from x scaled to unit max-norm, so the draw does not depend on the
    scale of x.  The weights are a 79-dim standard Gaussian g projected onto
    null(A), g - A^T (A A^T)^-1 A g (A has rank 16), then normalised: uniform on
    the unit sphere of the nullspace, as an orthonormal nullspace basis times a
    Gaussian would give, though not the same values for a given generator.
    rng is a numpy Generator or a seed for np.random.default_rng (None: seed 0).
    With f = 0 the operator is symmetric, so x also spans kernel directions of
    Q transpose.
    """
    xv = _as_spinor(x)
    if not xv.any():
        raise InvalidInput("seed spinor must be nonzero")
    try:
        rng = np.random.default_rng(0 if rng is None else rng)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"rng must be a numpy Generator or a seed: {exc}") from None
    A = _flux_response(xv)
    g = rng.standard_normal(A.shape[1])
    weights = g - A.T @ np.linalg.solve(A @ A.T, A @ g)
    weights /= np.linalg.norm(weights)
    w = weights.tolist()
    F = {idx: v for idx, v in zip(_FOUR_FORMS, w[8:-1]) if v != 0.0}
    return FluxData._trusted((0.0,) * 8, F, tuple(w[:8]), w[-1])
