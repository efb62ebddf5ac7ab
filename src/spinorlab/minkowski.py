"""Dirac-spinor bilinear covariants in the complexified Cl(1,3), the quadratic
constraints they satisfy, the Fierz aggregate, the six-class zero-pattern
classification, and spinor reconstruction from the bilinear data.

Internal generator indices 1..4 display as the Minkowski labels 0..3.  The
Weyl-representation closed forms of the 16 covariants serve as the golden
oracle; the Dirac representation is tied to it by an exact self-inverse change
of basis.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebra import Multivector, Signature, _check_tol, _dense_contract, blade_images, permutation_sign
from .errors import InconsistentBilinears, InvalidInput, ReconstructionFailed
from .matrices import RepBundle, builtin_gammas, similarity_matrix

SIG13 = Signature(1, 3)
S_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_RAISE = (1.0, -1.0, -1.0, -1.0)

# Coefficient-vector layout of the forms (indices are blade masks of Cl(1,3)) and the
# covariants' positions in probe order: sigma, J_0..3, S (S_PAIRS), K_0..3, omega.
_TAU_MASK = 0b1111
_VECTORS = np.array([1 << m for m in range(4)])
_BIVECTORS = np.array([(1 << m) | (1 << n) for m, n in S_PAIRS])
_S_WEIGHTS = np.array([2.0 * _RAISE[m] * _RAISE[n] for m, n in S_PAIRS])
_SIGMA, _J, _S, _K, _OMEGA = 0, np.arange(1, 5), np.arange(5, 11), np.arange(11, 15), 15
# The flat (5, 16) slot, covariant and weight of each entry of the form rows: J^mu,
# K^mu and 2 S^{mu nu} on their blades, then omega - sigma tau and -(omega + sigma tau)
# (omega on blade 0 and sigma on tau of rows 3 and 4).
_ROW_SLOTS = np.concatenate(
    (_VECTORS, 16 + _VECTORS, 32 + _BIVECTORS, [48, 64, 48 + _TAU_MASK, 64 + _TAU_MASK])
)
_ROW_SOURCES = np.concatenate((_J, _K, _S, [_OMEGA, _OMEGA, _SIGMA, _SIGMA]))
_ROW_WEIGHTS = np.concatenate((_RAISE, _RAISE, _S_WEIGHTS, [1.0, -1.0, -1.0, -1.0]))
_BUNDLES = {name: builtin_gammas(name) for name in ("weyl", "dirac")}
# Covariant A, in probe order, is psibar P_A psi for the probe P_A = w_A e_M, M =
# _PROBE_MASKS[A]: the 16 blades once each, w = 1 for sigma, J and omega, i/2 for S,
# and i s_mu for K_mu = i psibar tau gamma_mu psi, where e_tau e_mu = s_mu e_(tau ^ mu).
_PROBE_MASKS = np.concatenate(([0], _VECTORS, _BIVECTORS, _VECTORS ^ _TAU_MASK, [_TAU_MASK]))
_K_SIGNS = blade_images(SIG13, np.ones(16), [_TAU_MASK])[0][0][_VECTORS ^ _TAU_MASK]
_PROBE_WEIGHTS = np.concatenate((np.ones(5), 1j * np.full(6, 0.5), 1j * _K_SIGNS, [1.0]))
_Z_SOURCES = np.argsort(_PROBE_MASKS)  # the covariant whose probe sits on blade M
_WEIGHTS_BY_MASK = np.repeat(_PROBE_WEIGHTS[_Z_SOURCES, None], 4, axis=1)  # one per entry of e_M psi
# The aggregate sigma + J + (i) 2S + i K tau - omega tau is the Fierz expansion
# 4 psi psibar = sum_M (psibar e_M psi / e_M^2) e_M, so blade M holds covariant
# _Z_SOURCES[M] times 1 / (w e_M^2).  For w = i a that is i / (-a e_M^2), kept as 1j times
# the real reciprocal, so that a zero real part carries its sign; the real-S variant
# (imaginary_s=False) drops the i of the S slots.
_RECIPROCALS = 1.0 / (
    (_PROBE_WEIGHTS.real - _PROBE_WEIGHTS.imag) * _BUNDLES["weyl"].blade_squares[_PROBE_MASKS])
_Z_WEIGHTS = {True: np.where(_PROBE_WEIGHTS.imag != 0, 1j * _RECIPROCALS, _RECIPROCALS)[_Z_SOURCES]}
_Z_WEIGHTS[False] = _Z_WEIGHTS[True].copy()
_Z_WEIGHTS[False][_BIVECTORS] = _RECIPROCALS[_S]
# Every covariant is at most |psi|^2 (each gamma^0 P has operator norm <= 1).  The largest
# value the chain forms from them is a blade-route residual, a difference of two 16-term
# products of form entries up to 2 |psi|^2, so at most 128 |psi|^4: up to this |psi|^2
# (about 1.2e153) the probe products, scale() and every residual stay finite.
_NORM_SQUARED_MAX = math.sqrt(sys.float_info.max / 128)

_SIMILARITY = similarity_matrix()
_SIMILARITY.flags.writeable = False


def _bundle(rep: str) -> RepBundle:
    try:
        return _BUNDLES[rep]
    except KeyError:
        raise InvalidInput(f"unknown representation {rep!r}") from None


@dataclass(frozen=True)
class DiracSpinor:
    """Four complex components in the "weyl" or "dirac" representation.

    Equality and hashing read the two fields.  Besides them an instance keeps,
    each a cached property built on first use, its read-only component vector
    (vector) and its one bilinear pass (_bilinears), which every call of
    bilinears reads and holds to its own tol.
    """

    rep: str
    components: tuple

    def __post_init__(self):
        if self.rep not in _BUNDLES:
            raise InvalidInput(f"unknown representation {self.rep!r}")
        comps = tuple(map(complex, self.components))
        if len(comps) != 4:
            raise InvalidInput("a Dirac spinor has 4 components")
        if not all(map(cmath.isfinite, comps)):
            raise InvalidInput("non-finite spinor component")
        object.__setattr__(self, "components", comps)

    @cached_property
    def vector(self) -> np.ndarray:
        """The components as a read-only complex array."""
        v = np.array(self.components, dtype=complex)
        v.flags.writeable = False
        return v

    @cached_property
    def _bilinears(self) -> "_BilinearPass":
        return _bilinear_pass(self.rep, self.vector)

    def norm_squared(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)


@dataclass(frozen=True)
class BilinearSet:
    """The 16 covariants: sigma, J_mu, S_mu_nu (pairs 01,02,03,12,13,23), K_mu, omega."""

    sigma: float
    J: tuple
    S: tuple
    K: tuple
    omega: float

    def __post_init__(self):
        sigma, omega = float(self.sigma), float(self.omega)
        J, S, K = tuple(map(float, self.J)), tuple(map(float, self.S)), tuple(map(float, self.K))
        if len(J) != 4 or len(K) != 4 or len(S) != 6:
            raise InvalidInput("bilinear blocks must have sizes 4/6/4")
        if not all(map(math.isfinite, (sigma, omega, *J, *S, *K))):
            raise InvalidInput("non-finite bilinear")
        self.__dict__.update(sigma=sigma, J=J, S=S, K=K, omega=omega)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "BilinearSet":
        """The set of 16 finite covariants in probe order, unchecked; `values`, made
        read-only, is kept as _array."""
        c = values.tolist()
        B = object.__new__(cls)
        values.flags.writeable = False
        B.__dict__.update(sigma=c[0], J=tuple(c[1:5]), S=tuple(c[5:11]), K=tuple(c[11:15]),
                          omega=c[15], _array=values)
        return B

    def scale(self) -> float:
        """The sum of the squares of the covariants; InvalidInput when it overflows."""
        try:
            total = (
                self.sigma**2
                + self.omega**2
                + sum(map(mul, self.J, self.J))
                + sum(map(mul, self.S, self.S))
                + sum(map(mul, self.K, self.K))
            )
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise InvalidInput("bilinears too large: the sum of their squares overflows")
        return total

    @cached_property
    def _array(self) -> np.ndarray:
        """The covariants in probe order (sigma, J, S, K, omega) as a read-only array."""
        values = np.array([self.sigma, *self.J, *self.S, *self.K, self.omega])
        values.flags.writeable = False
        return values


class _BilinearPass(NamedTuple):
    """What no tolerance decides about one spinor's covariants, kept as psi._bilinears."""

    covariants: BilinearSet  # the real parts of the 16 probe expectations
    worst_imag: float  # their largest imaginary part
    scale: float  # 1 + |psi|^2


def _bilinear_pass(rep: str, v: np.ndarray) -> _BilinearPass:
    """One contraction of the 16 probes with v: psibar w_A e_M psi, through RepBundle.act.

    A |psi|^2 past _NORM_SQUARED_MAX (or one that overflows) raises InvalidInput
    before any product is formed.
    """
    norm = float(np.vdot(v, v).real)
    if not norm <= _NORM_SQUARED_MAX:
        raise InvalidInput(f"spinor too large: |psi|^2 = {norm:.3g} > {_NORM_SQUARED_MAX:.3g}")
    # every blade matrix is monomial (one unit per row), so each entry of e_M v is one exact
    # product plus exact zeros, and weighting the rows before the adjoint contraction gives
    # the bits of the weighted probes' product (a full weight array, not a broadcast column,
    # halves the multiply)
    bundle = _bundle(rep)
    raw = ((bundle.act(v) * _WEIGHTS_BY_MASK) @ (v.conj() @ bundle.gammas[0]))[_PROBE_MASKS]
    # the |psi|^2 bound keeps the covariants finite, so the set is built unchecked
    return _BilinearPass(BilinearSet._trusted(raw.real), max(map(abs, raw.imag.tolist())), 1.0 + norm)


def bilinears(psi: DiracSpinor, tol: float = 1e-9) -> BilinearSet:
    """The 16 covariants of Eq-style sesquilinear forms, in psi's own representation.

    psi keeps its one bilinear pass; the tol check runs on every call, so a tol
    that rejects psi rejects it whatever earlier calls passed.
    """
    _check_tol(tol)
    bp = psi._bilinears
    if bp.worst_imag > tol * bp.scale:
        raise InvalidInput(f"bilinears not real (imag {bp.worst_imag:.2e}); broken gamma set?")
    return bp.covariants


def bilinears_closed_form(psi: DiracSpinor) -> BilinearSet:
    """Closed forms of the covariants for Weyl components (a, b, c, d).

    Independent of the matrix route; the two must agree and are tested against
    each other.
    """
    if psi.rep != "weyl":
        raise InvalidInput("closed forms are stated for the Weyl representation")
    a, b, c, d = psi.components
    ac, bc, cc, dc = (x.conjugate() for x in (a, b, c, d))
    sigma = c * ac + d * bc + a * cc + b * dc
    J = (
        abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2,
        b * ac + a * bc - d * cc - c * dc,
        1j * (-b * ac + a * bc + d * cc - c * dc),
        abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2,
    )
    S = (
        0.5j * (-d * ac - c * bc + b * cc + a * dc),
        0.5j * (1j * d * ac - 1j * c * bc - 1j * b * cc + 1j * a * dc),
        0.5j * (-c * ac + d * bc + a * cc - b * dc),
        0.5j * (-1j * c * ac + 1j * d * bc - 1j * a * cc + 1j * b * dc),
        0.5j * (d * ac - c * bc + b * cc - a * dc),
        0.5j * (-1j * d * ac - 1j * c * bc - 1j * b * cc - 1j * a * dc),
    )
    K = (
        -abs(a) ** 2 - abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2,
        -b * ac - a * bc - d * cc - c * dc,
        1j * (b * ac - a * bc + d * cc - c * dc),
        -abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2,
    )
    omega = 1j * (c * ac + d * bc - a * cc - b * dc)
    to_real = lambda x: float(complex(x).real)
    return BilinearSet(
        to_real(sigma),
        tuple(to_real(x) for x in J),
        tuple(to_real(x) for x in S),
        tuple(to_real(x) for x in K),
        to_real(omega),
    )


def bilinears_as_forms(B: BilinearSet) -> tuple:
    """(sigma, J, S, K, omega-form) with the covariant components on the blades."""
    J = Multivector(SIG13, {1 << m: B.J[m] for m in range(4)})
    S = Multivector(SIG13, {(1 << m) | (1 << n): B.S[i] for i, (m, n) in enumerate(S_PAIRS)})
    K = Multivector(SIG13, {1 << m: B.K[m] for m in range(4)})
    omega_form = Multivector(SIG13, {_TAU_MASK: B.omega})
    return B.sigma, J, S, K, omega_form


def _form_rows(B: BilinearSet) -> np.ndarray:
    """(5, 16) coefficient rows of the index-raised forms as they sit inside the
    aggregate, J^mu, K^mu, 2 S^{mu nu}, then omega - sigma tau and the negated
    carrier -(omega + sigma tau)."""
    rows = np.zeros(80)
    rows[_ROW_SLOTS] = _ROW_WEIGHTS * B._array[_ROW_SOURCES]
    return rows.reshape(5, 16)


_EPS = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _EPS[_perm] = permutation_sign(_perm)
# (*S)_mn = -1/2 eps_mnab S^ab is a signed copy of one S slot: (m, n, slot, sign) per
# S pair.  The terms ab and ba of the contraction are equal, so their sum halved is
# exact and the copy has the bits of the einsum over _EPS.
_STAR = tuple(
    (m, n, slot, float(-_EPS[m, n, a, b] * _RAISE[a] * _RAISE[b]))
    for m, n in S_PAIRS
    for slot, (a, b) in enumerate(S_PAIRS)
    if _EPS[m, n, a, b]
)


@dataclass(frozen=True)
class FpkReport:
    j_squared: float
    k_plus_j: float
    j_dot_k: float
    flag_plane: float
    auxiliary: tuple | None

    def max_residual(self) -> float:
        """Worst residual, auxiliary ones included; NaN when any residual is NaN."""
        values = (self.j_squared, self.k_plus_j, self.j_dot_k, self.flag_plane,
                  *(self.auxiliary or (0.0,)))
        if any(map(math.isnan, values)):
            return math.nan
        return float(max(values))


def _minkowski_square(x) -> float:
    return x[0] * x[0] - x[1] * x[1] - x[2] * x[2] - x[3] * x[3]


def fpk_residuals(B: BilinearSet, tol: float = 1e-6) -> FpkReport:
    """Quadratic-constraint residuals of a bilinear set, normalized by its scale.

    The flag-plane entry checks J_mu K_nu - K_mu J_nu = 2 omega S_mu_nu
    + 2 sigma (*S)_mu_nu both in coordinates and through the blade algebra; the
    auxiliary entries (reported when sigma^2 + omega^2 > tol) are the product
    relations tying S<>J, S<>K and S<>S to (omega + sigma tau) times K, J, 1.
    """
    _check_tol(tol)
    scale = B.scale()
    if scale == 0.0:
        return FpkReport(0.0, 0.0, 0.0, 0.0, None)
    J, K, S, sigma, omega = B.J, B.K, B.S, B.sigma, B.omega
    j2 = _minkowski_square(J)
    k2 = _minkowski_square(K)
    jdotk = J[0] * K[0] - sum(J[i] * K[i] for i in (1, 2, 3))

    # the six S pairs stand for the antisymmetric 4x4 residual, whose diagonal is zero
    two_omega, two_sigma = 2.0 * omega, 2.0 * sigma
    flag_coord = max(
        abs(J[m] * K[n] - K[m] * J[n] - two_omega * S[i] - two_sigma * (sign * S[slot]))
        for i, (m, n, slot, sign) in enumerate(_STAR)
    )

    rows = _form_rows(B)
    # prod[j, i] = A[i] B[j] for A = (Sf, omega - sigma tau, -carrier) and B = (Jf, Kf, Sf),
    # the carrier being omega + sigma tau: x - (-carrier y) has the bits of x + carrier y
    prod = _dense_contract(SIG13, rows[2:], rows[:3], "product")
    residuals = np.empty((4, 16))
    wedge = _dense_contract(SIG13, rows[0], rows[1], "wedge")
    np.subtract(wedge, prod[2, 1], out=residuals[0])  # flag plane
    np.subtract(prod[:2, 0], prod[1::-1, 2], out=residuals[1:3])  # S J + carrier K, S K + carrier J
    residuals[3] = prod[2, 0]  # S S - (omega^2 - sigma^2) - 2 omega sigma tau
    residuals[3, 0] -= omega**2 - sigma**2
    residuals[3, _TAU_MASK] -= 2.0 * omega * sigma
    flag_alg, *aux = np.abs(residuals, out=residuals).max(axis=1).tolist()
    flag = max(flag_coord, flag_alg)
    aux = tuple(r / scale for r in aux) if sigma**2 + omega**2 > tol else None
    return FpkReport(abs(j2 - sigma**2 - omega**2) / scale, abs(k2 + j2) / scale,
                     abs(jdotk) / scale, flag / scale, aux)


# -- aggregate -----------------------------------------------------------------


def quantize_minkowski(mv: Multivector, rep: str = "weyl") -> np.ndarray:
    """Algebra morphism into 4x4 matrices: blade e^{m1..mk} -> gamma_{m1} ... gamma_{mk}."""
    if mv.sig != SIG13:
        raise InvalidInput("expected a multivector over Cl(1,3)")
    return _bundle(rep).quantize(mv.to_vector())


def dequantize_minkowski(T: np.ndarray, rep: str = "weyl") -> Multivector:
    """Inverse of quantize_minkowski via the trace pairing on the 16 blade matrices."""
    return Multivector.from_vector(SIG13, _bundle(rep).dequantize(T), "complex")


@dataclass(frozen=True)
class FierzAggregate:
    Z: Multivector
    is_boomerang: bool


def _aggregate(B: BilinearSet, rep: str, imaginary_s: bool = True) -> tuple:
    """Coefficient vector z of the aggregate sigma + J + (i) 2S + i K tau - omega tau,
    and its quantization Z (4 psi psibar for spinor data).

    The terms sit on distinct blades, so z is one weighted gather of the covariants.
    """
    z = _Z_WEIGHTS[bool(imaginary_s)] * B._array[_Z_SOURCES]
    return z, _bundle(rep).quantize(z)


def fierz_aggregate(B: BilinearSet, rep: str = "weyl", tol: float = 1e-9,
                    imaginary_s: bool = True) -> FierzAggregate:
    """Multivector aggregate whose quantization is 4 psi psibar for spinor data.

    imaginary_s toggles between the two aggregate variants in circulation: the
    default carries the grade-2 block with a factor i (the one the inversion
    theorem uses); the alternate leaves it real.
    """
    _check_tol(tol)
    z, Zm = _aggregate(B, rep, imaginary_s)
    G0 = _bundle(rep).gammas[0]
    boomerang_resid = np.abs(G0 @ Zm.conj().T @ G0 - Zm).max()
    scale = max(1.0, float(np.abs(Zm).max()))
    return FierzAggregate(Multivector.from_vector(SIG13, z, "complex"),
                          bool(boomerang_resid <= tol * scale))


def _finite(*values):
    """The residuals below run with numpy's overflow warnings off; the covariants are
    finite, so an infinity or a NaN among values means an intermediate overflowed."""
    if not all(map(math.isfinite, values)):
        raise InvalidInput("bilinears too large: the residual overflows")


def aggregate_residuals(B: BilinearSet, rep: str = "weyl") -> tuple:
    """The five sandwich identities Z P Z = 4 <P> Z, P running over the probes
    defining sigma, J, S, K, omega; exact for spinor-derived data, singular or not.
    InvalidInput when an intermediate overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, Z = _aggregate(B, rep)
        top = float(np.abs(Z).max())
        scale = max(1.0, top * top)
        values = B._array
        ZPZ = _PROBE_WEIGHTS[:, None, None] * (Z @ _bundle(rep).act(Z, _PROBE_MASKS))
        r = np.abs(ZPZ - 4.0 * values[:, None, None] * Z).max(axis=(1, 2)) / scale
    r = r.tolist()
    _finite(scale, *r)
    return r[0], max(r[1:5]), max(r[5:11]), max(r[11:15]), r[15]


def factorization_residual(B: BilinearSet) -> float:
    """Residual of Z = (Omega + J) <> (1 + i Omega^-1 K tau), Omega = sigma - omega tau.
    InvalidInput when an intermediate overflows."""
    denom = B.sigma * B.sigma + B.omega * B.omega
    if denom == 0.0:
        raise InvalidInput("factorization requires sigma^2 + omega^2 > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        Jf, Kf = _form_rows(B)[:2]
        z, _ = _aggregate(B, "weyl")
        omega, omega_inv, tau = np.zeros((3, 16))
        omega[[0, _TAU_MASK]] = B.sigma, -B.omega
        omega_inv[[0, _TAU_MASK]] = B.sigma * (1.0 / denom), B.omega * (1.0 / denom)
        tau[_TAU_MASK] = 1.0
        right = _dense_contract(SIG13, omega_inv, Kf, "product")
        right = _dense_contract(SIG13, 1j * right, tau, "product")
        right[0] += 1.0
        cand = _dense_contract(SIG13, omega + Jf, right, "product")
        top = float(np.abs(z).max())
        residual = float(np.abs(cand - z).max()) / max(1.0, top)
    _finite(denom, top, residual)
    return residual


# -- classification --------------------------------------------------------------


def classify_lounesto(psi: DiracSpinor, tol: float = 1e-9):
    """Class 1..6 from the zero pattern of the covariants, or None for ghosts.

    Regular spinors key on sigma/omega alone; singular ones on the S and K
    blocks.  Blocks count as nonzero above tol * (1 + |psi|^2).
    """
    _check_tol(tol)
    B = bilinears(psi)
    threshold = tol * psi._bilinears.scale
    nz = lambda block: max(abs(x) for x in block) > threshold
    if not nz(B.J):
        return None
    sigma_nz, omega_nz = abs(B.sigma) > threshold, abs(B.omega) > threshold
    if sigma_nz and omega_nz:
        return 1
    if sigma_nz:
        return 2
    if omega_nz:
        return 3
    s_nz, k_nz = nz(B.S), nz(B.K)
    if s_nz and k_nz:
        return 4
    if s_nz:
        return 5
    if k_nz:
        return 6
    return None


def change_representation(psi: DiracSpinor) -> DiracSpinor:
    """Apply the self-inverse Weyl<->Dirac matrix and flip the tag."""
    out = _SIMILARITY @ psi.vector
    return DiracSpinor("dirac" if psi.rep == "weyl" else "weyl", tuple(out.tolist()))


# -- inversion -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _default_etas(rep: str) -> tuple:
    """(5, 4) candidate reference spinors, the first nonzero column of the standard
    idempotent and then the four canonical basis spinors, with their etabar gamma^0
    rows, from which etabar Z is read (both read-only)."""
    G = _bundle(rep).gammas
    f = 0.25 * (np.eye(4, dtype=complex) + G[0]) @ (np.eye(4, dtype=complex) + 1j * G[1] @ G[2])
    for col in range(4):
        v = f[:, col]
        if np.abs(v).max() > 1e-12:
            etas = np.vstack((v, np.eye(4, dtype=complex)))
            etabars = etas.conj() @ G[0]
            etas.flags.writeable = etabars.flags.writeable = False
            return etas, etabars
    raise ReconstructionFailed("degenerate default idempotent")


def reconstruct(B: BilinearSet, eta: DiracSpinor | None = None, rep: str = "weyl",
                tol: float = 1e-9) -> tuple:
    """Recover a spinor from its covariants, up to the U(1) phase fixed by eta.

    psi = Z eta / (4 N) with N = sqrt(etabar Z eta) / 2; the default eta is the
    first column of the standard idempotent, with a fallback scan over the
    canonical basis spinors maximizing |etabar Z eta|.
    """
    _check_tol(tol)
    if eta is not None:
        rep = eta.rep
    _, Z = _aggregate(B, rep)
    scale = max(1.0, float(np.abs(Z).max()))

    if eta is None:
        etas, etabars = _default_etas(rep)
        rows = etabars @ Z
    else:
        etas = eta.vector[None]
        rows = etas.conj() @ _bundle(rep).gammas[0] @ Z
    vals = (rows[:, None, :] @ etas[:, :, None]).ravel()  # etabar Z eta per candidate
    pick = int(np.argmax(np.abs(vals)))  # the first candidate among equal maxima
    best, best_raw = etas[pick], complex(vals[pick])
    if abs(best_raw) <= tol * scale:
        raise ReconstructionFailed("etabar Z eta vanished for every candidate eta")
    if abs(best_raw.imag) > tol * scale or best_raw.real < 0:
        if best_raw.real < -tol * scale:
            raise InconsistentBilinears(f"negative radicand {best_raw!r}")
        best_raw = complex(max(best_raw.real, 0.0))
        if best_raw == 0:
            raise ReconstructionFailed("radicand collapsed to zero")
    N = 0.5 * math.sqrt(best_raw.real)
    psi = (Z @ best) / (4.0 * N)
    return DiracSpinor(rep, tuple(psi.tolist())), N
