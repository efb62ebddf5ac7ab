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
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    blade_images,
    dense_table,
    permutation_sign,
    stack_products,
)
from .errors import InconsistentBilinears, InvalidInput, ReconstructionFailed
from .matrices import RepBundle, builtin_gammas, similarity_matrix

SIG13 = Signature(1, 3)
S_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_RAISE = (1.0, -1.0, -1.0, -1.0)

# Coefficient-vector layout of the forms (indices are blade masks of Cl(1,3)):
# the (row, mask) slot and the index-raising weight of each J, K and S component.
_TAU_MASK = 0b1111
_VECTORS = np.array([1 << m for m in range(4)])
_BIVECTORS = np.array([(1 << m) | (1 << n) for m, n in S_PAIRS])
_FORM_SLOTS = (np.repeat([0, 1, 2], [4, 4, 6]), np.concatenate((_VECTORS, _VECTORS, _BIVECTORS)))
_FORM_WEIGHTS = np.array(_RAISE * 2 + tuple(2.0 * _RAISE[m] * _RAISE[n] for m, n in S_PAIRS))
# The aggregate sigma + J + (i) 2S + i K tau - omega tau: the blade and the weight of
# each of sigma, J, K, S, omega.  K tau is K gathered onto the blades M ^ tau with the
# signs of right multiplication by tau, (v tau)[c] = v[c ^ tau] G[c ^ tau, c].
_TAU_SIGNS = blade_images(SIG13, np.ones(16), [_TAU_MASK])[1][0]
_Z_MASKS = np.concatenate(([0], _VECTORS, _VECTORS ^ _TAU_MASK, _BIVECTORS, [_TAU_MASK]))
_K_TAU_WEIGHTS = 1j * np.multiply(_RAISE, _TAU_SIGNS[_VECTORS ^ _TAU_MASK])
_Z_WEIGHTS = {
    imaginary_s: np.concatenate(
        ([1.0], _RAISE, _K_TAU_WEIGHTS, _FORM_WEIGHTS[8:] * (1j if imaginary_s else 1.0), [-1.0])
    )
    for imaginary_s in (True, False)
}
# The coordinate route's S slots and raising signs; the blade route's wedge table.
_S_INDEX = tuple(np.array(S_PAIRS).T)
_RAISE_OUTER = np.outer(_RAISE, _RAISE)
_TABLE = dense_table(SIG13)

_BUNDLES = {name: builtin_gammas(name) for name in ("weyl", "dirac")}


def _bundle(rep: str) -> RepBundle:
    try:
        return _BUNDLES[rep]
    except KeyError:
        raise InvalidInput(f"unknown representation {rep!r}") from None


def _gammas(rep: str) -> list:
    return _bundle(rep).gammas


@lru_cache(maxsize=None)
def _probes(rep: str) -> np.ndarray:
    """(16, 4, 4) probes P whose expectations psibar P psi are sigma, J_mu, S_mu_nu, K_mu, omega."""
    blades = _bundle(rep).blades
    tau = blades[0b1111]
    stack = np.stack(
        [blades[0]]
        + [blades[1 << m] for m in range(4)]
        + [0.5j * blades[(1 << m) | (1 << n)] for m, n in S_PAIRS]
        + [1j * tau @ blades[1 << m] for m in range(4)]
        + [tau]
    )
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True)
class DiracSpinor:
    rep: str
    components: tuple

    def __post_init__(self):
        if self.rep not in _BUNDLES:
            raise InvalidInput(f"unknown representation {self.rep!r}")
        comps = tuple(complex(c) for c in self.components)
        if len(comps) != 4:
            raise InvalidInput("a Dirac spinor has 4 components")
        if not all(map(cmath.isfinite, comps)):
            raise InvalidInput("non-finite spinor component")
        object.__setattr__(self, "components", comps)

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.components, dtype=complex)

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
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "J", tuple(float(x) for x in self.J))
        object.__setattr__(self, "S", tuple(float(x) for x in self.S))
        object.__setattr__(self, "K", tuple(float(x) for x in self.K))
        if len(self.J) != 4 or len(self.K) != 4 or len(self.S) != 6:
            raise InvalidInput("bilinear blocks must have sizes 4/6/4")
        if not all(map(math.isfinite, (self.sigma, self.omega, *self.J, *self.S, *self.K))):
            raise InvalidInput("non-finite bilinear")

    def scale(self) -> float:
        return (
            self.sigma**2
            + self.omega**2
            + sum(x * x for x in self.J)
            + sum(x * x for x in self.S)
            + sum(x * x for x in self.K)
        )


def bilinears(psi: DiracSpinor, tol: float = 1e-9) -> BilinearSet:
    """The 16 covariants of Eq-style sesquilinear forms, in psi's own representation."""
    v = psi.vector
    bar = v.conj() @ _gammas(psi.rep)[0]
    raw = (_probes(psi.rep) @ v) @ bar  # bar P_i v for the 16 probes, as in RepBundle.pairings
    scale = 1.0 + psi.norm_squared()
    worst_imag = float(np.abs(raw.imag).max())
    if worst_imag > tol * scale:
        raise InvalidInput(f"bilinears not real (imag {worst_imag:.2e}); broken gamma set?")
    vals = raw.real.tolist()
    return BilinearSet(vals[0], tuple(vals[1:5]), tuple(vals[5:11]), tuple(vals[11:15]), vals[15])


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
    aggregate, J^mu, K^mu, 2 S^{mu nu}, then omega - sigma tau and omega + sigma tau."""
    rows = np.zeros((5, 16))
    rows[_FORM_SLOTS] = _FORM_WEIGHTS * np.array(B.J + B.K + B.S)
    rows[3:, 0] = B.omega
    rows[3:, _TAU_MASK] = (-B.sigma, B.sigma)
    return rows


_EPS = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _EPS[_perm] = permutation_sign(_perm)


@dataclass(frozen=True)
class FpkReport:
    j_squared: float
    k_plus_j: float
    j_dot_k: float
    flag_plane: float
    auxiliary: tuple | None

    def max_residual(self) -> float:
        """Worst residual, auxiliary ones included; NaN when any residual is NaN."""
        aux = self.auxiliary or (0.0,)
        return float(np.max([self.j_squared, self.k_plus_j, self.j_dot_k, self.flag_plane, *aux]))


def _minkowski_square(x) -> float:
    return x[0] * x[0] - x[1] * x[1] - x[2] * x[2] - x[3] * x[3]


def fpk_residuals(B: BilinearSet, tol: float = 1e-6) -> FpkReport:
    """Quadratic-constraint residuals of a bilinear set, normalized by its scale.

    The flag-plane entry checks J_mu K_nu - K_mu J_nu = 2 omega S_mu_nu
    + 2 sigma (*S)_mu_nu both in coordinates and through the blade algebra; the
    auxiliary entries (reported when sigma^2 + omega^2 > tol) are the product
    relations tying S<>J, S<>K and S<>S to (omega + sigma tau) times K, J, 1.
    """
    scale = B.scale()
    if scale == 0.0:
        return FpkReport(0.0, 0.0, 0.0, 0.0, None)
    j2 = _minkowski_square(B.J)
    k2 = _minkowski_square(B.K)
    jdotk = B.J[0] * B.K[0] - sum(B.J[i] * B.K[i] for i in (1, 2, 3))

    J, K, S = np.array(B.J), np.array(B.K), np.array(B.S)
    s_full = np.zeros((4, 4))
    s_full[_S_INDEX] = S
    s_full[_S_INDEX[::-1]] = -S
    star_s = -0.5 * np.einsum("mnab,ab->mn", _EPS, _RAISE_OUTER * s_full)
    lhs = J[:, None] * K - K[:, None] * J
    flag_coord = float(np.abs(lhs - 2.0 * B.omega * s_full - 2.0 * B.sigma * star_s).max())

    rows = _form_rows(B)
    # prod[i, j] = A[i] B[j] for A = (Sf, omega - sigma tau, carrier) and B = (Jf, Kf, Sf),
    # the carrier being omega + sigma tau
    prod = stack_products(SIG13, rows[2:], rows[:3])
    residuals = np.empty((4, 16))
    residuals[0] = _TABLE.wedge(rows[0], rows[1]) - prod[1, 2]  # flag plane
    residuals[1:3] = prod[0, :2] + prod[2, 1::-1]  # S J + carrier K, S K + carrier J
    residuals[3] = prod[0, 2]  # S S - (omega^2 - sigma^2) - 2 omega sigma tau
    residuals[3, 0] -= B.omega**2 - B.sigma**2
    residuals[3, _TAU_MASK] -= 2.0 * B.omega * B.sigma
    flag_alg, *aux = np.abs(residuals).max(axis=1).tolist()
    flag = max(flag_coord, flag_alg)
    aux = tuple(r / scale for r in aux) if B.sigma**2 + B.omega**2 > tol else None
    return FpkReport(abs(j2 - B.sigma**2 - B.omega**2) / scale, abs(k2 + j2) / scale,
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

    The terms sit on distinct blades, so z is one weighted scatter of the covariants.
    """
    z = np.zeros(16, dtype=complex)
    z[_Z_MASKS] = _Z_WEIGHTS[bool(imaginary_s)] * np.array((B.sigma, *B.J, *B.K, *B.S, B.omega))
    return z, _bundle(rep).quantize(z)


def fierz_aggregate(B: BilinearSet, rep: str = "weyl", tol: float = 1e-9,
                    imaginary_s: bool = True) -> FierzAggregate:
    """Multivector aggregate whose quantization is 4 psi psibar for spinor data.

    imaginary_s toggles between the two aggregate variants in circulation: the
    default carries the grade-2 block with a factor i (the one the inversion
    theorem uses); the alternate leaves it real.
    """
    z, Zm = _aggregate(B, rep, imaginary_s)
    G0 = _gammas(rep)[0]
    boomerang_resid = np.abs(G0 @ Zm.conj().T @ G0 - Zm).max()
    scale = max(1.0, float(np.abs(Zm).max()))
    return FierzAggregate(Multivector.from_vector(SIG13, z, "complex"),
                          bool(boomerang_resid <= tol * scale))


def aggregate_residuals(B: BilinearSet, rep: str = "weyl") -> tuple:
    """The five sandwich identities Z P Z = 4 <P> Z, P running over the probes
    defining sigma, J, S, K, omega; exact for spinor-derived data, singular or not.
    """
    _, Z = _aggregate(B, rep)
    scale = max(1.0, float(np.abs(Z).max()) ** 2)
    values = np.array((B.sigma, *B.J, *B.S, *B.K, B.omega))
    r = np.abs(Z @ _probes(rep) @ Z - 4.0 * values[:, None, None] * Z).max(axis=(1, 2)) / scale
    r = r.tolist()
    return r[0], max(r[1:5]), max(r[5:11]), max(r[11:15]), r[15]


def factorization_residual(B: BilinearSet) -> float:
    """Residual of Z = (Omega + J) <> (1 + i Omega^-1 K tau), Omega = sigma - omega tau."""
    denom = B.sigma**2 + B.omega**2
    if denom == 0.0:
        raise InvalidInput("factorization requires sigma^2 + omega^2 > 0")
    Jf, Kf = _form_rows(B)[:2]
    z, _ = _aggregate(B, "weyl")
    omega, omega_inv, tau = np.zeros((3, 16))
    omega[[0, _TAU_MASK]] = B.sigma, -B.omega
    omega_inv[[0, _TAU_MASK]] = B.sigma * (1.0 / denom), B.omega * (1.0 / denom)
    tau[_TAU_MASK] = 1.0
    right = _TABLE.product(1j * _TABLE.product(omega_inv, Kf), tau)
    right[0] += 1.0
    cand = _TABLE.product(omega + Jf, right)
    return float(np.abs(cand - z).max()) / max(1.0, float(np.abs(z).max()))


# -- classification --------------------------------------------------------------


def classify_lounesto(psi: DiracSpinor, tol: float = 1e-9):
    """Class 1..6 from the zero pattern of the covariants, or None for ghosts.

    Regular spinors key on sigma/omega alone; singular ones on the S and K
    blocks.  Blocks count as nonzero above tol * (1 + |psi|^2).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput("tolerance must be a positive finite number")
    B = bilinears(psi)
    threshold = tol * (1.0 + psi.norm_squared())
    nz = lambda block: max(abs(x) for x in block) > threshold
    sigma_nz, omega_nz = abs(B.sigma) > threshold, abs(B.omega) > threshold
    j_nz, s_nz, k_nz = nz(B.J), nz(B.S), nz(B.K)
    if not j_nz:
        return None
    if sigma_nz and omega_nz:
        return 1
    if sigma_nz:
        return 2
    if omega_nz:
        return 3
    if s_nz and k_nz:
        return 4
    if s_nz:
        return 5
    if k_nz:
        return 6
    return None


def change_representation(psi: DiracSpinor) -> DiracSpinor:
    """Apply the self-inverse Weyl<->Dirac matrix and flip the tag."""
    out = similarity_matrix() @ psi.vector
    return DiracSpinor("dirac" if psi.rep == "weyl" else "weyl", tuple(out))


# -- inversion -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _default_etas(rep: str) -> np.ndarray:
    """(5, 4) candidate reference spinors: the first nonzero column of the standard
    idempotent, then the four canonical basis spinors (read-only)."""
    G = _gammas(rep)
    f = 0.25 * (np.eye(4, dtype=complex) + G[0]) @ (np.eye(4, dtype=complex) + 1j * G[1] @ G[2])
    for col in range(4):
        v = f[:, col]
        if np.abs(v).max() > 1e-12:
            etas = np.vstack((v, np.eye(4, dtype=complex)))
            etas.flags.writeable = False
            return etas
    raise ReconstructionFailed("degenerate default idempotent")


def reconstruct(B: BilinearSet, eta: DiracSpinor | None = None, rep: str = "weyl",
                tol: float = 1e-9) -> tuple:
    """Recover a spinor from its covariants, up to the U(1) phase fixed by eta.

    psi = Z eta / (4 N) with N = sqrt(etabar Z eta) / 2; the default eta is the
    first column of the standard idempotent, with a fallback scan over the
    canonical basis spinors maximizing |etabar Z eta|.
    """
    if eta is not None:
        rep = eta.rep
    G0 = _gammas(rep)[0]
    _, Z = _aggregate(B, rep)
    scale = max(1.0, float(np.abs(Z).max()))

    etas = _default_etas(rep) if eta is None else eta.vector[None]
    rows = etas.conj() @ G0 @ Z
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
    N = 0.5 * float(np.sqrt(best_raw.real))
    psi = (Z @ best) / (4.0 * N)
    return DiracSpinor(rep, tuple(psi)), N
