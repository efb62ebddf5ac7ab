"""Structural operators built on the volume form: Hodge duality, the rho/P
idempotent pair, lower/upper truncation, and the parallel-orthogonal split
relative to a unit 1-form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Multivector,
    Signature,
    _check_tol,
    _grade,
    basis_blade,
    geometric_product,
    left_contraction,
    sharp,
    wedge,
)
from .errors import CliffordError, InvalidInput

THETA_NORM_TOL = 1e-9


def volume_square_sign(sig: Signature) -> int:
    """Sign of tau<>tau from the p-q mod 8 rule: +1 on 0,1,4,5, else -1."""
    return 1 if (sig.p - sig.q) % 8 in (0, 1, 4, 5) else -1


@dataclass(frozen=True)
class VolumeForm:
    sig: Signature
    tau: Multivector
    square_sign: int


def volume_form(sig: Signature) -> VolumeForm:
    """Top blade e^{1..n} with its square sign, cross-checked rule vs product."""
    tau = basis_blade(sig, range(1, sig.n + 1))
    by_rule = volume_square_sign(sig)
    square = geometric_product(tau, tau)
    by_product = square.scalar_part()
    if square.grades() - {0} or by_product != by_rule:
        raise CliffordError(
            f"volume sign cross-check failed for {sig}: rule {by_rule}, product {square!r}"
        )
    return VolumeForm(sig, tau, by_rule)


def hodge(a: Multivector) -> Multivector:
    """Hodge dual: right multiplication by the volume form."""
    return geometric_product(a, volume_form(a.sig).tau)


def rho(sig: Signature, sign: int) -> Multivector:
    """The element (1 +- tau)/2; an idempotent when p - q = 0,1,4,5 mod 8."""
    if sign not in (1, -1):
        raise InvalidInput("sign must be +1 or -1")
    one = Multivector.scalar(sig, 1.0)
    return (one + volume_form(sig).tau * sign) * 0.5


def projector_pm(a: Multivector, sign: int) -> Multivector:
    """P_pm(a) = a <> rho_pm = (a +- *a)/2."""
    if sign not in (1, -1):
        raise InvalidInput("sign must be +1 or -1")
    return (a + hodge(a) * sign) * 0.5


def truncate(a: Multivector, part: str) -> Multivector:
    """Keep grades 0..floor(n/2) (lower) or floor(n/2)+1..n (upper)."""
    half = a.sig.n // 2
    if part == "lower":
        keep = lambda k: k <= half
    elif part == "upper":
        keep = lambda k: k > half
    else:
        raise InvalidInput(f"unknown truncation part {part!r}")
    return Multivector(a.sig, {m: c for m, c in a.terms.items() if keep(_grade(m))}, a.field)


def truncated_product(a: Multivector, b: Multivector, sign: int) -> Multivector:
    """a o_pm b = 2 P_L(P_pm(a) <> P_pm(b)).

    An associative unital algebra only when n is odd and p - q = 0,1,4,5 mod 8;
    the formula itself is defined for every signature.
    """
    a._require_same(b)
    prod = geometric_product(projector_pm(a, sign), projector_pm(b, sign))
    return truncate(prod, "lower") * 2.0


@dataclass(frozen=True)
class SplitResult:
    parallel: Multivector
    orthogonal: Multivector
    top: Multivector


def _check_theta(theta: Multivector):
    if theta.is_zero() or theta.grades() != {1}:
        raise InvalidInput("theta must be a nonzero grade-1 form")
    norm = geometric_product(theta, theta).scalar_part()
    if abs(norm - 1.0) > THETA_NORM_TOL:
        raise InvalidInput(f"theta not unit-normalized: g*(theta,theta) = {norm}")


def split_parallel_orthogonal(theta: Multivector, w: Multivector) -> SplitResult:
    """Unique decomposition w = theta ^ top + orthogonal against a unit 1-form."""
    theta._require_same(w)
    _check_theta(theta)
    theta_sharp = sharp(theta)
    top = left_contraction(theta_sharp, w)
    parallel = wedge(theta, top)
    orthogonal = left_contraction(theta_sharp, wedge(theta, w))
    return SplitResult(parallel, orthogonal, top)


def parallelism_predicate(theta: Multivector, w: Multivector, kind: str, tol: float = 1e-10) -> bool:
    """Test theta || w (theta^w = 0) or theta _|_ w (sharp(theta) .| w = 0).

    Each condition is evaluated both directly and through its graded
    (anti)commutation characterisation; disagreement raises.
    """
    _check_tol(tol)
    theta._require_same(w)
    _check_theta(theta)
    scale = max(1.0, w.norm_inf())
    tw = geometric_product(theta, w)
    wt = geometric_product(w.grade_involution(), theta)
    if kind == "parallel":
        direct = wedge(theta, w).norm_inf() <= tol * scale
        via_product = (tw + wt).norm_inf() <= tol * scale
    elif kind == "orthogonal":
        direct = left_contraction(sharp(theta), w).norm_inf() <= tol * scale
        via_product = (tw - wt).norm_inf() <= tol * scale
    else:
        raise InvalidInput(f"unknown predicate kind {kind!r}")
    if direct != via_product:
        raise CliffordError("parallelism characterisations disagree; tolerance too tight?")
    return direct
