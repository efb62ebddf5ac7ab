"""Versor operations: reflections, the twisted adjoint action, rotor
exponentials, Pin/Spin membership, and extraction of the orthogonal matrix a
versor induces on the frame.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DENSE_MAX_N,
    Multivector,
    Signature,
    basis_blade,
    blade_images,
    geometric_product,
    right_product_matrix,
    stack_products,
)
from .errors import ConvergenceError, InvalidInput, NonInvertible

_SERIES_CAP = 64


def versor_inverse(a: Multivector, tol: float = 1e-10) -> Multivector:
    """rev(a) / N(a), valid when rev(a) <> a is a nonzero scalar."""
    rev = a.reverse()
    return _inverse_from(a, rev, geometric_product(rev, a), tol)


def _inverse_from(a: Multivector, rev: Multivector, check: Multivector, tol: float) -> Multivector:
    """versor_inverse from rev(a) and its product check = rev(a) <> a."""
    n = check.scalar_part()
    scale = max(1.0, a.norm_inf() ** 2)
    if abs(n) <= tol * scale:
        raise NonInvertible("norm N(a) vanishes")
    if (check - n).norm_inf() > tol * scale:
        raise NonInvertible("rev(a) <> a is not scalar: not a versor")
    return rev * (1.0 / n)


def reflect(u: Multivector, v: Multivector, tol: float = 1e-10) -> Multivector:
    """Reflection of the vector v across the hyperplane orthogonal to u."""
    for name, x in (("u", u), ("v", v)):
        if not x.is_zero() and x.grades() != {1}:
            raise InvalidInput(f"{name} must be grade 1")
    out = -geometric_product(geometric_product(u, v), versor_inverse(u, tol))
    dust = (out - out.grade(1)).norm_inf()
    if dust > tol * max(1.0, out.norm_inf()):
        raise NonInvertible(f"reflection left grade residue {dust:.2e}")
    return out.grade(1)


def twisted_adjoint(a: Multivector, x: Multivector, tol: float = 1e-10) -> Multivector:
    """hat(a) <> x <> a^-1."""
    return geometric_product(
        geometric_product(a.grade_involution(), x), versor_inverse(a, tol)
    )


def apply_versor(a: Multivector, x: Multivector, tol: float = 1e-10) -> Multivector:
    """a <> x <> a^-1 (untwisted; equals the twisted action for even a)."""
    return geometric_product(geometric_product(a, x), versor_inverse(a, tol))


def _series(one, times_b, norm, tol: float):
    """Sum of term_k = term_{k-1} B / k from term_0 = one, until the term drops below tol."""
    term, acc = one, one
    for k in range(1, _SERIES_CAP + 1):
        term = times_b(term) * (1.0 / k)
        acc = acc + term
        if norm(term) <= tol * (1.0 + norm(acc)):
            return acc
    raise ConvergenceError(f"rotor series did not converge in {_SERIES_CAP} terms")


def rotor_exp(B: Multivector, tol: float = 1e-12) -> Multivector:
    """Exponential of a bivector.

    When B <> B is a scalar lam the closed cos/cosh/linear branch applies (for a
    complex B, cosh(m) + B sinh(m) / m with m the complex root of lam); otherwise
    a truncated series runs until the term drops below tol, capped at 64 terms.
    The terms stay in the span of products of B's k blades, at most 2^k of
    them, so a sparse step takes at most k 2^k term pairs.  Up to DENSE_MAX_N
    generators, and when k 2^k reaches a quarter of 2^n, the series runs on a
    coefficient vector in B's dtype: right multiplication by B is the fixed
    matrix right_product_matrix(B), so each term is one vector-matrix product
    and one Multivector is built at the end.  Otherwise the terms are products
    of Multivectors, which beat the 2^n x 2^n matrix for few-term B at n = 7, 8.
    """
    if not B.is_zero() and B.grades() != {2}:
        raise InvalidInput("rotor_exp expects a bivector")
    sig = B.sig
    one = Multivector.scalar(sig, 1.0)
    square = geometric_product(B, B)
    lam = square.scalar_part()
    scale = max(1.0, B.norm_inf() ** 2)
    if (square - lam).norm_inf() <= tol * scale:
        if abs(lam) <= tol * scale:
            return one + B
        if isinstance(lam, complex):
            m = cmath.sqrt(lam)
            return Multivector.scalar(sig, cmath.cosh(m)) + B * (cmath.sinh(m) / m)
        if lam < 0:
            m = math.sqrt(-lam)
            return one * math.cos(m) + B * (math.sin(m) / m)
        m = math.sqrt(lam)
        return one * math.cosh(m) + B * (math.sinh(m) / m)
    k = len(B.terms)
    if sig.n > DENSE_MAX_N or k << (k + 2) < 1 << sig.n:
        return _series(one, lambda term: geometric_product(term, B), Multivector.norm_inf, tol)
    right = right_product_matrix(sig, B.to_vector())
    unit = np.zeros(1 << sig.n, right.dtype)
    unit[0] = 1.0
    acc = _series(unit, lambda term: term @ right, lambda v: np.abs(v).max(), tol)
    return Multivector.from_vector(sig, acc)


def versor_to_matrix(a: Multivector, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal matrix of the twisted adjoint action on the frame.

    Column j holds the frame components of hat(a) <> e^j <> a^-1; the action
    must preserve grade 1 or the input is rejected.  Up to DENSE_MAX_N
    generators the n images are one stack_products call on the gathered
    hat(a) <> e^j and a^-1; above it they are sparse products, column by column.
    """
    frame = 1 << np.arange(a.sig.n)
    images = _frame_images(a, versor_inverse(a, tol), tol)
    return images[:, frame].real.T + 0.0  # + 0.0: zero entries read 0.0, not -0.0


def _frame_images(a: Multivector, inv: Multivector, tol: float) -> np.ndarray:
    """Coefficient rows of hat(a) <> e^j <> inv, j = 1..n; NonInvertible unless each is a vector."""
    sig = a.sig
    hat = a.grade_involution()
    dim = 1 << sig.n
    frame = 1 << np.arange(sig.n)
    if sig.n <= DENSE_MAX_N:
        _, hat_frame = blade_images(sig, hat.to_vector(), frame)
        images = stack_products(sig, hat_frame, inv.to_vector()[None])[:, 0]
    else:
        images = np.array(
            [geometric_product(geometric_product(hat, basis_blade(sig, [j])), inv).to_vector()
             for j in range(1, sig.n + 1)]
        )
    off_grade = np.bitwise_count(np.arange(dim)) != 1
    for image in images:
        scale = max(1.0, float(np.abs(image).max()))
        if not float(np.abs(image[off_grade]).max(initial=0.0)) <= tol * scale:
            raise NonInvertible("twisted adjoint does not preserve grade 1: not a versor")
    return images


@dataclass(frozen=True)
class MembershipReport:
    is_even: bool
    norm_N: float
    preserves_vectors: bool
    verdict: str


def membership(a: Multivector, tol: float = 1e-9) -> MembershipReport:
    """Pin/Spin/Spin+ verdict from evenness, |N(a)| = 1, and vector preservation.

    One product rev(a) <> a gives N(a) and a^-1; one pass of frame images checks
    that the twisted adjoint action preserves grade 1, as versor_to_matrix does.
    """
    rev = a.reverse()
    check = geometric_product(rev, a)
    n_val = float(np.real(check.scalar_part()))
    is_even = all(k % 2 == 0 for k in a.grades())
    try:
        _frame_images(a, _inverse_from(a, rev, check, tol), tol)
        preserves = True
    except NonInvertible:
        preserves = False
    unit_norm = abs(abs(n_val) - 1.0) <= tol
    verdict = "none"
    if preserves and unit_norm:
        if is_even:
            verdict = "spin_plus" if abs(n_val - 1.0) <= tol else "spin"
        else:
            verdict = "pin"
    return MembershipReport(is_even, n_val, preserves, verdict)


def metric_matrix(sig: Signature) -> np.ndarray:
    return np.diag(np.array(sig.metric_tuple(), dtype=float))
