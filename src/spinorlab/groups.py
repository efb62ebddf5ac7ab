"""Versor operations: reflections, the twisted adjoint action, rotor
exponentials, Pin/Spin membership, and extraction of the orthogonal matrix a
versor induces on the frame.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    _check_tol,
    basis_blade,
    blade_images,
    geometric_product,
    right_product_matrix,
    stack_products,
)
from .errors import ConvergenceError, InvalidInput, NonInvertible

_SERIES_CAP = 64
# Up to this n the versor and rotor routes run on coefficient vectors, above it on terms.
# Not the kernel's 10: by the product rule the frame images ran 1.5-2x slower for 2- to
# 8-term versors at n = 4..8, and rotor_exp's k 2^k rule was fitted at n <= 8 only.
_VECTOR_MAX_N = 8


class _FrameMasks(NamedTuple):
    frame: np.ndarray  # the masks 2^(j-1), j = 1..n
    off_grade: np.ndarray  # over all 2^n blades: grade != 1


@lru_cache(maxsize=None)
def _frame_masks(n: int) -> _FrameMasks:
    """The read-only masks of n generators that the frame images read."""
    masks = _FrameMasks(1 << np.arange(n), np.bitwise_count(np.arange(1 << n)) != 1)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _scalar_and_rest(x: Multivector) -> tuple:
    """(<x>_0, |x - <x>_0|_inf): from the coefficient vector up to _VECTOR_MAX_N
    generators, where the rest is NaN when the scalar part is not finite, as
    the difference of terms is; from the terms above, where a vector of 2^n
    coefficients would outweigh a sparse product."""
    if x.sig.n > _VECTOR_MAX_N:
        s = x.scalar_part()
        return s, (x - s).norm_inf()
    v = x.to_vector()
    s = v[0].item()
    return s, float(np.abs(v[1:]).max(initial=abs(s - s)))


class _VersorPass:
    """What no tolerance decides about one versor a, kept in a._versor.

    norm = N(a) = <rev(a) <> a>_0, resid = |rev(a) <> a - N(a)|_inf and scale =
    max(1, |a|_inf^2) come from one product; the inverse rev(a) / N(a), the
    frame images and their bounds are formed on first use, once a tol has
    passed the inverse's checks.  The checks themselves run on every call
    (_checked_pass, _checked_images), so a tol that rejects a still raises.
    """

    __slots__ = ("rev", "norm", "resid", "scale", "inverse", "images", "bounds")

    def __init__(self, a: Multivector):
        self.rev = a.reverse()
        self.norm, self.resid = _scalar_and_rest(geometric_product(self.rev, a))
        self.scale = max(1.0, a.norm_inf() ** 2)
        self.inverse = self.images = self.bounds = None


def _versor_pass(a: Multivector) -> _VersorPass:
    try:
        return a._versor
    except AttributeError:
        pass
    vp = _VersorPass(a)
    object.__setattr__(a, "_versor", vp)
    return vp


def _checked_pass(a: Multivector, tol: float) -> _VersorPass:
    """a's versor pass with its inverse; NonInvertible unless rev(a) <> a is a nonzero scalar.
    Every tol of the versor functions is checked here (_check_tol)."""
    _check_tol(tol)
    vp = _versor_pass(a)
    if abs(vp.norm) <= tol * vp.scale:
        raise NonInvertible("norm N(a) vanishes")
    if vp.resid > tol * vp.scale:
        raise NonInvertible("rev(a) <> a is not scalar: not a versor")
    if vp.inverse is None:
        vp.inverse = vp.rev * (1.0 / vp.norm)
    return vp


def versor_inverse(a: Multivector, tol: float = 1e-10) -> Multivector:
    """rev(a) / N(a), valid when rev(a) <> a is a nonzero scalar."""
    return _checked_pass(a, tol).inverse


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


def _vector_series(right: np.ndarray, tol: float) -> np.ndarray:
    """_series from the unit on a coefficient vector, times_b = (@ right), in place.

    Each term takes one norm.  |acc|_inf is read only when the term is within
    tol of bound = 2 sum_k |term_k|_inf (the unit's 1 included), which
    bounds it with room for rounding; the bound only filters, so the series
    stops at the term _series stops at and returns the same bits.
    """
    term = np.zeros(len(right), right.dtype)
    term[0] = 1.0
    acc, step, magnitude = term.copy(), np.empty_like(term), np.empty(len(term))
    largest = np.maximum.reduce  # NaN-propagating, as ndarray.max
    total = 1.0
    for k in range(1, _SERIES_CAP + 1):
        np.dot(term, right, out=step)
        np.multiply(step, 1.0 / k, out=term)
        acc += term
        size = float(largest(np.abs(term, out=magnitude)))
        total += size
        if size <= tol * (1.0 + 2.0 * total):  # else size > tol (1 + |acc|) too
            if size <= tol * (1.0 + float(largest(np.abs(acc, out=magnitude)))):
                return acc
    raise ConvergenceError(f"rotor series did not converge in {_SERIES_CAP} terms")


def rotor_exp(B: Multivector, tol: float = 1e-12) -> Multivector:
    """Exponential of a bivector.

    When B <> B is a scalar lam the closed cos/cosh/linear branch applies (for a
    complex B, cosh(m) + B sinh(m) / m with m the complex root of lam); otherwise
    a truncated series runs until the term drops below tol, capped at 64 terms.
    The terms stay in the span of products of B's k blades, at most 2^k of
    them, so a sparse step takes at most k 2^k term pairs.  Up to _VECTOR_MAX_N
    generators, and when k 2^k reaches a quarter of 2^n, the series runs on a
    coefficient vector in B's dtype: right multiplication by B is the fixed
    matrix right_product_matrix(B), so each term is one vector-matrix product
    and one norm (_vector_series), and one Multivector is built at the end.
    Otherwise the terms are products of Multivectors, which beat the 2^n x 2^n
    matrix for few-term B at n = 7, 8.
    """
    _check_tol(tol)
    if not B.is_zero() and B.grades() != {2}:
        raise InvalidInput("rotor_exp expects a bivector")
    sig = B.sig
    lam, rest = _scalar_and_rest(geometric_product(B, B))
    scale = max(1.0, B.norm_inf() ** 2)
    if rest <= tol * scale:
        one = Multivector.scalar(sig, 1.0)
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
    if sig.n > _VECTOR_MAX_N or k << (k + 2) < 1 << sig.n:
        one = Multivector.scalar(sig, 1.0)
        return _series(one, lambda term: geometric_product(term, B), Multivector.norm_inf, tol)
    return Multivector._of_vector(sig, _vector_series(right_product_matrix(sig, B.to_vector()), tol))


def versor_to_matrix(a: Multivector, tol: float = 1e-10) -> np.ndarray:
    """Orthogonal matrix of the twisted adjoint action on the frame.

    Column j holds the frame components of hat(a) <> e^j <> a^-1; the action
    must preserve grade 1 or the input is rejected.  The matrix is complex
    when an entry has a nonzero imaginary part (orthogonal under the
    transpose, M^T G M = G, with no conjugate) and float64 otherwise, as
    membership's norm_N is.  The images come from a's versor pass, shared
    with membership and versor_inverse (_VersorPass).
    """
    columns = _checked_images(a, tol)[:, _frame_masks(a.sig.n).frame]
    if columns.dtype.kind == "c" and not columns.imag.any():
        columns = columns.real
    return columns.T + 0.0  # + 0.0: zero entries read 0.0, not -0.0


def _images(a: Multivector, inv: Multivector) -> np.ndarray:
    """Coefficient rows of hat(a) <> e^j <> inv, j = 1..n.

    Up to _VECTOR_MAX_N generators the n images are one stack_products call on
    the gathered hat(a) <> e^j and inv; above it they are sparse products,
    one image at a time.
    """
    sig = a.sig
    hat = a.grade_involution()
    if sig.n <= _VECTOR_MAX_N:
        _, hat_frame = blade_images(sig, hat.to_vector(), _frame_masks(sig.n).frame)
        return stack_products(sig, hat_frame, inv.to_vector()[None])[:, 0]
    return np.array(
        [geometric_product(geometric_product(hat, basis_blade(sig, [j])), inv).to_vector()
         for j in range(1, sig.n + 1)]
    )


def _image_bounds(images: np.ndarray) -> list:
    """Per image, (the largest off-grade magnitude, max(1, the largest magnitude))."""
    magnitudes = np.abs(images)
    scale = np.maximum(1.0, magnitudes.max(axis=1))  # a NaN image gives a NaN scale and fails
    off_grade = magnitudes[:, _frame_masks(len(images)).off_grade].max(axis=1, initial=0.0)
    return list(zip(off_grade.tolist(), scale.tolist()))


def _check_grade_one(bounds: list, tol: float):
    if not all(off_grade <= tol * scale for off_grade, scale in bounds):
        raise NonInvertible("twisted adjoint does not preserve grade 1: not a versor")


def _frame_images(a: Multivector, inv: Multivector, tol: float) -> np.ndarray:
    """Coefficient rows of hat(a) <> e^j <> inv, j = 1..n; NonInvertible unless each is a vector."""
    images = _images(a, inv)
    _check_grade_one(_image_bounds(images), tol)
    return images


def _checked_images(a: Multivector, tol: float) -> np.ndarray:
    """_frame_images of a and a^-1 from a's versor pass, formed once; both checks read tol."""
    vp = _checked_pass(a, tol)
    if vp.images is None:
        vp.images = _images(a, vp.inverse)
        vp.images.flags.writeable = False
        vp.bounds = _image_bounds(vp.images)
    _check_grade_one(vp.bounds, tol)
    return vp.images


@dataclass(frozen=True)
class MembershipReport:
    is_even: bool
    norm_N: float | complex  # N(a); a float unless its imaginary part is nonzero
    preserves_vectors: bool
    verdict: str


def membership(a: Multivector, tol: float = 1e-9) -> MembershipReport:
    """Pin/Spin/Spin+ verdict from evenness, N(a) = +-1, and vector preservation.

    N(a) and the frame images come from a's versor pass, the one
    versor_to_matrix reads (_VersorPass); the tol checks run here.  N(a) is
    decided as a complex number: it must lie within tol of +1 or -1, and
    Spin+ asks for +1.
    """
    norm = _versor_pass(a).norm
    is_even = all(k % 2 == 0 for k in a.grades())
    try:
        _checked_images(a, tol)
        preserves = True
    except NonInvertible:
        preserves = False
    unit_norm = min(abs(norm - 1.0), abs(norm + 1.0)) <= tol
    verdict = "none"
    if preserves and unit_norm:
        if is_even:
            verdict = "spin_plus" if abs(norm - 1.0) <= tol else "spin"
        else:
            verdict = "pin"
    norm_N = norm if isinstance(norm, complex) and norm.imag else float(norm.real)
    return MembershipReport(is_even, norm_N, preserves, verdict)


def metric_matrix(sig: Signature) -> np.ndarray:
    return np.diag(np.array(sig.metric_tuple(), dtype=float))
