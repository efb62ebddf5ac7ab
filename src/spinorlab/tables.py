"""Classification lookups: real/complex Clifford algebras, spinor spaces, and
real even subalgebras.  One periodicity table, keyed on p - q mod 8 (or the
parity of n for the complexification), gives the algebras; the spinor spaces
and even subalgebras are read off its rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Signature
from .errors import InvalidInput

RING_DIM = {"R": 1, "C": 2, "H": 4}


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Mat(dim, ring) or a direct sum of two copies of it."""

    division_ring: str
    matrix_dim: int
    summands: int = 1

    @property
    def real_dimension(self) -> int:
        return self.summands * self.matrix_dim**2 * RING_DIM[self.division_ring]

    def __str__(self):
        mat = f"Mat({self.matrix_dim},{self.division_ring})"
        return mat if self.summands == 1 else f"{mat}+{mat}"


@dataclass(frozen=True)
class SpinorSpaceDescriptor:
    """K^dim or a direct sum of two copies of it."""

    field: str
    dim: int
    summands: int = 1

    def __str__(self):
        space = f"{self.field}^{self.dim}"
        return space if self.summands == 1 else f"{space}+{space}"


# Rows keyed on p-q mod 8: (ring, exponent offset from floor(n/2), summands).
_REAL_ROWS = {
    0: ("R", 0, 1),
    1: ("R", 0, 2),
    2: ("R", 0, 1),
    3: ("C", 0, 1),
    4: ("H", -1, 1),
    5: ("H", -1, 2),
    6: ("H", -1, 1),
    7: ("C", 0, 1),
}


def classify_real(p: int, q: int) -> AlgebraDescriptor:
    """Real Clifford algebra Cl(p,q) as a matrix algebra over R, C or H."""
    sig = Signature(p, q)  # the integer and range checks
    ring, offset, summands = _REAL_ROWS[(sig.p - sig.q) % 8]
    return AlgebraDescriptor(ring, 2 ** (sig.n // 2 + offset), summands)


def classify_complex(n: int) -> AlgebraDescriptor:
    """Complexified Clifford algebra of an n-dimensional space."""
    n = Signature(n, 0).n  # the integer and range checks
    return AlgebraDescriptor("C", 2 ** (n // 2), 1 if n % 2 == 0 else 2)


def _even_subalgebra(sig: Signature, field: str) -> AlgebraDescriptor:
    # Cl(p,q)'s even subalgebra is Cl(p,q-1), or Cl(q,p-1); complexified, that of n - 1 generators.
    if sig.n == 0:
        raise InvalidInput("even subalgebra undefined for (0,0)")
    if field == "complex":
        return classify_complex(sig.n - 1)
    return classify_real(sig.p, sig.q - 1) if sig.q else classify_real(sig.q, sig.p - 1)


def spinor_space(p: int, q: int, kind: str, field: str = "real"):
    """Spinor-space (or even-subalgebra) descriptor for Cl(p,q).

    kind: 'algebraic', 'classical' or 'even_subalgebra'; field selects the real
    tables or their complexified counterparts.  The algebraic spinors of
    Mat(d, K) are K^d, read off the algebra's row; the classical spinors are
    the algebraic spinors of the even subalgebra.
    """
    sig = Signature(p, q)
    if field not in ("real", "complex"):
        raise InvalidInput(f"unknown field {field!r}")
    if kind == "even_subalgebra":
        return _even_subalgebra(sig, field)
    if kind == "algebraic":
        row = classify_real(sig.p, sig.q) if field == "real" else classify_complex(sig.n)
    elif kind == "classical":
        row = _even_subalgebra(sig, field)
    else:
        raise InvalidInput(f"unknown spinor-space kind {kind!r}")
    return SpinorSpaceDescriptor(row.division_ring, row.matrix_dim, row.summands)
