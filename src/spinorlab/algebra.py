"""Multivector arithmetic for the universal Clifford algebra Cl(p,q).

Blades are encoded as bitmasks over the generators e^1..e^n (bit i-1 set means
generator i is present); the empty mask is the scalar unit.  Products carry
signs from transposition counting and metric factors diag(+1^p, -1^q) on the
contracted indices.  Coefficients are double precision, real or complex, and
stored sparsely with exact zeros pruned.

Products take one of two routes, chosen from n and the operands' term counts
only.  The sparse route is one loop over term pairs in Python under a blade
rule (product or wedge) and serves every n <= MAX_GENERATORS.  The dense route
serves n <= DENSE_MAX_N = 8 when |a|*|b| >= k * 2^n (k = 1 for the geometric
product, 4 for the wedge, whose sparse loop skips overlapping pairs cheaply):
it contracts coefficient vectors through the signature's blade tables,
out[c] = sum_r va[r] vb[r ^ c] T[r, c] with T[r, c] the sign of e_r e_{r^c}
(wedge: zero where the blades overlap).  The tables are built once per
signature in one vectorised pass and stored as uint8 index and int8 signs,
3 * 4^n bytes: 192 KiB at n = 8; they exist up to n = 10 (uint16 index,
4 MiB).  One blocked contraction serves vectors and stacks alike: the dense
route, DenseTable, and stack_products, which forms every product of two
coefficient stacks at once.  blade_images gathers the blade multiples e_M v
and v e_M without forming a product.
The two routes agree to rounding on finite coefficients; the JSON decoder
rejects non-finite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidInput, SignatureMismatch

MAX_GENERATORS = 16
DENSE_MAX_N = 8  # products take the table route only up to here
DENSE_TABLE_MAX_N = 10  # largest signature with blade tables (DenseTable, stacks)


@dataclass(frozen=True)
class Signature:
    """Quadratic-space signature (p, q): first p generators square to +1, last q to -1."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InvalidInput(f"negative signature ({self.p},{self.q})")
        if self.p + self.q > MAX_GENERATORS:
            raise InvalidInput(f"p+q = {self.p + self.q} exceeds {MAX_GENERATORS} generators")

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric(self, i: int) -> int:
        """Square of generator i (1-based)."""
        if not 1 <= i <= self.n:
            raise InvalidInput(f"generator index {i} outside 1..{self.n}")
        return 1 if i <= self.p else -1

    def metric_tuple(self) -> tuple[int, ...]:
        return tuple(1 if i <= self.p else -1 for i in range(1, self.n + 1))

    def __str__(self):
        return f"Cl({self.p},{self.q})"


def _count_swaps(mask_a: int, mask_b: int) -> int:
    """Number of index pairs (i in a, j in b) with i > j: transpositions to interleave."""
    count = 0
    a = mask_a >> 1
    while a:
        count += bin(a & mask_b).count("1")
        a >>= 1
    return count


def _blade_product(mask_a: int, mask_b: int, metric: tuple[int, ...]) -> tuple[int, int]:
    """Geometric product of unit blades: returns (sign * metric factor, result mask)."""
    sign = -1 if _count_swaps(mask_a, mask_b) & 1 else 1
    shared = mask_a & mask_b
    i = 0
    while shared:
        if shared & 1:
            sign *= metric[i]
        shared >>= 1
        i += 1
    return sign, mask_a ^ mask_b


def _blade_wedge(mask_a: int, mask_b: int, metric=None) -> tuple[int, int]:
    """Exterior product of unit blades: 0 on shared indices, else signed union (metric-free)."""
    if mask_a & mask_b:
        return 0, 0
    sign = -1 if _count_swaps(mask_a, mask_b) & 1 else 1
    return sign, mask_a | mask_b


def _blade_contract(i: int, mask: int) -> tuple[int, int]:
    """Frame contraction e_i .| e^{mask} (Kronecker pairing): (sign, result mask)."""
    bit = 1 << (i - 1)
    if not mask & bit:
        return 0, 0
    below = bin(mask & (bit - 1)).count("1")
    return (-1 if below & 1 else 1), mask ^ bit


def permutation_sign(perm) -> int:
    """+1 for an even permutation of 0..k-1, -1 for an odd one (parity of the inversions)."""
    perm = tuple(perm)
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions & 1 else 1


def _grade(mask: int) -> int:
    return bin(mask).count("1")


@lru_cache(maxsize=64)
def _blade_tables(sig: Signature) -> tuple:
    """Gather index, sign table and wedge sign table of one signature.

    idx[a, k] = a ^ k, G[a, k] = sign of e_a e_{a^k} (= G[a, k] e_k) and
    W[a, k] = G[a, k] where a and a ^ k share no generator, else 0.  The sign's
    parity, swaps(a, b) + |a & b & negative generators|, is bilinear over GF(2)
    in (a, b): it equals |b & H(a)| with H(a) = (a >> 1) ^ (a >> 2) ^ ... ^
    (a & negative generators), so one bitwise_count over the table gives it.
    Tables stop at n = DENSE_TABLE_MAX_N (a 16-bit index, 4 MiB).
    """
    if sig.n > DENSE_TABLE_MAX_N:
        raise InvalidInput(f"blade tables limited to n <= {DENSE_TABLE_MAX_N}")
    dim = 1 << sig.n
    a = np.arange(dim, dtype=np.uint8 if sig.n <= 8 else np.uint16)
    h = a & a.dtype.type((dim - 1) ^ ((1 << sig.p) - 1))
    for s in range(1, sig.n):
        h ^= a >> s
    idx = a[:, None] ^ a
    G = 1 - 2 * (np.bitwise_count(idx & h[:, None]) & 1).astype(np.int8)
    W = np.where(a[:, None] & idx, np.int8(0), G)
    for table in (idx, G, W):
        table.flags.writeable = False
    return idx, G, W


_GATHER_ENTRIES = 1 << 14  # entries gathered per block: bounds the temporary at 128 KiB of float64


def _contract(a: np.ndarray, b: np.ndarray, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
    """out[..., c] = sum_r a[..., r] b[..., r ^ c] table[r, c], a block of rows r at a time.

    a and b are coefficient vectors or (count, 2^n) stacks, real or complex; for
    stacks A (m rows) and B (k rows) the result is out[j, i, c], the product
    A[i] B[j].  Each block gathers b[..., idx[rows]] for as many rows as keep
    the temporary near _GATHER_ENTRIES entries (at least one row, b.size
    entries), whatever the stacks' heights are.
    """
    step = max(1, _GATHER_ENTRIES // max(1, b.size))
    out = None
    for r in range(0, len(idx), step):
        x = b[..., idx[r : r + step]]  # x[..., a, c] = b[..., a ^ c]
        x *= table[r : r + step]
        part = a[..., r : r + step] @ x
        if out is None:
            out = part
        else:
            out += part
    return out


def blade_images(sig: Signature, v, masks=slice(None)) -> tuple:
    """Coefficient rows of e_M v and v e_M for the listed blade masks M, by a gather.

    (e_M v)[c] = v[M ^ c] G[M, c] and (v e_M)[c] = v[M ^ c] G[M ^ c, c]: both
    read v's coefficients and the sign table; no product is formed.
    """
    idx, G, _ = _blade_tables(sig)
    rows = idx[masks]
    gathered = np.asarray(v)[rows]
    return gathered * G[masks], gathered * np.take_along_axis(G, rows, axis=0)


def stack_products(sig: Signature, A, B) -> np.ndarray:
    """All geometric products A[i] B[j] of two coefficient stacks through the blade tables.

    A is (m, 2^n) and B is (k, 2^n), real or complex, indexed by blade mask; the
    result is the (m, k, 2^n) array out[i, j, c] = sum_a A[i, a] B[j, a ^ c] G[a, c].
    """
    idx, G, _ = _blade_tables(sig)
    dim = 1 << sig.n
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != dim or B.shape[1] != dim:
        raise InvalidInput(f"coefficient stacks of {sig} must be (count, {dim}) arrays")
    return _contract(A, B, idx, G).transpose(1, 0, 2)


class Multivector:
    """Element of Cl(p,q) or its complexification: a sparse blade-to-coefficient map."""

    __slots__ = ("sig", "field", "terms")

    def __init__(self, sig: Signature, terms: dict, field: str = "real"):
        if field not in ("real", "complex"):
            raise InvalidInput(f"unknown field tag {field!r}")
        limit = 1 << sig.n
        clean = {}
        for mask, coeff in terms.items():
            if not 0 <= mask < limit:
                raise InvalidInput(f"blade mask {mask:#x} outside Cl({sig.p},{sig.q})")
            c = complex(coeff) if field == "complex" else float(coeff)
            if c != 0:
                clean[mask] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, sig: Signature, terms: dict, field: str) -> "Multivector":
        """Wrap terms that are already valid: masks in range, nonzero Python floats/complexes."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "field", field)
        object.__setattr__(mv, "terms", terms)
        return mv

    def __setattr__(self, *args):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(sig: Signature, field: str = "real") -> "Multivector":
        return Multivector(sig, {}, field)

    @staticmethod
    def scalar(sig: Signature, value) -> "Multivector":
        field = "complex" if isinstance(value, complex) and value.imag != 0 else "real"
        val = value if field == "complex" else float(np.real(value))
        return Multivector(sig, {0: val}, field)

    @classmethod
    def from_vector(cls, sig: Signature, v: np.ndarray, field: str | None = None) -> "Multivector":
        """Multivector of a dense coefficient vector indexed by blade mask; zeros are pruned."""
        v = np.asarray(v)
        if v.shape != (1 << sig.n,):
            raise InvalidInput(f"coefficient vector of {sig} must have {1 << sig.n} entries")
        is_complex = v.dtype.kind == "c"
        if field is None:
            field = "complex" if is_complex else "real"
        elif field == "real" and is_complex:
            raise InvalidInput("complex coefficients for a real multivector")
        dtype = np.complex128 if field == "complex" else np.float64
        if v.dtype != dtype:
            v = v.astype(dtype)
        nz = np.flatnonzero(v)
        return cls._trusted(sig, dict(zip(nz.tolist(), v[nz].tolist())), field)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, mask: int):
        return self.terms.get(mask, 0j if self.field == "complex" else 0.0)

    def scalar_part(self):
        return self.coefficient(0)

    def grades(self) -> set:
        return {_grade(m) for m in self.terms}

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def norm_inf(self) -> float:
        """Largest coefficient magnitude; NaN when any coefficient is NaN, wherever it sits."""
        mags = list(map(abs, self.terms.values()))
        top = max(mags, default=0.0)
        total = sum(mags)  # Python max drops a NaN that is not first; a sum of magnitudes keeps it
        return top if total == total else math.nan

    def to_vector(self) -> np.ndarray:
        """Dense coefficient vector indexed by blade mask (complex128 for the complex field)."""
        dtype = np.complex128 if self.field == "complex" else np.float64
        v = np.zeros(1 << self.sig.n, dtype=dtype)
        count = len(self.terms)
        v[np.fromiter(self.terms, np.intp, count)] = np.fromiter(self.terms.values(), dtype, count)
        return v

    # -- field handling -----------------------------------------------------

    def to_complex(self) -> "Multivector":
        if self.field == "complex":
            return self
        return Multivector(self.sig, {m: complex(c) for m, c in self.terms.items()}, "complex")

    def _require_same(self, other: "Multivector"):
        if self.sig != other.sig:
            raise SignatureMismatch(f"{self.sig} vs {other.sig}")

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.sig, other)
        self._require_same(other)
        field = "complex" if "complex" in (self.field, other.field) else "real"
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Multivector(self.sig, out, field)

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.sig, {m: -c for m, c in self.terms.items()}, self.field)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.sig, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, np.floating, np.complexfloating)):
            field = self.field
            if isinstance(other, (complex, np.complexfloating)) and complex(other).imag != 0:
                field = "complex"
            return Multivector(self.sig, {m: c * other for m, c in self.terms.items()}, field)
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.floating, np.complexfloating)):
            return self.__mul__(other)
        return NotImplemented

    def __xor__(self, other):
        return wedge(self, other)

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    def __hash__(self):
        return hash((self.sig, frozenset(self.terms.items())))

    # -- grade maps ----------------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        return Multivector(self.sig, {m: c for m, c in self.terms.items() if _grade(m) == k}, self.field)

    def grade_involution(self) -> "Multivector":
        return Multivector(
            self.sig, {m: (-c if _grade(m) & 1 else c) for m, c in self.terms.items()}, self.field
        )

    def reverse(self) -> "Multivector":
        out = {}
        for m, c in self.terms.items():
            k = _grade(m)
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector(self.sig, out, self.field)

    def conjugate(self) -> "Multivector":
        out = {}
        for m, c in self.terms.items():
            k = _grade(m)
            out[m] = -c if (k * (k + 1) // 2) & 1 else c
        return Multivector(self.sig, out, self.field)

    # -- display -------------------------------------------------------------

    @staticmethod
    def _blade_name(mask: int) -> str:
        if mask == 0:
            return "1"
        idx = [i + 1 for i in range(MAX_GENERATORS) if mask >> i & 1]
        if all(i <= 9 for i in idx):
            return "e" + "".join(str(i) for i in idx)
        return "e(" + ",".join(str(i) for i in idx) + ")"

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms, key=lambda m: (_grade(m), m)):
            c = self.terms[mask]
            name = self._blade_name(mask)
            if mask == 0:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(name)
            elif c == -1:
                bits.append(f"-{name}")
            else:
                bits.append(f"{c}*{name}")
        return " + ".join(bits).replace("+ -", "- ")


# -- spec-level operations ----------------------------------------------------


def basis_blade(sig: Signature, indices: Iterable[int]) -> Multivector:
    """Unit blade e^{i1...ik} from strictly ascending generator indices; [] gives 1."""
    idx = list(indices)
    if any(not 1 <= i <= sig.n for i in idx):
        raise InvalidInput(f"indices {idx} outside 1..{sig.n}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise InvalidInput(f"indices {idx} not strictly ascending")
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return Multivector(sig, {mask: 1.0})


def linear_combine(pairs: Iterable[tuple]) -> Multivector:
    """Sum of scalar * multivector over pairs sharing one signature."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("empty combination has no signature")
    sig = pairs[0][1].sig
    out = Multivector.zero(sig)
    for scale, mv in pairs:
        if mv.sig != sig:
            raise SignatureMismatch(f"{mv.sig} vs {sig}")
        out = out + mv * scale
    return out


def _dense(a: Multivector, b: Multivector, multiple: int) -> bool:
    """Route rule: tables when n <= DENSE_MAX_N and |a|*|b| >= multiple * 2^n."""
    n = a.sig.n
    return n <= DENSE_MAX_N and len(a.terms) * len(b.terms) >= multiple << n


def _dense_apply(a: Multivector, b: Multivector, idx: np.ndarray, table: np.ndarray) -> Multivector:
    out = _contract(a.to_vector(), b.to_vector(), idx, table)  # real meets complex in the matmul
    field = "complex" if out.dtype.kind == "c" else "real"
    nz = np.flatnonzero(out)
    return Multivector._trusted(a.sig, dict(zip(nz.tolist(), out[nz].tolist())), field)


def _sparse_product(a: Multivector, b: Multivector, rule) -> Multivector:
    """Term-pair loop under a blade rule (_blade_product or _blade_wedge)."""
    metric = a.sig.metric_tuple()
    field = "complex" if "complex" in (a.field, b.field) else "real"
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            coef, mask = rule(ma, mb, metric)
            if coef:
                out[mask] = out.get(mask, 0) + coef * ca * cb
    return Multivector(a.sig, out, field)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product by the bitmask transposition rule (dense or sparse route)."""
    a._require_same(b)
    if _dense(a, b, 1):
        idx, G, _ = _blade_tables(a.sig)
        return _dense_apply(a, b, idx, G)
    return _sparse_product(a, b, _blade_product)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product (dense or sparse route)."""
    a._require_same(b)
    if _dense(a, b, 4):
        idx, _, W = _blade_tables(a.sig)
        return _dense_apply(a, b, idx, W)
    return _sparse_product(a, b, _blade_wedge)


def frame_contraction(i: int, b: Multivector) -> Multivector:
    """Contraction by the frame vector e_i with Kronecker pairing e_i .| e^j = delta."""
    if not 1 <= i <= b.sig.n:
        raise InvalidInput(f"frame index {i} outside 1..{b.sig.n}")
    out: dict = {}
    for mb, cb in b.terms.items():
        coef, mask = _blade_contract(i, mb)
        if coef:
            out[mask] = out.get(mask, 0) + coef * cb
    return Multivector(b.sig, out, b.field)


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """Contraction of b by grade-1 a, whose coefficients are frame-vector components.

    The components a_i act as tangent frame vectors: e_i .| e^j = delta_i^j,
    extended by the graded Leibniz rule.  Metric raising is the caller's job
    (see sharp) when a covector is meant instead.
    """
    a._require_same(b)
    if not a.is_zero() and a.grades() != {1}:
        raise InvalidInput("left_contraction expects a grade-1 first argument")
    out = Multivector.zero(b.sig, b.field)
    for ma, ca in a.terms.items():
        i = ma.bit_length()
        out = out + frame_contraction(i, b) * ca
    return out


def sharp(theta: Multivector) -> Multivector:
    """Musical isomorphism on grade 1: multiplies each e^i coefficient by g^{ii}."""
    if not theta.is_zero() and theta.grades() != {1}:
        raise InvalidInput("sharp expects a grade-1 multivector")
    metric = theta.sig.metric_tuple()
    return Multivector(
        theta.sig,
        {m: c * metric[m.bit_length() - 1] for m, c in theta.terms.items()},
        theta.field,
    )


@lru_cache(maxsize=1 << 22)
def _blade_cw(metric: tuple, ma: int, mb: int, order: int) -> tuple:
    """Contracted wedge of order `order` on a blade pair, as ((mask, coeff), ...).

    Only indices shared by both blades can contract, so the recursion branches
    over ma & mb; the cache is shared across calls, which collapses the oracle
    sweep over all blade pairs to one evaluation per reachable sub-pair.
    """
    if order == 0:
        coef, mask = _blade_wedge(ma, mb)
        return ((mask, coef),) if coef else ()
    acc: dict = {}
    shared = ma & mb
    i = 0
    while shared:
        if shared & 1:
            ca, ra = _blade_contract(i + 1, ma)
            cb, rb = _blade_contract(i + 1, mb)
            g = metric[i]
            for mask, coef in _blade_cw(metric, ra, rb, order - 1):
                acc[mask] = acc.get(mask, 0) + g * ca * cb * coef
        shared >>= 1
        i += 1
    return tuple((m, c) for m, c in acc.items() if c)


def contracted_wedge(a: Multivector, b: Multivector, d: int) -> Multivector:
    """Contracted wedge product of order d over an orthonormal frame.

    Order 0 is the plain wedge; each further order sums g^{ii} (e_i .| a) ^_{d-1} (e_i .| b)
    over the frame.  Zero whenever the operands' index sets are disjoint and d > 0.
    """
    a._require_same(b)
    if d < 0:
        raise InvalidInput("contraction order must be nonnegative")
    field = "complex" if "complex" in (a.field, b.field) else "real"
    metric = a.sig.metric_tuple()
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for mask, coef in _blade_cw(metric, ma, mb, d):
                out[mask] = out.get(mask, 0) + coef * ca * cb
    return Multivector(a.sig, out, field)


def geometric_product_contracted(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product evaluated through the contracted-wedge expansion.

    Independent of the bitmask rule; used as its oracle.  For a k-form against
    an l-form with k <= l the expansion reads
        sum_d (-1)^(d(k-d) + floor(d/2)) / d! * a ^_d b,
    and the opposite grade ordering follows from the graded commutation factor.
    """
    a._require_same(b)
    field = "complex" if "complex" in (a.field, b.field) else "real"
    out = Multivector.zero(a.sig, field)
    for ka in sorted(a.grades()):
        for kb in sorted(b.grades()):
            pa, pb = a.grade(ka), b.grade(kb)
            if ka <= kb:
                for d in range(ka + 1):
                    sign = -1 if (d * (ka - d) + d // 2) & 1 else 1
                    out = out + contracted_wedge(pa, pb, d) * (sign / math.factorial(d))
            else:
                front = -1 if (ka * kb) & 1 else 1
                for d in range(kb + 1):
                    sign = -1 if (d * (kb - d + 1) + d // 2) & 1 else 1
                    out = out + contracted_wedge(pb, pa, d) * (front * sign / math.factorial(d))
    return out


def grade_project(a: Multivector, k: int) -> Multivector:
    return a.grade(k)


def involution(a: Multivector, kind: str) -> Multivector:
    if kind == "grade_involution":
        return a.grade_involution()
    if kind == "reversion":
        return a.reverse()
    if kind == "conjugation":
        return a.conjugate()
    raise InvalidInput(f"unknown involution {kind!r}")


def norms(a: Multivector) -> tuple:
    """(N, N') with N = <rev(a) a>_0 and N' = <conj(a) a>_0."""
    n = geometric_product(a.reverse(), a).scalar_part()
    nprime = geometric_product(a.conjugate(), a).scalar_part()
    return n, nprime


def approx_equal(a: Multivector, b: Multivector, tol: float = 1e-12) -> bool:
    """Coefficient-wise comparison, relative to max(1, |a|_inf, |b|_inf)."""
    if tol <= 0:
        raise InvalidInput("tolerance must be positive")
    a._require_same(b)
    scale = max(1.0, a.norm_inf(), b.norm_inf())
    masks = set(a.terms) | set(b.terms)
    return all(abs(a.coefficient(m) - b.coefficient(m)) <= tol * scale for m in masks)


# -- dense table view ----------------------------------------------------------


class DenseTable:
    """Full multiplication table of one signature: a view on its blade tables."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.dim = 1 << sig.n
        self._idx, self._sign, self._wedge = _blade_tables(sig)

    def product(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        return _contract(va, vb, self._idx, self._sign)

    def wedge(self, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
        """Exterior product of two coefficient vectors through the wedge sign table."""
        return _contract(va, vb, self._idx, self._wedge)


@lru_cache(maxsize=8)
def dense_table(sig: Signature) -> DenseTable:
    return DenseTable(sig)
