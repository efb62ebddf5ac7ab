"""Multivector arithmetic for the universal Clifford algebra Cl(p,q).

Blades are encoded as bitmasks over the generators e^1..e^n (bit i-1 set means
generator i is present); the empty mask is the scalar unit.  Products carry
signs from transposition counting and metric factors diag(+1^p, -1^q) on the
contracted indices.  Coefficients are double precision, real or complex.  A
Multivector holds them sparsely, as terms with exact zeros pruned, or as a
read-only coefficient vector indexed by blade mask, or both: the table route
and from_vector keep the vector and build the terms on first read, a dict-built
instance builds and keeps the vector on its first to_vector call.

The sign's parity, swaps(a, b) + |a & b & negative generators|, is bilinear
over GF(2): it equals |b & H(a)| with H(a) = (a >> 1) ^ (a >> 2) ^ ... ^
(a & negative generators).  The products read their signs from this form;
_count_swaps and _blade_product keep the transposition count as the reference
the tests compare against, and the contracted-wedge oracle uses it alone.

Products take one of two routes, chosen from n and the operands' term counts
only.  The sparse route is one loop over term pairs in Python, with H(a)
computed once per term of a, and serves every n <= MAX_GENERATORS.  The table
route serves n <= DENSE_MAX_N = 8 when |a|*|b| >= k * 2^n (k = 1 for the
geometric product, 4 for the wedge, whose sparse loop skips overlapping pairs
cheaply).

The table route contracts coefficient vectors through a signed gather index,
out[c] = sum_r va[r] vb2[index[r, c]] with vb2 = concat(vb, -vb): index[r, c]
is r ^ c, plus 2^n where e_r e_{r^c} = -e_c, so one gather applies the sign and
one matmul sums.  A wedge index reads the zero slot 2^(n+1), appended to vb2
for wedges only, where the blades overlap.
Each signature has one product index and each n one wedge index (the wedge
sign is metric-free), built on first use in one vectorised pass: intp (a
narrower index makes numpy cast through a buffer on every gather), 8 * 4^n
bytes each, 32 KiB at n = 6 and 512 KiB at n = 8, up to n = 10 (8 MiB).  One
blocked contraction serves vectors and stacks alike.  It takes every dense
product and wedge, DenseTable up to n = 10, stack_products, blade_images,
which gathers the blade multiples e_M v and v e_M without forming a product,
and right_product_matrix, which gathers the matrix of x -> x v.  A one-term
operand gives an exact signed copy of the other operand's coefficients, as
on the sparse loop, since every other row of the sum adds exact zeros.
The routes agree to rounding on finite coefficients; the JSON decoder
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
DENSE_MAX_N = 8  # the table route serves Multivector products only up to here
DENSE_TABLE_MAX_N = 10  # largest signature with gather indices (DenseTable, stacks)


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


def _blade_wedge(mask_a: int, mask_b: int) -> tuple[int, int]:
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


def _check_table_limit(sig: Signature):
    if sig.n > DENSE_TABLE_MAX_N:
        raise InvalidInput(f"gather indices limited to n <= {DENSE_TABLE_MAX_N}")


@lru_cache(maxsize=64)
def _signed_index(sig: Signature, kind: str) -> np.ndarray:
    """Sign-folded gather index of one signature for kind "product" or "wedge".

    A coefficient vector b is gathered from _signed(b) = concat(b, -b), plus a
    zero slot for a wedge: index[r, c] = r ^ c where e_r e_{r^c} = +e_c,
    (r ^ c) + 2^n where it is -e_c, and 2^(n+1), the zero slot, where a
    wedge's blades r and r ^ c overlap; a product index stays below 2^(n+1).
    The sign is the parity of |(r ^ c) & H(r)| (module docstring), so one
    bitwise_count over the table gives it.  Read-only intp, 8 * 4^n bytes;
    tables stop at n = DENSE_TABLE_MAX_N.  Non-overlapping blades share no
    generator, so the wedge sign is metric-free: every (p, q) with the same n
    gets the (n, 0) wedge index, the same array.
    """
    _check_table_limit(sig)
    if kind == "wedge" and sig.q:
        return _signed_index(Signature(sig.n, 0), kind)
    dim = 1 << sig.n
    r = np.arange(dim, dtype=np.uint16)  # 16-bit work arrays keep the build's temporaries small
    h = r & np.uint16((dim - 1) ^ ((1 << sig.p) - 1))
    for s in range(1, sig.n):
        h ^= r >> s
    xor = r[:, None] ^ r
    index = xor | (np.bitwise_count(xor & h[:, None]) & 1).astype(np.uint16) << sig.n
    if kind == "wedge":
        index[(r[:, None] & xor) != 0] = 2 * dim
    index = index.astype(np.intp)
    index.flags.writeable = False
    return index


_ZERO_SLOT = np.zeros(1)


def _signed(b: np.ndarray, zero_slot: bool = False) -> np.ndarray:
    """concat(b, -b) over the last axis, plus the zero slot a wedge index reads:
    what a signed index gathers from."""
    if not zero_slot:
        return np.concatenate((b, -b), axis=-1)
    zero = _ZERO_SLOT if b.ndim == 1 else np.zeros(b.shape[:-1] + (1,), b.dtype)
    return np.concatenate((b, -b, zero), axis=-1)


_GATHER_ENTRIES = 1 << 14  # entries gathered per block: bounds the temporary at 128 KiB of float64


def _contract(a: np.ndarray, b: np.ndarray, index: np.ndarray, zero_slot: bool = True) -> np.ndarray:
    """out[..., c] = sum_r a[..., r] (+-b or 0)[..., index[r, c]], a block of rows r at a time.

    a and b are coefficient vectors or (count, 2^n) stacks, real or complex; for
    stacks A (m rows) and B (k rows) the result is out[j, i, c], the product
    A[i] B[j].  Each block gathers rows of the signed index from _signed(b),
    for as many rows as keep the temporary near _GATHER_ENTRIES entries (at
    least one row, b.size entries), whatever the stacks' heights are.  A
    vector gathers with one index array, a stack with take.  Only a wedge
    index reads the zero slot; callers that pass a product index pass
    zero_slot=False and gather from concat(b, -b) alone.
    """
    source = _signed(b, zero_slot)
    step = max(1, _GATHER_ENTRIES // max(1, b.size))
    if step >= len(index):  # one block: every vector up to n = 7 and the small stacks
        return a @ (source[index] if b.ndim == 1 else source.take(index, axis=-1))
    out = None
    for r in range(0, len(index), step):
        rows = index[r : r + step]
        x = source[rows] if b.ndim == 1 else source.take(rows, axis=-1)  # x[..., r, c]
        part = a[..., r : r + step] @ x
        if out is None:
            out = part
        else:
            out += part
    return out


def _coefficients(sig: Signature, v, ndim: int | None = 1) -> np.ndarray:
    """v as a float or complex array whose last axis runs over the 2^n blades:
    a vector (ndim 1), a (count, 2^n) stack (ndim 2) or either (ndim None);
    InvalidInput otherwise.  Booleans and integers are read as floats."""
    dim = 1 << sig.n
    try:
        v = np.asarray(v)
    except ValueError:  # ragged nesting
        v = np.empty(0, object)
    if v.ndim in ((1, 2) if ndim is None else (ndim,)) and v.shape[-1] == dim and v.dtype.kind in "biufc":
        return v if v.dtype.kind in "fc" else v.astype(np.float64)
    shape = {1: f"a 1-D array of {dim}", 2: f"(count, {dim}) arrays of"}.get(
        ndim, f"a 1-D array or (count, {dim}) arrays of")
    raise InvalidInput(f"coefficients of {sig} must be {shape} numbers")


def blade_images(sig: Signature, v, masks=slice(None)) -> tuple:
    """Coefficient rows of e_M v and v e_M for the listed blade masks M, by a gather.

    (e_M v)[c] = v[M ^ c] G[M, c] and (v e_M)[c] = v[M ^ c] G[M ^ c, c], with G
    the sign of e_r e_{r^c}: both gather v's signed coefficients through the
    product index; no product is formed, so each row is an exact signed copy
    of v.  v is a vector, giving (masks, 2^n) rows, or a (count, 2^n) stack,
    giving (count, masks, 2^n) rows.
    """
    dim = 1 << sig.n
    index = _signed_index(sig, "product")
    source = _signed(_coefficients(sig, v, None))
    left = index[masks]
    xor = left & (dim - 1)
    right = xor | index[xor, np.arange(dim)] & dim  # the sign of e_{M^c} e_M
    if source.ndim == 1:
        return source[left], source[right]
    return source.take(left, axis=-1), source.take(right, axis=-1)


def right_product_matrix(sig: Signature, v) -> np.ndarray:
    """The 2^n x 2^n matrix R with x @ R the coefficients of x <> v for every row x.

    Row M is e_M v, v[M ^ c] G[M, c]: the first output of blade_images over all
    masks, without its second gather.
    """
    return _signed(_coefficients(sig, v))[_signed_index(sig, "product")]


def stack_products(sig: Signature, A, B) -> np.ndarray:
    """All geometric products A[i] B[j] of two coefficient stacks.

    A is (m, 2^n) and B is (k, 2^n), real or complex, indexed by blade mask; the
    result is the (m, k, 2^n) array out[i, j, c] = sum_a A[i, a] B[j, a ^ c] G[a, c],
    one contraction through the signed product index, up to n = DENSE_TABLE_MAX_N.
    """
    A, B = _coefficients(sig, A, 2), _coefficients(sig, B, 2)
    return _contract(A, B, _signed_index(sig, "product"), zero_slot=False).transpose(1, 0, 2)


def _number(value):
    """A Python or numpy number as a float, or as a complex when its imaginary part
    is nonzero; None for anything else.  The scalar operands of Multivector."""
    if not isinstance(value, (int, float, complex, np.number)):
        return None
    value = complex(value)
    return value if value.imag else value.real


class Multivector:
    """Element of Cl(p,q) or its complexification: a blade-to-coefficient map.

    An instance holds its terms (a dict from blade mask to a nonzero Python
    float or complex), its read-only coefficient vector indexed by blade mask,
    or both; each is built from the other on first access and then kept.  The
    table route and from_vector return _VectorMultivector, which starts from
    the vector.  Terms built from a vector run in ascending mask order with
    exact zeros pruned, and a vector reads +0.0 at every exact zero, so an
    instance reads the same whichever it was built from.
    """

    # _vector is unset until to_vector; _versor holds the versor pass of groups on first use
    __slots__ = ("sig", "field", "terms", "_vector", "_versor")

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

    @staticmethod
    def _of_vector(sig: Signature, v: np.ndarray) -> "Multivector":
        """Wrap a copy of a float or complex coefficient vector of the right length.

        The copy is float64 or complex128, read-only, and reads +0.0 at every
        exact zero (a complex entry keeps a signed-zero part when the other is
        nonzero); the field follows the dtype.
        """
        if v.dtype.kind == "c":
            v = v.astype(np.complex128)
            v[v == 0] = 0
        else:
            v = np.add(v, 0.0, dtype=np.float64)
        v.flags.writeable = False
        mv = object.__new__(_VectorMultivector)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "field", "complex" if v.dtype.kind == "c" else "real")
        object.__setattr__(mv, "_vector", v)
        return mv

    def __setattr__(self, *args):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(sig: Signature, field: str = "real") -> "Multivector":
        return Multivector(sig, {}, field)

    @staticmethod
    def scalar(sig: Signature, value) -> "Multivector":
        value = _number(value)
        if value is None:
            raise InvalidInput("a scalar must be a Python or numpy number")
        return Multivector(sig, {0: value}, "complex" if isinstance(value, complex) else "real")

    @classmethod
    def from_vector(cls, sig: Signature, v: np.ndarray, field: str | None = None) -> "Multivector":
        """Multivector of a dense coefficient vector indexed by blade mask, copied; zeros are pruned."""
        v = _coefficients(sig, v)
        is_complex = v.dtype.kind == "c"
        if field is None:
            field = "complex" if is_complex else "real"
        elif field == "real" and is_complex:
            raise InvalidInput("complex coefficients for a real multivector")
        return Multivector._of_vector(sig, v.astype(np.complex128) if field == "complex" and not is_complex else v)

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
        """Dense coefficient vector indexed by blade mask (complex128 for the complex field), read-only."""
        try:
            return self._vector
        except AttributeError:
            pass
        dtype = np.complex128 if self.field == "complex" else np.float64
        v = np.zeros(1 << self.sig.n, dtype=dtype)
        count = len(self.terms)
        v[np.fromiter(self.terms, np.intp, count)] = np.fromiter(self.terms.values(), dtype, count)
        v.flags.writeable = False
        object.__setattr__(self, "_vector", v)
        return v

    def _term_count(self) -> int:
        return len(self.terms)

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
        if not isinstance(other, Multivector):
            if _number(other) is None:
                return NotImplemented
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
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        scale = _number(other)
        if scale is None:
            return NotImplemented
        field = "complex" if isinstance(scale, complex) else self.field
        return Multivector(self.sig, {m: c * scale for m, c in self.terms.items()}, field)

    def __rmul__(self, other):
        return NotImplemented if isinstance(other, Multivector) else self.__mul__(other)

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


_TERMS_SLOT = Multivector.__dict__["terms"]


@lru_cache(maxsize=None)
def _grade_flips(n: int, residues: tuple) -> np.ndarray:
    """Read-only mask of the blades whose grade mod 4 is one of residues."""
    flips = np.isin(np.bitwise_count(np.arange(1 << n)) & 3, residues)
    flips.flags.writeable = False
    return flips


class _VectorMultivector(Multivector):
    """A Multivector built from its coefficient vector; `terms` is built on first read.

    Multivector's instances read `terms` straight from its slot.  Here the
    three involutions and a finite real scale of a real element, the maps
    between a versor's products, read the vector and return vector-built
    results; each negates or multiplies the same floats in the same way as the
    term-by-term method, so the results are the same bit for bit.
    """

    __slots__ = ()

    def _negated_where(self, residues: tuple) -> "Multivector":
        v = self._vector
        return Multivector._of_vector(self.sig, np.where(_grade_flips(self.sig.n, residues), -v, v))

    def grade_involution(self) -> "Multivector":
        return self._negated_where((1, 3))

    def reverse(self) -> "Multivector":
        return self._negated_where((2, 3))  # k (k - 1) / 2 odd

    def conjugate(self) -> "Multivector":
        return self._negated_where((1, 2))  # k (k + 1) / 2 odd

    def __mul__(self, other):
        scale = None if isinstance(other, Multivector) else _number(other)
        if self.field == "real" and isinstance(scale, float) and math.isfinite(scale):
            return Multivector._of_vector(self.sig, self._vector * scale)
        return Multivector.__mul__(self, other)

    @property
    def terms(self) -> dict:
        try:
            return _TERMS_SLOT.__get__(self)
        except AttributeError:
            pass
        v = self._vector
        nz = np.flatnonzero(v)
        terms = dict(zip(nz.tolist(), v[nz].tolist()))
        _TERMS_SLOT.__set__(self, terms)
        return terms

    def _term_count(self) -> int:
        return int(np.count_nonzero(self._vector))


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
    """Route rule: the table route when n <= DENSE_MAX_N and |a|*|b| >= multiple * 2^n."""
    n = a.sig.n
    return n <= DENSE_MAX_N and a._term_count() * b._term_count() >= multiple << n


def _dense_apply(a: Multivector, b: Multivector, wedge: bool = False) -> Multivector:
    index = _signed_index(a.sig, "wedge" if wedge else "product")
    return Multivector._of_vector(a.sig, _contract(a.to_vector(), b.to_vector(), index, wedge))


def _sparse_product(a: Multivector, b: Multivector, wedge: bool = False) -> Multivector:
    """Term-pair loop; the sign of e_ma e_mb is the parity of |mb & H(ma)|.

    H is the GF(2) form of the module docstring, built once per term of a; the
    wedge drops its metric term and skips overlapping pairs.  The pairs run in
    the order and with the arithmetic of a per-pair _blade_product loop, so the
    result is bit-identical to it, key order included; exact zeros are pruned
    in that order and the terms, already Python floats or complexes, are
    wrapped without a second pass.
    """
    sig = a.sig
    negative = 0 if wedge else ((1 << sig.n) - 1) ^ ((1 << sig.p) - 1)  # generators squaring to -1
    field = "complex" if "complex" in (a.field, b.field) else "real"
    b_terms = b.terms.items()
    out: dict = {}
    for ma, ca in a.terms.items():
        skip = ma if wedge else 0
        h, shifted = ma & negative, ma >> 1
        while shifted:
            h ^= shifted
            shifted >>= 1
        for mb, cb in b_terms:
            if mb & skip:
                continue
            coef = -1 if (mb & h).bit_count() & 1 else 1
            mask = ma ^ mb
            out[mask] = out.get(mask, 0) + coef * ca * cb
    return Multivector._trusted(sig, {m: c for m, c in out.items() if c}, field)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product by the bitmask transposition rule (sparse or table route)."""
    a._require_same(b)
    if _dense(a, b, 1):
        return _dense_apply(a, b)
    return _sparse_product(a, b)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product (sparse or table route)."""
    a._require_same(b)
    if _dense(a, b, 4):
        return _dense_apply(a, b, wedge=True)
    return _sparse_product(a, b, wedge=True)


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
    """Dense products of one signature's coefficient vectors: a view on its signed
    gather indices.  Each method takes two 1-D array-likes of 2^n numbers."""

    def __init__(self, sig: Signature):
        _check_table_limit(sig)
        self.sig = sig
        self.dim = 1 << sig.n

    def product(self, va, vb) -> np.ndarray:
        """Geometric product of two coefficient vectors through the signed product index."""
        va, vb = _coefficients(self.sig, va), _coefficients(self.sig, vb)
        return _contract(va, vb, _signed_index(self.sig, "product"), zero_slot=False)

    def wedge(self, va, vb) -> np.ndarray:
        """Exterior product of two coefficient vectors through the signed wedge index."""
        va, vb = _coefficients(self.sig, va), _coefficients(self.sig, vb)
        return _contract(va, vb, _signed_index(self.sig, "wedge"))


@lru_cache(maxsize=8)
def dense_table(sig: Signature) -> DenseTable:
    return DenseTable(sig)
