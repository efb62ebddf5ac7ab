"""Multivector arithmetic for the universal Clifford algebra Cl(p,q).

Blades are encoded as bitmasks over the generators e^1..e^n (bit i-1 set means
generator i is present); the empty mask is the scalar unit.  Products carry
signs from transposition counting and metric factors diag(+1^p, -1^q) on the
contracted indices.  Coefficients are double precision, real or complex.  A
Multivector holds them sparsely, as terms with exact zeros pruned, or as a
read-only coefficient vector indexed by blade mask, or both: the dense routes
and from_vector keep the vector and build the terms on first read, a dict-built
instance builds and keeps the vector on its first to_vector call.

The sign's parity, swaps(a, b) + |a & b & negative generators|, is bilinear
over GF(2): it equals |b & H(a)| with H(a) = (a >> 1) ^ (a >> 2) ^ ... ^
(a & negative generators).  The products read their signs from this form;
_count_swaps and _blade_product keep the transposition count as the reference
the tests compare against, and the contracted-wedge oracle uses it alone.

Products take one of three routes, chosen from n and the operands' term
counts only.  The sparse route is one loop over term pairs in Python, with H(a)
computed once per term of a, and serves every n <= MAX_GENERATORS.  The dense
routes serve n <= DENSE_MAX_N = 8 when |a|*|b| >= k * 2^n (k = 1 for the
geometric product, 4 for the wedge, whose sparse loop skips overlapping pairs
cheaply).  At n = 8 a one-term operand keeps the product on the sparse loop:
it is then an exact signed copy of the other operand's 2^n coefficients,
which the matrix route would round.

The table route contracts coefficient vectors through the signature's signed
gather index, out[c] = sum_r va[r] vb2[index[r, c]] with vb2 = concat(vb, -vb, 0):
index[r, c] is r ^ c, plus 2^n where e_r e_{r^c} = -e_c, and the zero slot
2^(n+1) where a wedge's blades overlap, so one gather applies the sign and one
matmul sums.  Each signature has one index per kind, product and wedge, built
on first use in one vectorised pass: intp (a narrower index makes numpy cast
through a buffer on every gather), 8 * 4^n bytes each, 32 KiB at n = 6 and
512 KiB at n = 8, up to n = 10 (8 MiB).  A signature whose products take the
matrix route builds no product index for them.  One blocked contraction serves
vectors and stacks alike.  It takes every wedge, every product below n = 8,
DenseTable at n = 9 and 10, blade_images, which gathers the blade multiples
e_M v and v e_M without forming a product, and right_product_matrix, which
gathers the matrix of x -> x v.

The matrix route takes every geometric product at n = DENSE_MAX_N: the dense
branch of geometric_product, DenseTable.product and stack_products.  It uses
Cl(p,q) -> Mat(16, R) or, after complexification, Mat(16, C) (Lounesto 2001,
ch. 16-17): both operands are quantized through the signature's route bundle,
multiplied as 16x16 matrices, and dequantized by the trace pairing
tr(T B_M) / (16 e_M^2).  The bundle's stack of 256 blade matrices is real
where Cl(p,q) = Mat(16, R) (p - q = 0 or 2 mod 8) and a complex Jordan-Wigner
stack elsewhere, 512 KiB or 1 MiB.  RepBundle, defined here and re-exported
by matrices, is also every gamma bundle's class: one quantize, one dequantize
and one real-rows-times-complex helper (_matvec) serve both, and a bundle's
(2^n, d^2) row view of its stack is the only copy.  The route's rounding
spreads over every blade, so the result is masked to the blades r ^ s that
some pair of nonzero coefficients a[r], b[s] reaches: even times even has no
odd-grade term, as on the other routes.
The routes agree to rounding on finite coefficients; the JSON decoder
rejects non-finite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidInput, SignatureMismatch

MAX_GENERATORS = 16
DENSE_MAX_N = 8  # dense routes only up to here; the matrix route at exactly this n
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

    A coefficient vector b is gathered from _signed(b) = concat(b, -b, 0):
    index[r, c] = r ^ c where e_r e_{r^c} = +e_c, (r ^ c) + 2^n where it is
    -e_c, and 2^(n+1), the zero slot, where a wedge's blades r and r ^ c
    overlap.  The sign is the parity of |(r ^ c) & H(r)| (module docstring), so
    one bitwise_count over the table gives it.  Read-only intp, 8 * 4^n bytes;
    tables stop at n = DENSE_TABLE_MAX_N.
    """
    _check_table_limit(sig)
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


def _signed(b: np.ndarray) -> np.ndarray:
    """concat(b, -b, 0) over the last axis: what a signed index gathers from."""
    zero = _ZERO_SLOT if b.ndim == 1 else np.zeros(b.shape[:-1] + (1,), b.dtype)
    return np.concatenate((b, -b, zero), axis=-1)


_GATHER_ENTRIES = 1 << 14  # entries gathered per block: bounds the temporary at 128 KiB of float64


def _contract(a: np.ndarray, b: np.ndarray, index: np.ndarray) -> np.ndarray:
    """out[..., c] = sum_r a[..., r] (+-b or 0)[..., index[r, c]], a block of rows r at a time.

    a and b are coefficient vectors or (count, 2^n) stacks, real or complex; for
    stacks A (m rows) and B (k rows) the result is out[j, i, c], the product
    A[i] B[j].  Each block gathers rows of the signed index from _signed(b),
    for as many rows as keep the temporary near _GATHER_ENTRIES entries (at
    least one row, b.size entries), whatever the stacks' heights are.  A
    vector gathers with one index array, a stack with np.take.
    """
    source = _signed(b)
    step = max(1, _GATHER_ENTRIES // max(1, b.size))
    out = None
    for r in range(0, len(index), step):
        rows = index[r : r + step]
        x = source[rows] if b.ndim == 1 else np.take(source, rows, axis=-1)  # x[..., r, c]
        part = a[..., r : r + step] @ x
        if out is None:
            out = part
        else:
            out += part
    return out


# 2x2 real letters of the tensor words that build gamma matrices.
_BLOCKS = {
    "i": np.eye(2),
    "s": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "t": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "e": np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def _tensor_word(word: str) -> np.ndarray:
    m = _BLOCKS[word[0]]
    for ch in word[1:]:
        m = np.kron(m, _BLOCKS[ch])
    return m


def _ascending_products(gammas) -> np.ndarray:
    """(2^n, d, d) stack of blade matrices, doubled once per generator: for
    m < 2^i, stack[m | 2^i] = stack[m] gamma_{i+1}, the ascending product."""
    stack = np.eye(len(gammas[0]), dtype=np.result_type(*gammas))[None]
    for g in gammas:
        stack = np.concatenate((stack, stack @ g))
    stack.flags.writeable = False
    return stack


def _blade_squares(sig: Signature) -> np.ndarray:
    """e_M^2 for every mask: the reversion sign of |M| times the generator squares in M."""
    masks = np.arange(1 << sig.n)
    k = np.bitwise_count(masks)
    negative = np.bitwise_count(masks >> sig.p)
    return 1.0 - 2.0 * ((k * (k - 1) // 2 + negative) & 1)


@dataclass(frozen=True)
class RepBundle:
    """Gamma matrices of one signature plus, built on first use, the stacked blade tensor.

    `blades[mask]` is the ascending product of the generators in mask; it is
    read-only and built once per bundle, so quantization, dequantization (both
    through its (2^n, dim^2) row view) and the spinor bilinears are single
    contractions over it.  quantize and dequantize take stacks over leading
    axes and treat each entry as a separate call would, bit for bit.
    """

    sig: Signature
    dim: int
    field_tag: str
    gammas: list = field(repr=False, default_factory=list)

    @cached_property
    def blades(self) -> np.ndarray:
        """(2^n, dim, dim) stack of the ascending products (_ascending_products)."""
        if not self.gammas:
            raise InvalidInput("bundle has no gamma matrices")
        return _ascending_products(self.gammas)

    @cached_property
    def blade_squares(self) -> np.ndarray:
        """e_M^2 for every mask: the reversion sign of |M| times the generator squares in M."""
        return _blade_squares(self.sig)

    def gamma_blade(self, mask: int) -> np.ndarray:
        """Matrix of the blade with the given index mask (ascending product), read-only."""
        return self.blades[mask]

    @property
    def chirality(self) -> np.ndarray:
        return self.gamma_blade((1 << self.sig.n) - 1)

    def pairings(self, x: np.ndarray, y: np.ndarray, masks=slice(None)) -> np.ndarray:
        """x^T blades[M] y for each listed mask, as (blades[masks] @ y) @ x (no conjugation)."""
        blades = self.blades[masks]
        gy = _matvec(blades.reshape(-1, self.dim), y).reshape(len(blades), self.dim)
        return gy @ x

    def quantize(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_M coeffs[..., M] blades[M] for coefficients indexed by blade mask on the last axis."""
        coeffs = np.asarray(coeffs)
        rows = self.blades.reshape(len(self.blades), -1)
        if coeffs.shape[-1:] != (len(rows),):
            raise InvalidInput(f"coefficients of {self.sig} need a last axis of {len(rows)}")
        return _matvec(rows.T, coeffs).reshape(coeffs.shape[:-1] + (self.dim, self.dim))

    def dequantize(self, T: np.ndarray) -> np.ndarray:
        """Coefficients of T[...] on the blades by the trace pairing, tr(T blades[M]) / (dim e_M^2).

        Inverts quantize when the bundle is faithful and irreducible (dim^2 = 2^n).
        """
        T = np.asarray(T)
        rows = self.blades.reshape(len(self.blades), -1)
        if self.dim * self.dim != len(rows) or T.shape[-2:] != (self.dim, self.dim):
            raise InvalidInput(f"trace-pairing inverse needs {self.dim}x{self.dim} matrices "
                               f"and dim^2 = 2^n blades")
        flat = T.swapaxes(-1, -2).reshape(T.shape[:-2] + (len(rows),))  # tr(T B) = ravel(T^T) . ravel(B)
        return _matvec(rows, flat) / (self.dim * self.blade_squares)


def _matvec(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rows @ v over the last axis of v, one matrix-vector product per leading index.

    A stack thus repeats the arithmetic of single vectors bit for bit, which
    one matrix-matrix product would not.  A real `rows` meets a complex v as
    two real columns, never as a complex copy of rows.
    """
    if v.dtype.kind == "c" and rows.dtype.kind != "c":
        pairs = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).reshape(v.shape + (2,))
        return (rows @ pairs).view(np.complex128)[..., 0]
    return (rows @ v[..., None])[..., 0]


# Generators of the matrix route, one tensor word each.  A word squares to -1
# when it holds an odd number of "e" letters, and two words anticommute when
# an odd number of their positions hold two different non-"i" letters.  Where
# Cl(p,q) = Mat(16, R), p - q = 0 or 2 mod 8, the listed words square to the
# metric, so the stack is real.  The (8,0) set differs from the gamma bundle's
# (matrices.CL8_GAMMAS), so checks that quantize through that bundle stay
# independent of this route.  Elsewhere the Jordan-Wigner words take a factor
# i where a word's square differs from its generator's.
_REAL_WORDS = {
    (8, 0): ("iiis", "iiit", "iiee", "iese", "sete", "tete", "eite", "esse"),
    (5, 3): ("iiis", "iiit", "isee", "itee", "eeee", "iise", "iite", "seee"),
    (4, 4): ("iiis", "iiit", "isee", "itee", "iise", "iite", "seee", "teee"),
    (1, 7): ("iiis", "iiie", "iiet", "iest", "sett", "tett", "eitt", "esst"),
    (0, 8): ("iiie", "iies", "iset", "itet", "ieit", "iess", "sets", "tets"),
}
_JORDAN_WIGNER = ("tiii", "eiii", "stii", "seii", "ssti", "ssei", "ssst", "ssse")


@lru_cache(maxsize=16)
def _route_bundle(sig: Signature) -> RepBundle:
    """The matrix route's bundle of an n = DENSE_MAX_N signature: eight 16x16 generators,
    real where the listed words square to the metric, Jordan-Wigner otherwise."""
    words = _REAL_WORDS.get((sig.p, sig.q), _JORDAN_WIGNER)
    gammas = [_tensor_word(w) * (1 if (-1) ** w.count("e") == g else 1j)
              for w, g in zip(words, sig.metric_tuple())]
    return RepBundle(sig, 16, "real" if (sig.p, sig.q) in _REAL_WORDS else "complex", gammas)


_HADAMARD = 1.0 - 2.0 * (np.bitwise_count(np.arange(16)[:, None] & np.arange(16)) & 1)


def _walsh_hadamard(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over a last axis of 256: H_256 = H_16 (x) H_16."""
    return (_HADAMARD @ x.reshape(x.shape[:-1] + (16, 16)) @ _HADAMARD).reshape(x.shape)


def _reachable(a: np.ndarray, b: np.ndarray):
    """Mask of the blades r ^ s with a[..., r] b[..., s] != 0; None when every blade is reached.

    When |supp a| + |supp b| > 2^n, supp a and c ^ supp b must meet for every
    c.  Otherwise the pair count sum_r [a_r != 0][b_{r^c} != 0] is an XOR
    convolution, the transform of the product of the supports' transforms,
    divided by 2^n; every value on the way is an integer of at most 2^24, so
    the count is exact in float64.
    """
    dim = a.shape[-1]
    # count_nonzero without an axis skips the per-row reduction: a full Cl(8,0)
    # vector product takes about 44 us with it, 56 us through the axis form
    if a.ndim == 1 and b.ndim == 1:
        if np.count_nonzero(a) + np.count_nonzero(b) > dim:
            return None
    elif (np.count_nonzero(a, axis=-1) + np.count_nonzero(b, axis=-1) > dim).all():
        return None
    count = _walsh_hadamard(_walsh_hadamard((a != 0) * 1.0) * _walsh_hadamard((b != 0) * 1.0))
    return count > 0


def _matrix_product(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric products a b of coefficient arrays at n = DENSE_MAX_N, broadcast over leading axes.

    Quantize both through the route bundle, multiply the 16x16 matrices and
    dequantize.  Real meets complex as if cast first; real operands give a
    real result, the complex stack's imaginary rounding dropped.
    """
    bundle, dtype = _route_bundle(sig), np.result_type(a, b)
    X, Y = (bundle.quantize(x.astype(dtype, copy=False)) for x in (a, b))
    out = bundle.dequantize(X @ Y)
    if dtype.kind != "c":
        out = out.real
    reach = _reachable(a, b)
    return out if reach is None else np.where(reach, out, 0.0)


def _coefficients(sig: Signature, v, ndim: int = 1) -> np.ndarray:
    """v as a float or complex array whose last axis runs over the 2^n blades:
    a vector (ndim 1) or a (count, 2^n) stack (ndim 2); InvalidInput otherwise.
    Booleans and integers are read as floats."""
    dim = 1 << sig.n
    try:
        v = np.asarray(v)
    except ValueError:  # ragged nesting
        v = np.empty(0, object)
    if v.ndim == ndim and v.shape[-1] == dim and v.dtype.kind in "biufc":
        return v if v.dtype.kind in "fc" else v.astype(np.float64)
    shape = f"a 1-D array of {dim}" if ndim == 1 else f"(count, {dim}) arrays of"
    raise InvalidInput(f"coefficients of {sig} must be {shape} numbers")


def blade_images(sig: Signature, v, masks=slice(None)) -> tuple:
    """Coefficient rows of e_M v and v e_M for the listed blade masks M, by a gather.

    (e_M v)[c] = v[M ^ c] G[M, c] and (v e_M)[c] = v[M ^ c] G[M ^ c, c], with G
    the sign of e_r e_{r^c}: both gather v's signed coefficients through the
    product index; no product is formed.
    """
    dim = 1 << sig.n
    index = _signed_index(sig, "product")
    source = _signed(_coefficients(sig, v))
    left = index[masks]
    xor = left & (dim - 1)
    right = xor | index[xor, np.arange(dim)] & dim  # the sign of e_{M^c} e_M
    return source[left], source[right]


def right_product_matrix(sig: Signature, v) -> np.ndarray:
    """The 2^n x 2^n matrix R with x @ R the coefficients of x <> v for every row x.

    Row M is e_M v, v[M ^ c] G[M, c]: the first output of blade_images over all
    masks, without its second gather.
    """
    return _signed(_coefficients(sig, v))[_signed_index(sig, "product")]


def _products(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geometric products of two coefficient vectors, or of stacks a (m rows) and
    b (k rows) as out[i, j] = a[i] b[j]: the matrix route at n = DENSE_MAX_N, the
    signed product index otherwise."""
    if sig.n == DENSE_MAX_N:
        return _matrix_product(sig, a, b) if a.ndim == 1 else _matrix_product(sig, a[:, None], b[None])
    out = _contract(a, b, _signed_index(sig, "product"))
    return out if a.ndim == 1 else out.transpose(1, 0, 2)


def stack_products(sig: Signature, A, B) -> np.ndarray:
    """All geometric products A[i] B[j] of two coefficient stacks.

    A is (m, 2^n) and B is (k, 2^n), real or complex, indexed by blade mask; the
    result is the (m, k, 2^n) array out[i, j, c] = sum_a A[i, a] B[j, a ^ c] G[a, c],
    one batched matmul of blade matrices at n = DENSE_MAX_N, a table contraction otherwise.
    """
    return _products(sig, _coefficients(sig, A, 2), _coefficients(sig, B, 2))


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
    dense routes and from_vector return _VectorMultivector, which starts from
    the vector.  Terms built from a vector run in ascending mask order with
    exact zeros pruned, and a vector reads +0.0 at every exact zero, so an
    instance reads the same whichever it was built from.
    """

    __slots__ = ("sig", "field", "terms", "_vector")  # _vector is unset until to_vector

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
    """Route rule: dense when n <= DENSE_MAX_N and |a|*|b| >= multiple * 2^n, except
    that at n = DENSE_MAX_N a one-term operand keeps the product on the sparse loop,
    where it is an exact signed copy; the matrix route would round every blade."""
    n = a.sig.n
    if n > DENSE_MAX_N:
        return False
    count_a, count_b = a._term_count(), b._term_count()
    if n == DENSE_MAX_N and min(count_a, count_b) == 1:
        return False
    return count_a * count_b >= multiple << n


def _dense_apply(a: Multivector, b: Multivector, wedge: bool = False) -> Multivector:
    va, vb = a.to_vector(), b.to_vector()
    if wedge:
        out = _contract(va, vb, _signed_index(a.sig, "wedge"))
    else:
        out = _products(a.sig, va, vb)
    return Multivector._of_vector(a.sig, out)


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
    """Clifford product by the bitmask transposition rule (sparse, table or matrix route)."""
    a._require_same(b)
    if _dense(a, b, 1):
        return _dense_apply(a, b)
    return _sparse_product(a, b)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """Exterior product (dense or sparse route)."""
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
    gather indices, except that the geometric product at n = DENSE_MAX_N takes the
    matrix route.  Each method takes two 1-D array-likes of 2^n numbers."""

    def __init__(self, sig: Signature):
        _check_table_limit(sig)
        self.sig = sig
        self.dim = 1 << sig.n

    def product(self, va, vb) -> np.ndarray:
        return _products(self.sig, _coefficients(self.sig, va), _coefficients(self.sig, vb))

    def wedge(self, va, vb) -> np.ndarray:
        """Exterior product of two coefficient vectors through the signed wedge index."""
        va, vb = _coefficients(self.sig, va), _coefficients(self.sig, vb)
        return _contract(va, vb, _signed_index(self.sig, "wedge"))


@lru_cache(maxsize=8)
def dense_table(sig: Signature) -> DenseTable:
    return DenseTable(sig)
