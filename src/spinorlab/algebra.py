"""Multivector arithmetic for the universal Clifford algebra Cl(p,q).

Blades are encoded as bitmasks over the generators e^1..e^n (bit i-1 set means
generator i is present); the empty mask is the scalar unit.  Products carry
signs from transposition counting and metric factors diag(+1^p, -1^q) on the
contracted indices.  Coefficients are double precision, real or complex.  One
class, Multivector, has two storages for them: terms with exact zeros pruned
and a read-only coefficient vector indexed by blade mask.  An instance holds
one or both: the table route and from_vector keep the vector and build the
terms on first read, a dict-built instance builds and keeps the vector on its
first to_vector call.  blade_mask, blade_indices and blade_order name the blades for
every other module: indices to mask, mask to indices, and the (grade, mask)
order of display.

The sign's parity, swaps(a, b) + |a & b & negative generators|, is bilinear
over GF(2): it equals |b & H(a)| with H(a) = (a >> 1) ^ (a >> 2) ^ ... ^
(a & negative generators).  The products read their signs from this form;
_count_swaps and _blade_product keep the transposition count as the reference
the tests compare against, and the contracted-wedge oracle uses it alone.

Products take one of two routes, chosen from n and the operands' term counts
only.  The sparse route is one loop over term pairs in Python, with H(a)
computed once per term of a, and serves every n <= MAX_GENERATORS.  The table
route serves n <= DENSE_TABLE_MAX_N = 10 when |a|*|b| >= k * 2^n (k = 1 for the
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
bytes each, 32 KiB at n = 6.  Up to n = 7 this one-block gather is the dense
kernel; from SPLIT_MIN_N = 8 to n = 10 every dense product and wedge takes the
graded split instead (Fontijne 2007): a mask is l | h << k with k = n // 2,
e_r1 e_r2 = (-1)^(|h1| |l2|) (e_l1 e_l2) (e_h1 e_h2), and the product is one
gather of va over the high factor, one gather of vb over the low factor and
one matmul, 16 x 256 @ 256 x 16 at n = 8, with every sign folded into the two
gathers but the fixed output sign (-1)^(|H| |L|).  Its indices are read off the
factors' own signed indices and hold 8 (2^k + 2^(n-k)) 2^n bytes, 64 KiB at
n = 8 where the one-block index holds 512 KiB; it sums in another order, so it
agrees with the one-block gather to rounding, not bit for bit.  One kernel
serves vectors and stacks alike: every dense product and wedge, DenseTable up
to n = 10 and stack_products.  blade_images, which gathers the blade multiples
e_M v and v e_M without forming a product, and right_product_matrix, which
gathers the matrix of x -> x v, read the one-block product index at every n.
A one-term operand gives an exact signed copy of the other operand's
coefficients on either kernel, as on the sparse loop, since every other term
of the sum is an exact zero.
The routes agree to rounding on finite coefficients; the JSON decoder
rejects non-finite ones.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidInput, SignatureMismatch

MAX_GENERATORS = 16
DENSE_TABLE_MAX_N = 10  # largest signature with gather indices (DenseTable, stacks)


def _integer(value, what: str) -> int:
    """value as a plain int by operator.index (numpy ints and bools pass), else InvalidInput."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{what} must be integers, got {value!r}") from None


@dataclass(frozen=True)
class Signature:
    """Quadratic-space signature (p, q): first p generators square to +1, last q to -1."""

    p: int
    q: int

    def __post_init__(self):
        p, q = _integer(self.p, "signature entries"), _integer(self.q, "signature entries")
        if p < 0 or q < 0:
            raise InvalidInput(f"negative signature ({p},{q})")
        if p + q > MAX_GENERATORS:
            raise InvalidInput(f"p+q = {p + q} exceeds {MAX_GENERATORS} generators")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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


def blade_mask(indices, n: int) -> int:
    """Mask of the blade e^{i1...ik}: bit i - 1 per index, strictly ascending in 1..n."""
    idx = [_integer(i, "generator indices") for i in indices]
    if any(not 1 <= i <= n for i in idx):
        raise InvalidInput(f"indices {idx} outside 1..{n}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise InvalidInput(f"indices {idx} not strictly ascending")
    return sum(1 << (i - 1) for i in idx)


def blade_indices(mask: int) -> list:
    """The ascending generator indices of a blade mask: blade_mask's inverse."""
    return [i + 1 for i in range(MAX_GENERATORS) if mask >> i & 1]


def blade_order(masks) -> list:
    """Blade masks by grade, then mask: the order of display, JSON and the ideal scan."""
    return sorted(masks, key=lambda m: (_grade(m), m))


def _check_tol(tol: float):
    """InvalidInput unless tol is a positive finite number: the check of every public tol."""
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInput("tolerance must be a positive finite number")


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


SPLIT_MIN_N = 8  # from here on dense products and wedges take the graded split
_SPLIT_ENTRIES = 1 << 16  # gathered entries of the left operand per block of stack rows


@lru_cache(maxsize=16)
def _split_index(sig: Signature, kind: str) -> tuple:
    """(left, right, signs): the graded split of one signature's kind, n >= SPLIT_MIN_N.

    A mask is r = l | h << k with k = n // 2; the low factor holds the first k
    generators, the high factor the rest, each with its share of the q negative
    ones, and e_r = e_l e_h.  Then e_r1 e_r2 = (-1)^(|h1| |l2|) (e_l1 e_l2)
    (e_h1 e_h2), and for the output blade (H, L) = (h1 ^ h2, l1 ^ l2) the parity
    |h1| |l2| is |h1| |l1| + |h2| |L| + |H| |L| mod 2.  So
        out[H, L] = (-1)^(|H| |L|) sum_(h2, l1) left[H, (h2, l1)] right[(h2, l1), L],
        left[H, (h2, l1)] = s_high(h1, h2) (-1)^(|h1| |l1|) a[h1, l1], h1 = H ^ h2,
        right[(h2, l1), L] = s_low(l1, l1 ^ L) (-1)^(|h2| |L|) b[h2, l1 ^ L]:
    one gather of a over the high factor, one of b over the low factor and one
    matmul, which sums.  left (2^(n-k), 2^n) and right (2^n, 2^k) index
    _signed(a) and _signed(b): the position of the coefficient, plus 2^n where
    the sign is -1, or 2^(n+1), the zero slot, where a wedge's blades overlap in
    the high or in the low factor (blades are disjoint exactly when both parts
    are).  Both are read off the factors' own signed indices.  signs is
    (-1)^(|H| |L|) by output blade.  Read-only, 8 (2^k + 2^(n-k)) 2^n bytes of
    intp: 64 KiB at n = 8, against 512 KiB for the one-block index.
    """
    _check_table_limit(sig)
    if kind == "wedge" and sig.q:
        return _split_index(Signature(sig.n, 0), kind)
    n, k = sig.n, sig.n // 2
    dim, dl, dh = 1 << n, 1 << k, 1 << (n - k)
    low_p = min(sig.p, k)
    low = _signed_index(Signature(low_p, k - low_p), kind)  # [l1, L]
    high = _signed_index(Signature(sig.p - low_p, n - k - (sig.p - low_p)), kind)  # [h1, H]
    odd_l, odd_h = np.bitwise_count(np.arange(dl)) & 1, np.bitwise_count(np.arange(dh)) & 1
    H, h2, l1 = np.ix_(np.arange(dh), np.arange(dh), np.arange(dl))
    h1 = H ^ h2
    slot = high[h1, H]  # e_h1 e_h2 = +-e_H, or the zero slot
    flip = (slot >> (n - k) & 1) ^ odd_h[h1] & odd_l[l1]
    left = np.where(slot == 2 * dh, 2 * dim, h1 * dl + l1 + dim * flip)
    h2, l1, L = np.ix_(np.arange(dh), np.arange(dl), np.arange(dl))
    slot = low[l1, L]  # e_l1 e_(l1^L) = +-e_L, or the zero slot
    flip = (slot >> k & 1) ^ odd_h[h2] & odd_l[L]
    right = np.where(slot == 2 * dl, 2 * dim, h2 * dl + (l1 ^ L) + dim * flip)
    signs = 1.0 - 2.0 * (odd_h[:, None] & odd_l).ravel()
    out = (left.reshape(dh, dim).astype(np.intp), right.reshape(dim, dl).astype(np.intp), signs)
    for array in out:
        array.flags.writeable = False
    return out


def _split_contract(a: np.ndarray, b: np.ndarray, split: tuple, zero_slot: bool) -> np.ndarray:
    """_contract for n >= SPLIT_MIN_N through the graded split of _split_index.

    Vectors and stacks as in _contract: for stacks A (m rows) and B (k rows) the
    result is out[j, i, c], the product A[i] B[j].  B is gathered once, 2^k
    entries per coefficient; A a block of rows at a time, as many as keep its
    gather near _SPLIT_ENTRIES entries (at least one row, 2^(n-k) 2^n entries).
    """
    left, right, signs = split
    x = _signed(b, zero_slot)
    x = x[right] if b.ndim == 1 else x.take(right, axis=-1)  # [..j, (h2, l1), L]
    source = _signed(a, zero_slot)
    step = max(1, _SPLIT_ENTRIES // left.size)
    if a.ndim == 1 or step >= len(a):
        return _split_rows(source, left, x, b.shape[:-1]) * signs
    out = np.empty(b.shape[:-1] + a.shape, np.result_type(a, x))
    for i in range(0, len(a), step):
        out[..., i : i + step, :] = _split_rows(source[i : i + step], left, x, b.shape[:-1])
    out *= signs
    return out


def _split_rows(source: np.ndarray, left: np.ndarray, x: np.ndarray, lead: tuple) -> np.ndarray:
    """The left gather and the matmul of _split_contract for rows of _signed(a)."""
    y = source[left] if source.ndim == 1 else source.take(left, axis=-1)  # [..i, H, (h2, l1)]
    return (y.reshape(-1, x.shape[-2]) @ x).reshape(lead + source.shape[:-1] + left.shape[-1:])


def _dense_contract(sig: Signature, a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """The dense kernel: the one-block gather of _contract up to n = SPLIT_MIN_N - 1,
    the graded split from there to DENSE_TABLE_MAX_N.  Its one entry: other
    modules multiply coefficient arrays through this call, never through an index."""
    if sig.n < SPLIT_MIN_N:
        return _contract(a, b, _signed_index(sig, kind), kind == "wedge")
    return _split_contract(a, b, _split_index(sig, kind), kind == "wedge")


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
    one call of the dense kernel (_dense_contract), up to n = DENSE_TABLE_MAX_N.
    """
    A, B = _coefficients(sig, A, 2), _coefficients(sig, B, 2)
    return _dense_contract(sig, A, B, "product").transpose(1, 0, 2)


# Python and numpy numbers and bools, floats first: the common case is one check
_NUMBERS = (float, int, complex, np.number, np.bool_)
_REALS = (float, int, np.integer, np.floating, np.bool_)  # the numbers less the complex ones


def _number(value):
    """A Python or numpy number as a float, or as a complex when its imaginary part
    is nonzero; None for anything else.  The scalar operands and the coefficients
    of Multivector."""
    if not isinstance(value, _NUMBERS):
        return None
    value = complex(value)
    return value if value.imag else value.real


def _numbers(values, message: str, kinds: tuple = _NUMBERS) -> tuple:
    """values as a tuple, InvalidInput(message) unless it is an iterable of
    instances of kinds: Python or numpy numbers, or real ones for _REALS."""
    try:
        values = tuple(values)
    except TypeError:
        values = (None,)
    if not all(isinstance(v, kinds) for v in values):
        raise InvalidInput(message)
    return values


def _check_field(field):
    if field not in ("real", "complex"):
        raise InvalidInput(f"unknown field tag {field!r}")


def _term_value(coeff, field: str):
    """A coefficient as the float or complex a term of field holds; InvalidInput for
    what _number rejects and, as in from_vector, for any complex value of a real
    multivector."""
    if field == "complex":
        if isinstance(coeff, _NUMBERS):
            return complex(coeff)
    elif isinstance(coeff, _REALS):
        return float(coeff)
    elif isinstance(coeff, _NUMBERS):
        raise InvalidInput("complex coefficients for a real multivector")
    raise InvalidInput(f"coefficients must be Python or numpy numbers, got {coeff!r}")


class Multivector:
    """Element of Cl(p,q) or its complexification: a blade-to-coefficient map.

    An instance has two storages: its terms (a dict from blade mask to a
    nonzero Python float or complex) and its read-only coefficient vector
    indexed by blade mask.  It holds one or both; the other is built from it on
    first access and then kept.  The dict constructor starts from the terms,
    the table route and from_vector from the vector.  Terms built from a vector
    run in ascending mask order with exact zeros pruned, and a vector reads
    +0.0 at every exact zero, so an instance reads the same whichever it was
    built from.  While an instance holds only its vector, the involutions and a
    finite real scale map the vector and return vector-built results, with the
    bits of the term-by-term maps.
    """

    # _terms and _vector are unset until built; _versor holds the versor pass of groups on first use
    __slots__ = ("sig", "field", "_terms", "_vector", "_versor")

    def __init__(self, sig: Signature, terms: dict, field: str = "real"):
        """terms maps blade masks to Python or numpy numbers (the rule of _number); a
        complex value needs field "complex".  Exact zeros are pruned."""
        _check_field(field)
        if not isinstance(terms, dict):
            raise InvalidInput("terms must be a dict from blade mask to coefficient")
        limit = 1 << sig.n
        clean = {}
        for mask, coeff in terms.items():
            if type(mask) is not int:
                mask = _integer(mask, "blade masks")
            if not 0 <= mask < limit:
                raise InvalidInput(f"blade mask {mask:#x} outside Cl({sig.p},{sig.q})")
            c = _term_value(coeff, field)
            if c != 0:
                clean[mask] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, sig: Signature, terms: dict, field: str) -> "Multivector":
        """Wrap terms that are already valid: masks in range, nonzero Python floats/complexes."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "field", field)
        object.__setattr__(mv, "_terms", terms)
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
        mv = object.__new__(Multivector)
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
        _check_field(field)
        if field == "real" and is_complex:
            raise InvalidInput("complex coefficients for a real multivector")
        return Multivector._of_vector(sig, v.astype(np.complex128) if field == "complex" and not is_complex else v)

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The nonzero terms, mask to coefficient, built from the vector on first read."""
        try:
            return self._terms
        except AttributeError:
            pass
        v = self._vector
        nz = np.flatnonzero(v)
        terms = dict(zip(nz.tolist(), v[nz].tolist()))
        object.__setattr__(self, "_terms", terms)
        return terms

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
        try:
            return len(self._terms)
        except AttributeError:
            return int(np.count_nonzero(self._vector))

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
        finite_real = self.field == "real" and isinstance(scale, float) and math.isfinite(scale)
        if finite_real and not hasattr(self, "_terms"):  # only the vector is held: scale it
            return Multivector._of_vector(self.sig, self._vector * scale)
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

    def _negated_where(self, residues: tuple) -> "Multivector":
        """The terms negated where the grade mod 4 is one of residues: the involutions' one rule."""
        if not hasattr(self, "_terms"):  # only the vector is held: map it
            v = self._vector
            return Multivector._of_vector(self.sig, np.where(_grade_flips(self.sig.n, residues), -v, v))
        terms = {m: (-c if (_grade(m) & 3) in residues else c) for m, c in self.terms.items()}
        return Multivector(self.sig, terms, self.field)

    def grade_involution(self) -> "Multivector":
        return self._negated_where((1, 3))

    def reverse(self) -> "Multivector":
        return self._negated_where((2, 3))  # k (k - 1) / 2 odd

    def conjugate(self) -> "Multivector":
        return self._negated_where((1, 2))  # k (k + 1) / 2 odd

    # -- display -------------------------------------------------------------

    @staticmethod
    def _blade_name(mask: int) -> str:
        if mask == 0:
            return "1"
        idx = blade_indices(mask)
        if all(i <= 9 for i in idx):
            return "e" + "".join(str(i) for i in idx)
        return "e(" + ",".join(str(i) for i in idx) + ")"

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mask in blade_order(self.terms):
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


@lru_cache(maxsize=None)
def _grade_flips(n: int, residues: tuple) -> np.ndarray:
    """Read-only mask of the blades whose grade mod 4 is one of residues."""
    flips = np.isin(np.bitwise_count(np.arange(1 << n)) & 3, residues)
    flips.flags.writeable = False
    return flips


# -- spec-level operations ----------------------------------------------------


def basis_blade(sig: Signature, indices: Iterable[int]) -> Multivector:
    """Unit blade e^{i1...ik} from strictly ascending generator indices; [] gives 1."""
    return Multivector(sig, {blade_mask(indices, sig.n): 1.0})


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
    """Route rule: the table route when n <= DENSE_TABLE_MAX_N and |a|*|b| >= multiple * 2^n."""
    n = a.sig.n
    return n <= DENSE_TABLE_MAX_N and a._term_count() * b._term_count() >= multiple << n


def _dense_apply(a: Multivector, b: Multivector, wedge: bool = False) -> Multivector:
    kind = "wedge" if wedge else "product"
    return Multivector._of_vector(a.sig, _dense_contract(a.sig, a.to_vector(), b.to_vector(), kind))


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
    _check_tol(tol)
    a._require_same(b)
    scale = max(1.0, a.norm_inf(), b.norm_inf())
    masks = set(a.terms) | set(b.terms)
    return all(abs(a.coefficient(m) - b.coefficient(m)) <= tol * scale for m in masks)


# -- dense table view ----------------------------------------------------------


class DenseTable:
    """Dense products of one signature's coefficient vectors: a view on the dense
    kernel.  Each method takes two 1-D array-likes of 2^n numbers."""

    def __init__(self, sig: Signature):
        _check_table_limit(sig)
        self.sig = sig
        self.dim = 1 << sig.n

    def product(self, va, vb) -> np.ndarray:
        """Geometric product of two coefficient vectors through the dense kernel."""
        va, vb = _coefficients(self.sig, va), _coefficients(self.sig, vb)
        return _dense_contract(self.sig, va, vb, "product")

    def wedge(self, va, vb) -> np.ndarray:
        """Exterior product of two coefficient vectors through the dense kernel."""
        va, vb = _coefficients(self.sig, va), _coefficients(self.sig, vb)
        return _dense_contract(self.sig, va, vb, "wedge")


@lru_cache(maxsize=8)
def dense_table(sig: Signature) -> DenseTable:
    return DenseTable(sig)
