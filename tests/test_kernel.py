"""The signed gather indices and the two product routes built on them.

The indices and the sparse loop's sign form are checked against the scalar
bitmask rule, the contraction bit for bit against test-local gather-and-sign
references (the one-block gather up to n = 7, the graded split from n = 8 on,
and the split against the one-block reference to 1e-13 up to n = 10), the
table route against the sparse loop, those references and an index-list
wedge, and the signatures above the table limit against the contracted-wedge
oracle.
"""

from functools import lru_cache
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinorlab import algebra

from spinorlab.algebra import (
    DENSE_TABLE_MAX_N,
    SPLIT_MIN_N,
    DenseTable,
    Multivector,
    Signature,
    _GATHER_ENTRIES,
    _blade_product,
    _blade_wedge,
    _contract,
    _dense,
    _dense_apply,
    _dense_contract,
    _signed_index,
    _split_index,
    _sparse_product,
    approx_equal,
    blade_images,
    contracted_wedge,
    dense_table,
    geometric_product,
    geometric_product_contracted,
    right_product_matrix,
    stack_products,
    wedge,
)
from spinorlab.errors import InvalidInput
from spinorlab.matrices import RepBundle
from spinorlab.structure import hodge, volume_form

TABLE_SIGS = [Signature(p, n - p) for n in range(7) for p in range(n + 1)] + [
    Signature(8, 0),
    Signature(4, 4),
    Signature(0, 8),
]


def random_terms(sig, rng, count, complex_coeffs=False, max_grade=None):
    masks = [m for m in range(1 << sig.n) if max_grade is None or bin(m).count("1") <= max_grade]
    chosen = rng.choice(len(masks), size=count, replace=False)
    terms = {}
    for i in chosen:
        terms[masks[i]] = rng.normal() + (1j * rng.normal() if complex_coeffs else 0.0)
    return Multivector(sig, terms, "complex" if complex_coeffs else "real")


def test_tables_match_scalar_blade_rule():
    """index[r, c] holds r ^ c, plus 2^n where e_r e_{r^c} = -e_c; the wedge's
    holds 2^(n+1), its zero slot, where the blades r and r ^ c overlap."""
    for sig in TABLE_SIGS + [Signature(5, 4), Signature(5, 5)]:
        product, outer = _signed_index(sig, "product"), _signed_index(sig, "wedge")
        dim = 1 << sig.n
        r, k = np.repeat(np.arange(dim), dim), np.tile(np.arange(dim), dim)  # every pair, row-major
        b = r ^ k
        rule = list(map(_blade_product, r.tolist(), b.tolist(), repeat(sig.metric_tuple())))
        assert np.array_equal([mask for _, mask in rule], k), sig
        signs = np.array([coef for coef, _ in rule])
        assert np.array_equal(product.ravel(), b + dim * (signs < 0)), sig
        signs = np.array([coef for coef, _ in map(_blade_wedge, r.tolist(), b.tolist())])
        assert np.array_equal(outer.ravel(), np.where(signs == 0, 2 * dim, b + dim * (signs < 0))), sig
        for index in (product, outer):
            assert index.dtype == np.intp and not index.flags.writeable, sig


def test_wedge_index_is_shared_by_every_signature_of_one_n():
    """The wedge sign is metric-free, so each n holds one wedge index, the (n, 0) one."""
    for n in range(9):
        shared = _signed_index(Signature(n, 0), "wedge")
        for p in range(n + 1):
            assert _signed_index(Signature(p, n - p), "wedge") is shared, (p, n - p)
    assert _signed_index(Signature(3, 3), "product") is not _signed_index(Signature(6, 0), "product")


def test_only_wedges_read_the_zero_slot(monkeypatch):
    """A product index stays below 2^(n+1), so product gathers (_contract over a
    product index, blade_images, right_product_matrix) append no zero slot; a
    wedge index reads it and gathers from concat(b, -b, 0)."""
    for n in range(9):
        for p in range(n + 1):
            assert _signed_index(Signature(p, n - p), "product").max() < 2 << n, (p, n - p)
        if n:
            assert _signed_index(Signature(n, 0), "wedge")[-1, 0] == 2 << n
    seen = []
    signed = algebra._signed

    def recorded(b, zero_slot=False):
        out = signed(b, zero_slot)
        seen.append((zero_slot, out.shape[-1]))
        return out

    monkeypatch.setattr(algebra, "_signed", recorded)
    sig = Signature(2, 2)
    rng = np.random.default_rng(27)
    a, b = rng.normal(size=16), rng.normal(size=(3, 16))
    table = dense_table(sig)
    table.product(a, b[0])
    stack_products(sig, b, b)
    blade_images(sig, a)
    blade_images(sig, b, [1, 2])
    right_product_matrix(sig, a)
    assert seen == [(False, 32)] * 5
    seen.clear()
    got = table.wedge(a, b[0])
    assert seen == [(True, 33)]
    assert np.array_equal(got, _reference_contract(sig, a, b[0], "wedge"))


def _pair_loop(a, b, is_wedge):
    """The sparse product as it was before the sign form: one rule call per term pair."""
    metric = a.sig.metric_tuple()
    field = "complex" if "complex" in (a.field, b.field) else "real"
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            coef, mask = _blade_wedge(ma, mb) if is_wedge else _blade_product(ma, mb, metric)
            if coef:
                out[mask] = out.get(mask, 0) + coef * ca * cb
    return Multivector(a.sig, out, field)


SIGN_FORM_SIGS = [Signature(p, n - p) for n in range(7) for p in range(n + 1)] + [
    Signature(5, 5),
    Signature(6, 6),
    Signature(8, 8),
    Signature(0, 16),
]


@pytest.mark.parametrize("sig", SIGN_FORM_SIGS, ids=str)
def test_sparse_loop_equals_pair_rule_loop(sig):
    """Same terms, same values and the same key order as the per-pair rule loop."""
    rng = np.random.default_rng(31 + 17 * sig.p + sig.q)
    dim = 1 << sig.n
    fields = [(False, False), (True, True), (False, True), (True, False)]
    for trial in range(12):
        complex_a, complex_b = fields[trial % 4]
        count_a, count_b = (min(int(c), dim) for c in rng.integers(1, 26, size=2))
        a = random_terms(sig, rng, count_a, complex_a)
        b = random_terms(sig, rng, count_b, complex_b)
        for is_wedge in (False, True):
            got, want = _sparse_product(a, b, is_wedge), _pair_loop(a, b, is_wedge)
            assert got.terms == want.terms and list(got.terms) == list(want.terms), (sig, trial)
            assert got.field == want.field


@st.composite
def mask_pairs(draw):
    n = draw(st.integers(0, 16))
    p = draw(st.integers(0, n))
    blades = st.integers(0, (1 << n) - 1)
    return Signature(p, n - p), draw(blades), draw(blades)


@given(mask_pairs())
def test_sign_form_equals_transposition_count(pair):
    sig, ma, mb = pair
    a, b = Multivector(sig, {ma: 1.0}), Multivector(sig, {mb: 1.0})
    coef, mask = _blade_product(ma, mb, sig.metric_tuple())
    assert _sparse_product(a, b).terms == {mask: coef}
    coef, mask = _blade_wedge(ma, mb)
    assert _sparse_product(a, b, wedge=True).terms == ({mask: coef} if coef else {})


def test_sparse_route_calls_no_per_pair_rule(monkeypatch):
    """The products run without the transposition count; the contracted-wedge oracle needs it."""
    rng = np.random.default_rng(32)
    cases = []
    for sig in (Signature(3, 2), Signature(6, 6), Signature(0, 16)):
        a, b = random_terms(sig, rng, 6, max_grade=3), random_terms(sig, rng, 5, True, max_grade=3)
        assert not _dense(a, b, 1)
        cases.append((a, b, geometric_product(a, b), wedge(a, b)))

    def forbidden(*args):
        raise AssertionError("per-pair rule called")

    monkeypatch.setattr(algebra, "_blade_product", forbidden)
    monkeypatch.setattr(algebra, "_count_swaps", forbidden)
    for a, b, product, outer in cases:
        assert geometric_product(a, b) == product and wedge(a, b) == outer
    algebra._blade_cw.cache_clear()
    a, b = cases[0][:2]
    with pytest.raises(AssertionError, match="per-pair rule called"):
        contracted_wedge(a, b, 0)


@pytest.mark.parametrize("complex_coeffs", [False, True])
def test_dense_and_sparse_routes_agree(complex_coeffs):
    rng = np.random.default_rng(21)
    for sig in (Signature(2, 1), Signature(3, 3), Signature(1, 5), Signature(4, 3), Signature(5, 3)):
        dim = 1 << sig.n
        for multiple, is_wedge, public in ((1, False, geometric_product), (4, True, wedge)):
            switch = multiple * dim
            # term counts just below, at and above the switch point
            for count_a, count_b in ((1, switch - 1), (2, switch // 2), (4, switch // 2)):
                count_a, count_b = min(count_a, dim), min(count_b, dim)
                a = random_terms(sig, rng, count_a, complex_coeffs)
                b = random_terms(sig, rng, count_b, complex_coeffs)
                dense, slow = _dense_apply(a, b, is_wedge), _sparse_product(a, b, is_wedge)
                assert approx_equal(dense, slow, 1e-12), (sig, count_a, count_b)
                assert dense.field == slow.field
                routed = _dense(a, b, multiple)
                assert routed == (count_a * count_b >= switch)
                assert public(a, b) == (dense if routed else slow)


def test_dense_route_mixes_real_and_complex():
    """A real operand meets a complex one in the contraction, as if cast first."""
    rng = np.random.default_rng(27)
    for sig in (Signature(3, 3), Signature(8, 0)):
        dim = 1 << sig.n
        table = DenseTable(sig)
        for real_first in (True, False):
            a = random_terms(sig, rng, dim, complex_coeffs=not real_first)
            b = random_terms(sig, rng, dim, complex_coeffs=real_first)
            for is_wedge, apply in ((False, table.product), (True, table.wedge)):
                dense = _dense_apply(a, b, is_wedge)
                assert dense.field == "complex"
                assert approx_equal(dense, _sparse_product(a, b, is_wedge), 1e-12), sig
                cast = apply(a.to_complex().to_vector(), b.to_complex().to_vector())
                assert np.array_equal(apply(a.to_vector(), b.to_vector()), cast), sig


def _wedge_oracle(a, b):
    """Exterior product by index lists and their permutation parity."""
    out = {}
    for ma, ca in a.terms.items():
        ia = [i for i in range(a.sig.n) if ma >> i & 1]
        for mb, cb in b.terms.items():
            if ma & mb:
                continue
            ib = [i for i in range(b.sig.n) if mb >> i & 1]
            inversions = sum(1 for x in ia for y in ib if x > y)
            out[ma | mb] = out.get(ma | mb, 0.0) + (-1) ** inversions * ca * cb
    return out


def test_dense_wedge_matches_permutation_parity():
    rng = np.random.default_rng(22)
    for sig, count in ((Signature(3, 3), 40), (Signature(0, 6), 64), (Signature(8, 0), 128)):
        a, b = random_terms(sig, rng, count), random_terms(sig, rng, count)
        assert _dense(a, b, 4)
        got = wedge(a, b)
        want = _wedge_oracle(a, b)
        scale = max(1.0, max(abs(c) for c in want.values()))
        for mask in set(got.terms) | set(want):
            assert abs(got.coefficient(mask) - want.get(mask, 0.0)) <= 1e-12 * scale, (sig, mask)


def test_dense_table_matches_geometric_product():
    rng = np.random.default_rng(23)
    sig = Signature(8, 0)
    table = DenseTable(sig)
    for complex_coeffs in (False, True):
        a = random_terms(sig, rng, 256, complex_coeffs)
        b = random_terms(sig, rng, 256, complex_coeffs)
        got = Multivector.from_vector(sig, table.product(a.to_vector(), b.to_vector()))
        assert got == geometric_product(a, b)
        assert approx_equal(got, _sparse_product(a, b), 1e-12)


@pytest.mark.parametrize("p,q", [(1, 3), (3, 3), (8, 0)])
def test_dense_table_wedge_matches_sparse_wedge(p, q):
    rng = np.random.default_rng(29)
    sig = Signature(p, q)
    table = DenseTable(sig)
    for complex_coeffs in (False, True):
        a = random_terms(sig, rng, 1 << sig.n, complex_coeffs)
        b = random_terms(sig, rng, 1 << sig.n, complex_coeffs)
        got = Multivector.from_vector(sig, table.wedge(a.to_vector(), b.to_vector()))
        assert got == wedge(a, b)
        assert approx_equal(got, _sparse_product(a, b, wedge=True), 1e-12)


@pytest.mark.parametrize("p,q", [(5, 4), (5, 5), (6, 6), (8, 8)])
def test_above_table_limit_products_are_sparse(p, q):
    """Products below the term rule at n = 9, 10 and every product above
    DENSE_TABLE_MAX_N take the sparse loop and build no table."""
    sig = Signature(p, q)
    rng = np.random.default_rng(24 + sig.n)
    before = _signed_index.cache_info(), _split_index.cache_info()
    for count in (3, 6):
        a = random_terms(sig, rng, count, max_grade=4)
        b = random_terms(sig, rng, count, complex_coeffs=True, max_grade=4)
        assert sig.n > DENSE_TABLE_MAX_N or count * count < 1 << sig.n
        assert not _dense(a, b, 1)
        assert approx_equal(geometric_product(a, b), geometric_product_contracted(a, b), 1e-12)
    after = _signed_index.cache_info(), _split_index.cache_info()
    assert [(c.hits, c.misses) for c in after] == [(c.hits, c.misses) for c in before]


@pytest.mark.parametrize("p,q", [(5, 4), (0, 9), (5, 5), (3, 7)])
def test_products_at_the_term_rule_take_the_split_up_to_the_table_limit(p, q):
    """At n = 9, 10 a product of |a| |b| >= 2^n terms and a wedge of >= 4 2^n
    terms take the graded split, and agree with the sparse loop to 1e-13."""
    sig = Signature(p, q)
    rng = np.random.default_rng(40 + p)
    root = int(np.ceil(np.sqrt(1 << sig.n)))
    for op, count, wedge_kind in ((geometric_product, root, False), (wedge, 2 * root, True)):
        a = random_terms(sig, rng, count)
        b = random_terms(sig, rng, count, complex_coeffs=True)
        assert _dense(a, b, 4 if wedge_kind else 1)
        before = _split_index.cache_info()
        got = op(a, b)
        after = _split_index.cache_info()
        assert after.hits + after.misses > before.hits + before.misses
        assert approx_equal(got, _sparse_product(a, b, wedge=wedge_kind), 1e-13)


def test_contracted_oracle_reads_no_table():
    rng = np.random.default_rng(25)
    sig = Signature(3, 2)
    a, b = random_terms(sig, rng, 32), random_terms(sig, rng, 32)
    assert _dense(a, b, 1)
    before = _signed_index.cache_info()
    oracle = geometric_product_contracted(a, b)
    after = _signed_index.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert approx_equal(geometric_product(a, b), oracle, 1e-12)


MALFORMED = [
    ("short", np.ones(3)),
    ("long", np.ones(6)),
    ("matrix", np.ones((2, 4))),
    ("cube", np.ones((2, 2, 4))),
    ("short rows", np.ones((2, 3))),
    ("scalar", 1.0),
    ("ragged", [[1.0, 2.0], [3.0]]),
    ("text", ["a", "b", "c", "d"]),
    ("objects", [1.0, None, 0.0, 0.0]),
]


@pytest.mark.parametrize("bad", [m[1] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_vector_entry_points_reject_malformed_input(bad):
    """Each argument must be a 1-D array-like of 2^n numbers; anything else is InvalidInput.
    blade_images also takes a (count, 2^n) stack, and gives each row's images."""
    sig = Signature(2, 0)
    table, good = dense_table(sig), np.ones(4)
    calls = [
        lambda: table.product(good, bad), lambda: table.product(bad, good),
        lambda: table.wedge(good, bad), lambda: table.wedge(bad, good),
        lambda: right_product_matrix(sig, bad), lambda: Multivector.from_vector(sig, bad),
    ]
    if isinstance(bad, np.ndarray) and bad.shape == (2, 4):
        stacked = blade_images(sig, bad)
        assert all(np.array_equal(s, np.stack([b] * 2)) for s, b in zip(stacked, blade_images(sig, bad[0])))
    else:
        calls.append(lambda: blade_images(sig, bad))
    for call in calls:
        with pytest.raises(InvalidInput):
            call()
    with pytest.raises(InvalidInput):
        dense_table(Signature(8, 0)).product(np.ones(256), bad)


def test_vector_entry_points_accept_array_likes():
    sig = Signature(2, 0)
    table = dense_table(sig)
    with pytest.raises(InvalidInput):
        table.product(np.ones(4), np.ones(6))
    assert np.array_equal(table.wedge([1, 0, 0, 0], [0, 1, 0, 0]), [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(table.wedge([0, 1, 0, 0], (0, 0, 1, 0)), [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(table.product([0, 1, 0, 0], [True, True, False, False]), [1.0, 1.0, 0.0, 0.0])
    unsigned = np.array([0, 1, 0, 0], dtype=np.uint8)  # a negated uint8 would wrap
    assert np.array_equal(table.product([0, 0, 1, 0], unsigned), [0.0, 0.0, 0.0, -1.0])
    left, right = blade_images(sig, [0, 1, 2, 3], [1])
    assert np.array_equal(left[0], [1.0, 0.0, 3.0, 2.0]) and np.array_equal(right[0], [1.0, 0.0, -3.0, -2.0])
    assert np.array_equal(right_product_matrix(sig, [1, 0, 0, 0]), np.eye(4))


def test_dense_table_limit():
    for p, q in ((6, 5), (8, 8), (16, 0)):
        with pytest.raises(InvalidInput):
            DenseTable(Signature(p, q))
        with pytest.raises(InvalidInput):
            dense_table(Signature(p, q))
    # n = 10 is the largest table; its signed index is intp, as at every n
    sig = Signature(5, 5)
    table = DenseTable(sig)
    assert _signed_index(sig, "product").dtype == np.intp
    rng = np.random.default_rng(26)
    a, b = random_terms(sig, rng, 5), random_terms(sig, rng, 5)
    got = Multivector.from_vector(sig, table.product(a.to_vector(), b.to_vector()))
    assert approx_equal(got, geometric_product(a, b), 1e-12)


# -- n = 8 products --------------------------------------------------------------

N8_SIGS = [Signature(p, 8 - p) for p in range(9)]


def _random_stack(rng, count, kind, density=1.0, dim=256):
    stack = rng.normal(size=(count, dim))
    if kind == "complex":
        stack = stack + 1j * rng.normal(size=(count, dim))
    return stack * (rng.random((count, dim)) < density)


@lru_cache(maxsize=16)
def _sign_table(sig, kind):
    """sign[r, c] of e_r e_{r^c} = sign e_c (wedge: 0 where r and r ^ c overlap), from
    the transposition count and the shared negative generators, one shift at a time."""
    if kind == "wedge" and sig.q:
        return _sign_table(Signature(sig.n, 0), kind)  # metric-free
    dim = 1 << sig.n
    r = np.arange(dim)
    xor = r[:, None] ^ r
    parity = np.bitwise_count(xor & r[:, None] & -(1 << sig.p))  # shared generators squaring to -1
    for s in range(1, sig.n):
        parity += np.bitwise_count((r[:, None] >> s) & xor)  # pairs i in r, j in r ^ c, i > j
    sign = 1 - 2 * (parity & 1).astype(np.int8)
    if kind == "wedge":
        sign[(r[:, None] & xor) != 0] = 0
    sign.flags.writeable = False
    return sign


def _reference_contract(sig, a, b, kind="product"):
    """out[..., c] = sum_r a[..., r] (b[..., r ^ c] * sign[r, c]), blocked as _contract
    blocks its rows, so the result is comparable bit for bit."""
    dim = 1 << sig.n
    xor = np.arange(dim)[:, None] ^ np.arange(dim)
    sign = _sign_table(sig, kind)
    step = max(1, _GATHER_ENTRIES // max(1, b.size))
    out = 0
    for r in range(0, dim, step):
        out = out + a[..., r : r + step] @ (b[..., xor[r : r + step]] * sign[r : r + step])
    return out


def _split_reference(sig, a, b, kind="product"):
    """The graded split from the factors' sign tables, in the kernel's order.

    With r = l | h << k, k = n // 2, and (H, L) the output blade:
    out[H, L] = (-1)^(|H| |L|) sum_(h2, l1) left[H, (h2, l1)] right[(h2, l1), L],
    left = s_high(h1, h2) (-1)^(|h1| |l1|) a[h1, l1] with h1 = H ^ h2, and
    right = s_low(l1, l1 ^ L) (-1)^(|h2| |L|) b[h2, l1 ^ L]; one matmul sums.
    Unblocked, so it matches the kernel bit for bit on the stacks the kernel takes
    in one block (up to 16 rows at n = 8)."""
    n, k = sig.n, sig.n // 2
    dl, dh = 1 << k, 1 << (n - k)
    low_p = min(sig.p, k)
    s_low = _sign_table(Signature(low_p, k - low_p), kind)
    s_high = _sign_table(Signature(sig.p - low_p, n - k - (sig.p - low_p)), kind)
    odd_l, odd_h = (np.bitwise_count(np.arange(d)).astype(int) & 1 for d in (dl, dh))
    H, h2, l1 = np.ix_(np.arange(dh), np.arange(dh), np.arange(dl))
    left = a[..., (H ^ h2) * dl + l1] * (s_high[H ^ h2, H] * (1 - 2 * (odd_h[H ^ h2] & odd_l[l1])))
    h2, l1, L = np.ix_(np.arange(dh), np.arange(dl), np.arange(dl))
    right = b[..., h2 * dl + (l1 ^ L)] * (s_low[l1, L] * (1 - 2 * (odd_h[h2] & odd_l[L])))
    out = left.reshape(-1, dh * dl) @ right.reshape(b.shape[:-1] + (dh * dl, dl))
    return out.reshape(b.shape[:-1] + a.shape[:-1] + (-1,)) * (1 - 2 * (odd_h[:, None] & odd_l)).ravel()


def _kernel_reference(sig, a, b, kind="product"):
    """The reference in the dense kernel's summation order for this n."""
    return (_reference_contract if sig.n < SPLIT_MIN_N else _split_reference)(sig, a, b, kind)


def _table_product(sig, a, b):
    return _kernel_reference(sig, np.asarray(a), np.asarray(b))


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("sig", [Signature(3, 0), Signature(2, 4), Signature(3, 3),
                                 Signature(4, 3), Signature(8, 0), Signature(4, 4)], ids=str)
def test_contraction_is_bit_identical_to_the_reference(sig):
    """Vectors and stacks, real, complex and mixed, product and wedge: the one-block
    gather up to n = 7, the graded split at n = 8, each against its own reference."""
    rng = np.random.default_rng(90 + 8 * sig.p + sig.q)
    dim = 1 << sig.n
    for kind_a, kind_b in (("real", "real"), ("complex", "complex"), ("real", "complex")):
        A = _random_stack(rng, 3, kind_a, 0.7)[:, :dim]
        B = _random_stack(rng, 2, kind_b, 0.7)[:, :dim]
        for kind in ("product", "wedge"):
            for a, b in ((A[0], B[0]), (A, B)):
                got, want = _dense_contract(sig, a, b, kind), _kernel_reference(sig, a, b, kind)
                assert np.array_equal(got, want), (kind, kind_a, kind_b, a.ndim)
                assert _same_bits(got, want), (kind, kind_a, kind_b, a.ndim)
                if sig.n < SPLIT_MIN_N:
                    assert _same_bits(_contract(a, b, _signed_index(sig, kind), kind == "wedge"), want)
    a, b = A[0].real, B[0].real
    assert _same_bits(dense_table(sig).product(a, b), _kernel_reference(sig, a, b))
    assert _same_bits(dense_table(sig).wedge(a, b), _kernel_reference(sig, a, b, "wedge"))
    R = right_product_matrix(sig, b)
    assert _same_bits(R, b[np.arange(dim)[:, None] ^ np.arange(dim)] * _sign_table(sig, "product"))


SPLIT_SIGS = [Signature(p, n - p) for n in (8, 9, 10) for p in range(n + 1)]
MIXES = (("real", "real"), ("complex", "complex"), ("real", "complex"), ("complex", "real"))


def _assert_close(got, want, what):
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), what


@pytest.mark.parametrize("sig", SPLIT_SIGS, ids=str)
def test_split_matches_the_one_block_reference(sig):
    """n = 8..10: vectors and (m, k) stacks, real, complex and mixed, product and
    wedge, through the kernel, DenseTable and stack_products, within 1e-13
    (relative) of the one-block gather-and-sign reference.  Each signature runs
    real operands and one of the three other mixes, so each n runs all four.  A
    5-row stack is taken in blocks of rows from n = 9 on."""
    rng = np.random.default_rng(120 + 11 * sig.p + sig.q)
    dim = 1 << sig.n
    table = DenseTable(sig)
    for kind_a, kind_b in (MIXES[0], MIXES[1 + sig.p % 3]):
        A, B = _random_stack(rng, 5, kind_a, 0.8, dim), _random_stack(rng, 2, kind_b, 0.8, dim)
        for kind, apply in (("product", table.product), ("wedge", table.wedge)):
            what = (kind, kind_a, kind_b)
            want = _reference_contract(sig, A, B, kind)  # want[j, i] = A[i] B[j]
            _assert_close(_dense_contract(sig, A, B, kind), want, what)
            _assert_close(_dense_contract(sig, A[4], B[1], kind), want[1, 4], what)
            _assert_close(apply(A[4], B[1]), want[1, 4], what)
            if kind == "product":
                _assert_close(stack_products(sig, A, B), want.transpose(1, 0, 2), what)


def test_split_reads_only_the_factor_indices(monkeypatch):
    """From n = 8 on a dense product or wedge builds and reads no 4^n-entry index:
    only the factors' indices of n // 2 and n - n // 2 generators."""
    seen = []
    signed_index = algebra._signed_index

    def recorded(sig, kind):
        seen.append(sig.n)
        return signed_index(sig, kind)

    monkeypatch.setattr(algebra, "_signed_index", recorded)
    _split_index.cache_clear()
    rng = np.random.default_rng(121)
    for sig in (Signature(8, 0), Signature(3, 5), Signature(5, 4), Signature(5, 5)):
        dim = 1 << sig.n
        A = _random_stack(rng, 2, "real", 1.0, dim)
        stack_products(sig, A, A)
        DenseTable(sig).product(A[0], A[1])
        DenseTable(sig).wedge(A[0], A[1])
        if sig.n == 8:
            a, b = (Multivector.from_vector(sig, v) for v in A)
            geometric_product(a, b), wedge(a, b)
    assert seen and max(seen) <= 5


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_n8_products_match_sparse_loop_and_tables(sig):
    """Vectors, (m, k) stacks and Multivectors; real, complex and mixed."""
    rng = np.random.default_rng(50 + sig.p)
    table = DenseTable(sig)
    for kind_a, kind_b in (("real", "real"), ("complex", "complex"),
                           ("real", "complex"), ("complex", "real")):
        A, B = _random_stack(rng, 3, kind_a, 0.6), _random_stack(rng, 2, kind_b)
        want = _table_product(sig, A, B).transpose(1, 0, 2)
        stacked = stack_products(sig, A, B)
        assert stacked.shape == (3, 2, 256) and _same_bits(stacked, want)
        for i in range(3):
            for j in range(2):
                assert _same_bits(table.product(A[i], B[j]), _table_product(sig, A[i], B[j]))
        a, b = (Multivector.from_vector(sig, v) for v in (A[0], B[0]))
        assert _dense(a, b, 1)
        product = geometric_product(a, b)
        assert product.field == _sparse_product(a, b).field
        assert approx_equal(product, _sparse_product(a, b), 1e-12)


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_n8_products_read_no_gamma_bundle(sig, monkeypatch):
    """The checks that quantize through CL8_GAMMAS stay independent of the products."""
    rng = np.random.default_rng(55 + sig.p)
    a, b = random_terms(sig, rng, 256), random_terms(sig, rng, 200, complex_coeffs=True)
    A = _random_stack(rng, 2, "real")

    def forbidden(*args):
        raise AssertionError("gamma bundle called")

    monkeypatch.setattr(RepBundle, "quantize", forbidden)
    monkeypatch.setattr(RepBundle, "dequantize", forbidden)
    assert _dense(a, b, 1)
    assert approx_equal(geometric_product(a, b), _sparse_product(a, b), 1e-12)
    assert np.array_equal(DenseTable(sig).product(A[0], A[1]), _table_product(sig, A[0], A[1]))
    assert np.array_equal(stack_products(sig, A, A), _table_product(sig, A, A).transpose(1, 0, 2))
    assert stack_products(sig, A[:0], A).shape == (0, 2, 256)
    assert stack_products(sig, A, A[:0]).shape == (2, 0, 256)


@pytest.mark.parametrize("sig", [Signature(8, 0), Signature(1, 7), Signature(7, 1)], ids=str)
def test_one_term_operand_gives_an_exact_signed_copy(sig):
    """A blade times a full element is a signed copy of the element's coefficients:
    the table route adds exact zeros to it, so it equals blade_images bit for bit."""
    rng = np.random.default_rng(80 + sig.p)
    full = random_terms(sig, rng, 256, complex_coeffs=True)
    blade = Multivector(sig, {0b1011: -2.5})
    assert _dense(blade, full, 1) and _dense(full, blade, 1)
    left, right = blade_images(sig, full.to_vector(), [0b1011])
    assert np.array_equal(geometric_product(blade, full).to_vector(), -2.5 * left[0])
    assert np.array_equal(geometric_product(full, blade).to_vector(), -2.5 * right[0])
    assert hodge(full) == _sparse_product(full, volume_form(sig).tau)


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_n8_products_associate_and_distribute(sig):
    rng = np.random.default_rng(70 + sig.p)
    for density, kind in ((1.0, "real"), (0.4, "complex"), (0.25, "real")):
        a, b, c = (Multivector.from_vector(sig, v) for v in _random_stack(rng, 3, kind, density))
        assert _dense(a, b, 1)
        lhs = geometric_product(geometric_product(a, b), c)
        assert approx_equal(lhs, geometric_product(a, geometric_product(b, c)), 1e-10)
        distributed = geometric_product(a, b) + geometric_product(a, c)
        assert approx_equal(geometric_product(a, b + c), distributed, 1e-12)


def _reached(a, b):
    return {ma ^ mb for ma in np.flatnonzero(a).tolist() for mb in np.flatnonzero(b).tolist()}


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_n8_product_support_rule(sig):
    """No term on a blade that no pair of nonzero coefficients reaches."""
    rng = np.random.default_rng(60 + sig.p)
    grades = np.bitwise_count(np.arange(256))
    even = np.flatnonzero(grades % 2 == 0)
    for count_a, count_b in ((20, 20), (16, 40), (64, 64), (100, 156), (128, 100)):
        for kind in ("real", "complex"):
            a = np.zeros(256, complex if kind == "complex" else float)
            a[rng.choice(even, count_a, replace=False)] = _random_stack(rng, 1, kind)[0, :count_a]
            b = np.zeros(256)
            b[rng.choice(256, count_b, replace=False)] = rng.normal(size=count_b)
            for x, y in ((a, b), (b, a)):
                out = DenseTable(sig).product(x, y)
                assert set(np.flatnonzero(out).tolist()) <= _reached(x, y)
                assert np.abs(out - _table_product(sig, x, y)).max() <= 1e-12 * max(1.0, np.abs(out).max())
    # even x even: every term even, the reachable set exactly for 20-term operands
    a, b = np.zeros(256), np.zeros(256)
    a[rng.choice(even, 20, replace=False)] = rng.normal(size=20)
    b[rng.choice(even, 20, replace=False)] = rng.normal(size=20)
    x, y = Multivector.from_vector(sig, a), Multivector.from_vector(sig, b)
    out = geometric_product(x, y)
    assert out.grades() <= {0, 2, 4, 6, 8}
    assert set(out.terms) <= _reached(a, b)
    assert set(out.terms) == set(_sparse_product(x, y).terms)
    stacked = stack_products(sig, np.stack([a, b]), np.stack([b, a]))
    assert not np.any(stacked[..., grades % 2 == 1])


_KERNEL_PRIVATE = {"_contract", "_split_contract", "_signed_index", "_split_index", "_signed",
                   "DenseTable", "dense_table"}


def test_library_modules_reach_the_kernel_through_one_entry():
    """Outside algebra, no module of the package names a sign index, a contraction
    or DenseTable: every coefficient product goes through _dense_contract."""
    import ast
    from pathlib import Path

    package = Path(algebra.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "algebra.py")
    assert len(modules) >= 8
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in _KERNEL_PRIVATE:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found


def test_constraint_operator_is_one_quantization(monkeypatch):
    """build_constraint_operator quantizes one coefficient vector, whatever flux terms are set."""
    from spinorlab import m8

    calls = []
    quantize = RepBundle.quantize
    monkeypatch.setattr(RepBundle, "quantize", lambda self, coeffs: calls.append(1) or quantize(self, coeffs))
    flux = m8.FluxData(f=tuple(np.arange(1.0, 9.0)), F={(1, 2, 3, 4): 0.7, (2, 4, 6, 8): -0.3},
                       dDelta=tuple(np.linspace(-1.0, 1.0, 8)), kappa=0.4)
    Q = m8.build_constraint_operator(flux).Q
    assert len(calls) == 1
    assert Q.shape == (16, 16) and np.abs(Q).max() > 0.0
