"""The per-signature signed gather indices, the blade-matrix stacks at n = 8,
and the three product routes built on them.

The indices and the sparse loop's sign form are checked against the scalar
bitmask rule, the contraction bit for bit against a test-local gather-and-sign
reference, the dense routes against the sparse loop, that reference and an
index-list wedge, the stacks against the Clifford relations, and the
signatures above the table limit against the contracted-wedge oracle.
"""

from itertools import repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinorlab import algebra

from spinorlab.algebra import (
    DENSE_MAX_N,
    DenseTable,
    Multivector,
    Signature,
    _GATHER_ENTRIES,
    _blade_product,
    _blade_wedge,
    _contract,
    _dense,
    _dense_apply,
    _reachable,
    _route_bundle,
    _signed_index,
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
    """n > DENSE_MAX_N: products take the sparse loop and build no table."""
    sig = Signature(p, q)
    assert sig.n > DENSE_MAX_N
    rng = np.random.default_rng(24 + sig.n)
    before = _signed_index.cache_info()
    for count in (3, 6):
        a = random_terms(sig, rng, count, max_grade=4)
        b = random_terms(sig, rng, count, complex_coeffs=True, max_grade=4)
        assert not _dense(a, b, 1)
        assert approx_equal(geometric_product(a, b), geometric_product_contracted(a, b), 1e-12)
    after = _signed_index.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


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
    ("scalar", 1.0),
    ("ragged", [[1.0, 2.0], [3.0]]),
    ("text", ["a", "b", "c", "d"]),
    ("objects", [1.0, None, 0.0, 0.0]),
]


@pytest.mark.parametrize("bad", [m[1] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_vector_entry_points_reject_malformed_input(bad):
    """Each argument must be a 1-D array-like of 2^n numbers; anything else is InvalidInput."""
    sig = Signature(2, 0)
    table, good = dense_table(sig), np.ones(4)
    calls = [
        lambda: table.product(good, bad), lambda: table.product(bad, good),
        lambda: table.wedge(good, bad), lambda: table.wedge(bad, good),
        lambda: blade_images(sig, bad), lambda: right_product_matrix(sig, bad),
        lambda: Multivector.from_vector(sig, bad),
    ]
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


# -- the matrix route at n = 8 ---------------------------------------------------

N8_SIGS = [Signature(p, 8 - p) for p in range(9)]
REAL_STACK = {(8, 0), (5, 3), (4, 4), (1, 7), (0, 8)}  # Cl(p,q) = Mat(16, R)


def _random_stack(rng, count, kind, density=1.0):
    stack = rng.normal(size=(count, 256))
    if kind == "complex":
        stack = stack + 1j * rng.normal(size=(count, 256))
    return stack * (rng.random((count, 256)) < density)


def _sign_table(sig, kind):
    """sign[r, c] of e_r e_{r^c} = sign e_c (wedge: 0 where r and r ^ c overlap), from
    the transposition count and the shared negative generators, one shift at a time."""
    dim = 1 << sig.n
    r = np.arange(dim)
    xor = r[:, None] ^ r
    parity = np.bitwise_count(xor & r[:, None] & -(1 << sig.p))  # shared generators squaring to -1
    for s in range(1, sig.n):
        parity += np.bitwise_count((r[:, None] >> s) & xor)  # pairs i in r, j in r ^ c, i > j
    sign = 1 - 2 * (parity & 1).astype(np.int8)
    if kind == "wedge":
        sign[(r[:, None] & xor) != 0] = 0
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


def _table_product(sig, a, b):
    return _reference_contract(sig, np.asarray(a), np.asarray(b))


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("sig", [Signature(3, 0), Signature(2, 4), Signature(3, 3),
                                 Signature(4, 3), Signature(8, 0), Signature(4, 4)], ids=str)
def test_contraction_is_bit_identical_to_the_reference(sig):
    """Vectors and stacks, real, complex and mixed, product and wedge."""
    rng = np.random.default_rng(90 + 8 * sig.p + sig.q)
    dim = 1 << sig.n
    for kind_a, kind_b in (("real", "real"), ("complex", "complex"), ("real", "complex")):
        A = _random_stack(rng, 3, kind_a, 0.7)[:, :dim]
        B = _random_stack(rng, 2, kind_b, 0.7)[:, :dim]
        for kind in ("product", "wedge"):
            if kind == "product" and sig.n == DENSE_MAX_N:
                continue  # n = 8 products take the matrix route
            index = _signed_index(sig, kind)
            for a, b in ((A[0], B[0]), (A, B)):
                got, want = _contract(a, b, index), _reference_contract(sig, a, b, kind)
                assert np.array_equal(got, want), (kind, kind_a, kind_b, a.ndim)
                assert _same_bits(got, want), (kind, kind_a, kind_b, a.ndim)
    a, b = A[0].real, B[0].real
    if sig.n < DENSE_MAX_N:
        assert _same_bits(dense_table(sig).product(a, b), _reference_contract(sig, a, b))
    assert _same_bits(dense_table(sig).wedge(a, b), _reference_contract(sig, a, b, "wedge"))
    R = right_product_matrix(sig, b)
    assert _same_bits(R, b[np.arange(dim)[:, None] ^ np.arange(dim)] * _sign_table(sig, "product"))


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_matrix_stack_is_a_faithful_representation(sig):
    bundle = _route_bundle(sig)
    assert _route_bundle(sig) is bundle
    stack = bundle.blades
    rows = stack.reshape(256, -1)
    assert rows.shape == (256, 256) and not rows.flags.writeable
    assert rows.nbytes <= 1 << 20 and np.shares_memory(rows, stack)
    assert (rows.dtype.kind == "f") == ((sig.p, sig.q) in REAL_STACK)
    gammas = stack[1 << np.arange(8)]
    anti = gammas[:, None] @ gammas[None]
    anti = anti + anti.transpose(1, 0, 2, 3)
    want = 2.0 * np.einsum("ij,ab->ijab", np.diag(sig.metric_tuple()), np.eye(16))
    assert np.array_equal(anti, want)  # entries are 0, +-1 and +-i: exact
    for mask in range(256):  # ascending products of the generators
        product = np.eye(16)
        for i in range(8):
            if mask >> i & 1:
                product = product @ gammas[i]
        assert np.array_equal(stack[mask], product), mask
    rng = np.random.default_rng(40 + sig.p)
    for kind in ("real", "complex"):
        v = _random_stack(rng, 1, kind)[0]
        back = bundle.dequantize(bundle.quantize(v))
        assert np.abs(back - v).max() <= 1e-14 * np.abs(v).max()


def test_cl80_stack_is_not_the_gamma_bundle():
    from spinorlab.matrices import CL8_GAMMAS

    stack = _route_bundle(Signature(8, 0)).blades
    assert not any(np.array_equal(stack[1 << i], g) for i, g in enumerate(CL8_GAMMAS))
    assert not np.array_equal(stack[1 << np.arange(8)], np.stack(CL8_GAMMAS))


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_matrix_route_matches_sparse_loop_and_tables(sig):
    """Vectors, (m, k) stacks and Multivectors; real, complex and mixed."""
    rng = np.random.default_rng(50 + sig.p)
    table = DenseTable(sig)
    for kind_a, kind_b in (("real", "real"), ("complex", "complex"),
                           ("real", "complex"), ("complex", "real")):
        A, B = _random_stack(rng, 3, kind_a, 0.6), _random_stack(rng, 2, kind_b)
        want = _table_product(sig, A, B).transpose(1, 0, 2)
        stacked = stack_products(sig, A, B)
        assert stacked.shape == (3, 2, 256) and stacked.dtype == want.dtype
        scale = np.abs(want).max()
        assert np.abs(stacked - want).max() <= 1e-12 * scale
        for i in range(3):
            for j in range(2):
                got = table.product(A[i], B[j])
                assert got.dtype == want.dtype and np.abs(got - want[i, j]).max() <= 1e-12 * scale
        a, b = (Multivector.from_vector(sig, v) for v in (A[0], B[0]))
        assert _dense(a, b, 1)
        product = geometric_product(a, b)
        assert product.field == _sparse_product(a, b).field
        assert approx_equal(product, _sparse_product(a, b), 1e-12)


def test_matrix_route_takes_every_n8_product_and_nothing_else(monkeypatch):
    """Products at n = 8 never reach the table contraction; wedges and other n do."""
    rng = np.random.default_rng(55)
    sig = Signature(5, 3)
    a, b = random_terms(sig, rng, 256), random_terms(sig, rng, 256)
    A = _random_stack(rng, 2, "real")
    wedge_before = wedge(a, b)

    def forbidden(*args):
        raise AssertionError("table contraction called")

    monkeypatch.setattr(algebra, "_contract", forbidden)
    geometric_product(a, b)
    DenseTable(sig).product(A[0], A[1])
    stack_products(sig, A, A)
    with pytest.raises(AssertionError, match="table contraction"):
        wedge(a, b)
    with pytest.raises(AssertionError, match="table contraction"):
        DenseTable(Signature(4, 3)).product(A[0, :128], A[1, :128])
    monkeypatch.undo()
    assert wedge(a, b) == wedge_before
    assert stack_products(sig, A[:0], A).shape == (0, 2, 256)
    assert stack_products(sig, A, A[:0]).shape == (2, 0, 256)


def test_matrix_route_builds_no_product_index():
    """Each kind's index is built on first use; n = 8 products never ask for theirs."""
    rng = np.random.default_rng(56)
    sig = Signature(6, 2)
    a, b = random_terms(sig, rng, 200), random_terms(sig, rng, 200)
    A = _random_stack(rng, 2, "complex")
    _signed_index.cache_clear()
    geometric_product(a, b)
    DenseTable(sig).product(A[0], A[1])
    stack_products(sig, A, A)
    assert _signed_index.cache_info().misses == 0
    wedge(a, b)
    assert _signed_index.cache_info().misses == 1
    blade_images(sig, A[0], [3])
    assert _signed_index.cache_info().misses == 2 and _signed_index(sig, "product").shape == (256, 256)


@pytest.mark.parametrize("sig", [Signature(8, 0), Signature(1, 7), Signature(7, 1)], ids=str)
def test_one_term_operand_stays_off_the_matrix_route(sig, monkeypatch):
    """A blade times a full element is a signed copy of the element's coefficients:
    exact on the sparse loop, where the matrix route would round every blade."""
    rng = np.random.default_rng(80 + sig.p)
    full = random_terms(sig, rng, 256, complex_coeffs=True)
    blade = Multivector(sig, {0b1011: -2.5})
    assert not _dense(blade, full, 1) and not _dense(full, blade, 1)
    assert _dense(random_terms(sig, rng, 2), full, 1)
    left, right = blade_images(sig, full.to_vector(), [0b1011])

    def forbidden(*args):
        raise AssertionError("matrix route called")

    monkeypatch.setattr(algebra, "_matrix_product", forbidden)
    assert np.array_equal(geometric_product(blade, full).to_vector(), -2.5 * left[0])
    assert np.array_equal(geometric_product(full, blade).to_vector(), -2.5 * right[0])
    assert hodge(full) == _sparse_product(full, volume_form(sig).tau)


@pytest.mark.parametrize("sig", N8_SIGS, ids=str)
def test_matrix_route_associates_and_distributes(sig):
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
def test_matrix_route_support_rule(sig):
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


def test_reachable_mask_equals_pair_set():
    rng = np.random.default_rng(65)
    for count_a, count_b in ((1, 1), (1, 255), (5, 30), (128, 128), (100, 157), (200, 200)):
        a, b = np.zeros(256), np.zeros(256)
        a[rng.choice(256, count_a, replace=False)] = 1.5
        b[rng.choice(256, count_b, replace=False)] = -2.0
        reach = _reachable(a, b)
        want = _reached(a, b)
        if count_a + count_b > 256:
            assert reach is None and want == set(range(256))
        else:
            assert set(np.flatnonzero(reach).tolist()) == want
