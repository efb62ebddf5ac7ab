"""The per-signature blade tables and the two product routes built on them.

The tables and the sparse loop's sign form are checked against the scalar
bitmask rule, the dense route against the sparse loop and an index-list wedge,
and the signatures above the table limit against the contracted-wedge oracle.
"""

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
    _blade_product,
    _blade_tables,
    _blade_wedge,
    _dense,
    _dense_apply,
    _sparse_product,
    approx_equal,
    contracted_wedge,
    dense_table,
    geometric_product,
    geometric_product_contracted,
    wedge,
)
from spinorlab.errors import InvalidInput

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
    for sig in TABLE_SIGS:
        idx, G, W = _blade_tables(sig)
        metric = sig.metric_tuple()
        dim = 1 << sig.n
        ref_idx, ref_g, ref_w = [], [], []
        for a in range(dim):
            for k in range(dim):
                b = a ^ k
                coef, mask = _blade_product(a, b, metric)
                assert mask == k
                ref_idx.append(b)
                ref_g.append(coef)
                ref_w.append(_blade_wedge(a, b)[0])
        shape = (dim, dim)
        assert np.array_equal(idx, np.reshape(ref_idx, shape)), sig
        assert np.array_equal(G, np.reshape(ref_g, shape)), sig
        assert np.array_equal(W, np.reshape(ref_w, shape)), sig
        assert G.dtype == W.dtype == np.int8 and idx.dtype == np.uint8, sig


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
        idx, G, W = _blade_tables(sig)
        for multiple, table, is_wedge, public in ((1, G, False, geometric_product), (4, W, True, wedge)):
            switch = multiple * dim
            # term counts just below, at and above the switch point
            for count_a, count_b in ((1, switch - 1), (2, switch // 2), (4, switch // 2)):
                count_a, count_b = min(count_a, dim), min(count_b, dim)
                a = random_terms(sig, rng, count_a, complex_coeffs)
                b = random_terms(sig, rng, count_b, complex_coeffs)
                dense, slow = _dense_apply(a, b, idx, table), _sparse_product(a, b, is_wedge)
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
        idx, G, W = _blade_tables(sig)
        table = DenseTable(sig)
        for real_first in (True, False):
            a = random_terms(sig, rng, dim, complex_coeffs=not real_first)
            b = random_terms(sig, rng, dim, complex_coeffs=real_first)
            for sign, is_wedge, apply in ((G, False, table.product), (W, True, table.wedge)):
                dense = _dense_apply(a, b, idx, sign)
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
    before = _blade_tables.cache_info()
    for count in (3, 6):
        a = random_terms(sig, rng, count, max_grade=4)
        b = random_terms(sig, rng, count, complex_coeffs=True, max_grade=4)
        assert not _dense(a, b, 1)
        assert approx_equal(geometric_product(a, b), geometric_product_contracted(a, b), 1e-12)
    after = _blade_tables.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_contracted_oracle_reads_no_table():
    rng = np.random.default_rng(25)
    sig = Signature(3, 2)
    a, b = random_terms(sig, rng, 32), random_terms(sig, rng, 32)
    assert _dense(a, b, 1)
    before = _blade_tables.cache_info()
    oracle = geometric_product_contracted(a, b)
    after = _blade_tables.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert approx_equal(geometric_product(a, b), oracle, 1e-12)


def test_dense_table_limit():
    for p, q in ((6, 5), (8, 8), (16, 0)):
        with pytest.raises(InvalidInput):
            DenseTable(Signature(p, q))
        with pytest.raises(InvalidInput):
            dense_table(Signature(p, q))
    # n = 10 is the largest table; it needs a 16-bit index
    sig = Signature(5, 5)
    table = DenseTable(sig)
    assert table._idx.dtype == np.uint16
    rng = np.random.default_rng(26)
    a, b = random_terms(sig, rng, 5), random_terms(sig, rng, 5)
    got = Multivector.from_vector(sig, table.product(a.to_vector(), b.to_vector()))
    assert approx_equal(got, geometric_product(a, b), 1e-12)
