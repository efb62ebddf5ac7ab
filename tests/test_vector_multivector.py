"""Multivectors built from coefficient vectors (the table route and from_vector)
against their dict-built twins: the same terms in the same order, the same
vector bit for bit, read-only storage, and agreeing ==, hash and route choice."""

import math

import numpy as np
import pytest

from spinorlab.algebra import (
    Multivector,
    Signature,
    _dense,
    _dense_contract,
    geometric_product,
    wedge,
)

SIGS = [Signature(3, 0), Signature(1, 3), Signature(2, 4), Signature(3, 3), Signature(8, 0)]


def dict_twin(sig, v, field):
    return Multivector(sig, {int(m): v[m] for m in np.flatnonzero(v)}, field)


def same_bits(x, y):
    return x.dtype == y.dtype and x.tobytes() == y.tobytes()


def items_repr(mv):
    return [(m, repr(c)) for m, c in mv.terms.items()]  # repr tells -0.0 from 0.0


def random_vector(rng, dim, kind, density=0.6):
    v = rng.normal(size=dim) * (rng.random(dim) < density)
    if kind == "complex":
        v = v + 1j * rng.normal(size=dim) * (rng.random(dim) < density)
    return v


def check_contract(mv, raw):
    """mv was built from the vector raw; compare it with raw's dict-built twin."""
    ref = dict_twin(mv.sig, raw, mv.field)
    assert type(mv) is not Multivector and type(ref) is Multivector
    assert items_repr(mv) == items_repr(ref)
    assert list(mv.terms) == sorted(mv.terms)
    assert same_bits(mv.to_vector(), ref.to_vector())
    for v in (mv.to_vector(), ref.to_vector()):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
    assert mv == ref and ref == mv and hash(mv) == hash(ref)
    assert mv._term_count() == ref._term_count() == len(ref.terms)


@pytest.mark.parametrize("sig", SIGS, ids=str)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_dense_route_outputs_match_dict_twins(sig, kind):
    rng = np.random.default_rng(7 + sig.p + 8 * sig.q)
    dim = 1 << sig.n
    a = Multivector.from_vector(sig, random_vector(rng, dim, kind, density=0.9))
    b = dict_twin(sig, random_vector(rng, dim, "real", density=0.9), "real")
    assert _dense(a, b, 1) and _dense(b, a, 4)
    product, outer = geometric_product(a, b), wedge(b, a)
    check_contract(product, _dense_contract(sig, a.to_vector(), b.to_vector(), "product"))
    check_contract(outer, _dense_contract(sig, b.to_vector(), a.to_vector(), "wedge"))
    assert product.field == outer.field == kind


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_from_vector_matches_dict_twin(kind):
    rng = np.random.default_rng(11)
    for sig in SIGS:
        raw = random_vector(rng, 1 << sig.n, kind, density=0.3)
        check_contract(Multivector.from_vector(sig, raw), raw)


def test_exact_zeros_read_positive():
    sig = Signature(2, 0)
    real = Multivector.from_vector(sig, np.array([-0.0, 1.5, 0.0, -2.0]))
    assert same_bits(real.to_vector(), np.array([0.0, 1.5, 0.0, -2.0]))
    assert items_repr(real) == [(1, "1.5"), (3, "-2.0")]
    raw = np.array([complex(-0.0, -0.0), complex(1.0, -0.0), complex(0.0, 0.0), complex(-0.0, 2.0)])
    cplx = Multivector.from_vector(sig, raw)
    # an exact zero reads +0 in both parts; a nonzero entry keeps its signed-zero part
    want = np.array([0j, complex(1.0, -0.0), 0j, complex(-0.0, 2.0)])
    assert same_bits(cplx.to_vector(), want)
    assert items_repr(cplx) == [(1, "(1-0j)"), (3, "(-0+2j)")]
    assert same_bits(cplx.to_vector(), dict_twin(sig, raw, "complex").to_vector())


def test_from_vector_copies_its_input():
    sig = Signature(3, 0)
    raw = np.arange(8.0)
    mv = Multivector.from_vector(sig, raw)
    stored = mv.to_vector()
    assert not np.shares_memory(stored, raw)
    raw[:] = -7.0
    assert mv.terms == {m: float(m) for m in range(1, 8)}
    assert same_bits(mv.to_vector(), np.arange(8.0)) and mv.to_vector() is stored
    terms = mv.terms
    raw[:] = 3.0
    assert mv.terms is terms and mv == Multivector(sig, {m: float(m) for m in range(1, 8)})


def test_terms_and_vector_are_kept():
    sig = Signature(2, 2)
    mv = Multivector.from_vector(sig, np.linspace(-1.0, 1.0, 16))
    assert mv.terms is mv.terms and mv.to_vector() is mv.to_vector()
    plain = Multivector(sig, {3: 1.0, 5: -2.0})
    assert plain.to_vector() is plain.to_vector()
    with pytest.raises(AttributeError):
        mv.terms = {}
    with pytest.raises(AttributeError):
        plain.terms = {}


def test_route_choice_counts_the_vector():
    """_dense reads the term count off the vector without building the terms."""
    rng = np.random.default_rng(13)
    for sig in (Signature(3, 3), Signature(8, 0)):
        dim = 1 << sig.n
        for count in (1, 2, dim // 8, dim):
            raw = np.zeros(dim)
            raw[rng.choice(dim, count, replace=False)] = rng.normal(size=count)
            raw[rng.choice(dim, 3)] *= -0.0  # signed zeros are not terms
            mv, ref = Multivector.from_vector(sig, raw), dict_twin(sig, raw, "real")
            other = dict_twin(sig, random_vector(rng, dim, "real"), "real")
            assert mv._term_count() == len(ref.terms)
            for multiple in (1, 4):
                assert _dense(mv, other, multiple) == _dense(ref, other, multiple)
                assert _dense(other, mv, multiple) == _dense(other, ref, multiple)


def test_equality_and_hash_keep_their_meaning():
    sig = Signature(3, 0)
    a = Multivector.from_vector(sig, np.array([0, 1.0, 0, 0, 2.0, 0, 0, 0]))
    assert a == Multivector(sig, {1: 1.0, 4: 2.0}) and hash(a) == hash(Multivector(sig, {1: 1.0, 4: 2.0}))
    assert a == Multivector.from_vector(sig, a.to_vector(), "complex")  # fields differ, terms equal
    assert a != Multivector.from_vector(sig, np.array([0, 1.0, 0, 0, 2.5, 0, 0, 0]))
    assert a != Multivector.from_vector(Signature(2, 1), a.to_vector())
    nan = Multivector.from_vector(sig, np.array([math.nan, 1.0, 0, 0, 0, 0, 0, 0]))
    assert nan == nan  # the dict's identity rule, as for dict-built instances
    assert nan != Multivector.from_vector(sig, nan.to_vector())


def same_terms(got, want):
    assert items_repr(got) == items_repr(want) and got.field == want.field
    assert same_bits(got.to_vector(), want.to_vector())


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_vector_maps_match_term_maps(kind):
    """Involutions, negation, scaling, norm_inf and coefficient of a vector-built
    instance give the dict-built twin's results bit for bit, NaN signs included."""
    rng = np.random.default_rng(17)
    for sig in SIGS:
        dim = 1 << sig.n
        raw = random_vector(rng, dim, kind, density=0.5)
        raw[dim - 2] = math.nan
        mv, ref = Multivector.from_vector(sig, raw), dict_twin(sig, raw, kind)
        for name in ("grade_involution", "reverse", "conjugate", "__neg__"):
            same_terms(getattr(mv, name)(), getattr(ref, name)())
        for scale in (0.5, -3, np.float64(1.25), 1e-320, 2.0 + 0j, 1j, math.inf, -math.inf, math.nan):
            same_terms(mv * scale, ref * scale)
            same_terms(scale * mv, scale * ref)
        assert repr(mv.norm_inf()) == repr(ref.norm_inf()) == "nan"
        finite = Multivector.from_vector(sig, np.nan_to_num(raw))
        assert finite.norm_inf() == dict_twin(sig, np.nan_to_num(raw), kind).norm_inf()
        for mask in (0, 1, dim - 2, dim - 1, dim, -1, 1 << 20, np.int64(1)):
            assert repr(mv.coefficient(mask)) == repr(ref.coefficient(mask)), mask
