"""Classification tables: algebras, spinor spaces, even subalgebras."""

import numpy as np
import pytest

from spinorlab.algebra import Signature
from spinorlab.errors import InvalidInput
from spinorlab.tables import (
    AlgebraDescriptor,
    SpinorSpaceDescriptor,
    classify_complex,
    classify_real,
    spinor_space,
)

# Named isomorphism classes from the low-dimensional catalogue.
CATALOGUE = [
    (("R", 2, 1), [(2, 0), (1, 1)]),
    (("C", 2, 1), [(3, 0), (1, 2)]),
    (("H", 2, 1), [(0, 4), (4, 0), (1, 3)]),
    (("R", 4, 1), [(3, 1), (2, 2)]),
    (("H", 2, 2), [(5, 0), (1, 4)]),
    (("C", 4, 1), [(0, 5), (4, 1), (2, 3)]),
    (("H", 4, 1), [(6, 0), (5, 1), (1, 5), (2, 4)]),
    (("C", 8, 1), [(7, 0), (1, 6), (5, 2), (3, 4)]),
    (("R", 8, 2), [(0, 7), (4, 3)]),
    (("H", 4, 2), [(6, 1), (2, 5)]),
]


class TestRealClassification:
    def test_examples(self):
        assert classify_real(3, 0) == AlgebraDescriptor("C", 2, 1)
        assert classify_real(0, 2) == AlgebraDescriptor("H", 1, 1)
        assert classify_real(0, 0) == AlgebraDescriptor("R", 1, 1)

    def test_dimension_identity(self):
        for p in range(9):
            for q in range(9 - p):
                assert classify_real(p, q).real_dimension == 2 ** (p + q)

    def test_isomorphism_catalogue(self):
        for (ring, dim, summands), sigs in CATALOGUE:
            for p, q in sigs:
                assert classify_real(p, q) == AlgebraDescriptor(ring, dim, summands), (p, q)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            classify_real(10, 8)


class TestComplexClassification:
    def test_rows(self):
        assert classify_complex(4) == AlgebraDescriptor("C", 4, 1)
        assert classify_complex(0) == AlgebraDescriptor("C", 1, 1)
        assert classify_complex(3) == AlgebraDescriptor("C", 2, 2)

    def test_dimension_identity(self):
        for n in range(9):
            desc = classify_complex(n)
            assert desc.summands * desc.matrix_dim**2 * 2 == 2 ** (n + 1)


class TestSpinorSpaces:
    def test_examples(self):
        alg = spinor_space(1, 3, "algebraic")
        assert (alg.field, alg.dim, alg.summands) == ("H", 2, 1)
        cla = spinor_space(1, 3, "classical")
        assert (cla.field, cla.dim, cla.summands) == ("C", 2, 1)
        even = spinor_space(2, 0, "even_subalgebra")
        assert even == AlgebraDescriptor("C", 1, 1)

    def test_even_subalgebra_chain(self):
        for p in range(9):
            for q in range(9 - p):
                if p + q == 0:
                    continue
                via_q = classify_real(p, q - 1) if q >= 1 else None
                via_p = classify_real(q, p - 1) if p >= 1 else None
                if via_q is not None and via_p is not None:
                    assert via_q == via_p, (p, q)
                assert spinor_space(p, q, "even_subalgebra") == (via_q or via_p)

    def test_classical_matches_even_subalgebra_spinors(self):
        # a classical spinor is an algebraic spinor of the even subalgebra
        for p in range(9):
            for q in range(9 - p):
                if p + q == 0:
                    continue
                cla = spinor_space(p, q, "classical")
                even = spinor_space(p, q, "even_subalgebra")
                per_summand = even.real_dimension // even.summands
                assert per_summand == (
                    cla.dim * {"R": 1, "C": 2, "H": 4}[cla.field] * cla.dim
                ), (p, q)

    def test_complex_variants(self):
        alg = spinor_space(1, 3, "algebraic", "complex")
        assert (alg.field, alg.dim, alg.summands) == ("C", 4, 1)
        cla = spinor_space(1, 3, "classical", "complex")
        assert (cla.field, cla.dim, cla.summands) == ("C", 2, 2)
        cla5 = spinor_space(5, 0, "classical", "complex")
        assert (cla5.field, cla5.dim, cla5.summands) == ("C", 4, 1)

    def test_degenerate_rows_error(self):
        with pytest.raises(InvalidInput):
            spinor_space(0, 0, "even_subalgebra")
        with pytest.raises(InvalidInput):
            spinor_space(0, 0, "classical")
        with pytest.raises(InvalidInput):
            spinor_space(1, 0, "unknown_kind")


# Periodicity tables of the spinor spaces written out here, independent of the
# algebra rows the code reads them from.  Keyed on p - q mod 8: (field, exponent
# offset, summands), the exponent counted from n // 2 for algebraic spinors and
# from (n - 1) // 2 for classical ones.
ALGEBRAIC_ROWS = {0: ("R", 0, 1), 1: ("R", 0, 2), 2: ("R", 0, 1), 3: ("C", 0, 1),
                  4: ("H", -1, 1), 5: ("H", -1, 2), 6: ("H", -1, 1), 7: ("C", 0, 1)}
CLASSICAL_ROWS = {0: ("R", 0, 2), 1: ("R", 0, 1), 2: ("C", 0, 1), 3: ("H", -1, 1),
                  4: ("H", -1, 2), 5: ("H", -1, 1), 6: ("C", 0, 1), 7: ("R", 0, 1)}


def expected_spinor_space(p, q, kind, field):
    n = p + q
    if field == "complex":
        if kind == "algebraic":
            return ("C", 2 ** (n // 2), 1 if n % 2 == 0 else 2)
        return ("C", 2 ** (n // 2 - 1), 2) if n % 2 == 0 else ("C", 2 ** (n // 2), 1)
    rows, base = (ALGEBRAIC_ROWS, n // 2) if kind == "algebraic" else (CLASSICAL_ROWS, (n - 1) // 2)
    ring, offset, summands = rows[(p - q) % 8]
    return (ring, 2 ** (base + offset), summands)


@pytest.mark.parametrize("kind", ["algebraic", "classical"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_spinor_spaces_match_the_periodicity_tables(kind, field):
    for p in range(17):
        for q in range(17 - p):
            if kind == "classical" and p + q == 0:
                continue
            got = spinor_space(p, q, kind, field)
            assert type(got) is SpinorSpaceDescriptor
            assert (got.field, got.dim, got.summands) == expected_spinor_space(p, q, kind, field), (p, q)


NOT_INTEGERS = [2.0, 1.5, "2", None, 2 + 0j, np.float64(3.0)]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_non_integer_signatures_raise_invalid_input(bad):
    for p, q in ((bad, 1), (1, bad)):
        with pytest.raises(InvalidInput, match="integers"):
            Signature(p, q)
        with pytest.raises(InvalidInput, match="integers"):
            classify_real(p, q)
        for kind in ("algebraic", "classical", "even_subalgebra"):
            for field in ("real", "complex"):
                with pytest.raises(InvalidInput, match="integers"):
                    spinor_space(p, q, kind, field)
    with pytest.raises(InvalidInput, match="integers"):
        classify_complex(bad)


def test_integer_types_read_as_plain_ints():
    for p, q in ((np.int64(3), np.int8(1)), (True, 2), (np.uint16(2), False)):
        sig = Signature(p, q)
        assert (type(sig.p), type(sig.q)) == (int, int)
        assert sig == Signature(int(p), int(q)) and str(sig) == f"Cl({int(p)},{int(q)})"
        assert repr(classify_real(p, q)) == repr(classify_real(int(p), int(q)))
        assert repr(spinor_space(p, q, "classical")) == repr(spinor_space(int(p), int(q), "classical"))
    assert repr(classify_complex(np.int64(5))) == repr(classify_complex(5))
