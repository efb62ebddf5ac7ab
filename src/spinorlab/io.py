"""JSON codecs for the wire formats: multivectors, Dirac spinors, bilinear
sets, Majorana-16 spinors, and flux data.  Encoding is deterministic (sorted
terms, shortest round-trip floats) and decoding validates shapes and types:
JSON numbers only (never booleans or strings), and integers only where a blade
index or a signature is meant.
"""

from __future__ import annotations

import cmath

import numpy as np

from .algebra import Multivector, Signature
from .errors import InvalidInput
from .m8 import FluxData
from .minkowski import BilinearSet, DiracSpinor


def _mask_to_indices(mask: int) -> list:
    return [i + 1 for i in range(16) if mask >> i & 1]


def _is_int(x) -> bool:
    """A JSON integer; json reads true/false as bool, a subclass of int, so bools are excluded."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _ints(values, what: str) -> list:
    """The entries of a JSON list of integers; InvalidInput for anything else."""
    if not isinstance(values, list) or not all(map(_is_int, values)):
        raise InvalidInput(f"{what} must be a list of integers")
    return values


def _indices_to_mask(indices, n: int) -> int:
    idx = _ints(indices, "blade indices")
    if any(not 1 <= i <= n for i in idx):
        raise InvalidInput(f"indices {idx} outside 1..{n}")
    if sorted(set(idx)) != idx:
        raise InvalidInput(f"indices {idx} not strictly ascending")
    return sum(1 << (i - 1) for i in idx)


def multivector_to_json(mv: Multivector) -> dict:
    terms = []
    for mask in sorted(mv.terms, key=lambda m: (bin(m).count("1"), m)):
        c = complex(mv.terms[mask])
        entry = {"indices": _mask_to_indices(mask), "re": c.real}
        if mv.field == "complex":
            entry["im"] = c.imag
        terms.append(entry)
    return {"p": mv.sig.p, "q": mv.sig.q, "field": mv.field, "terms": terms}


def multivector_from_json(doc: dict, sig: Signature | None = None) -> Multivector:
    if not isinstance(doc, dict):
        raise InvalidInput("multivector document must be an object")
    try:
        p, q = doc["p"], doc["q"]
    except KeyError as exc:
        raise InvalidInput(f"malformed multivector document: missing {exc}") from None
    if not (_is_int(p) and _is_int(q)):
        raise InvalidInput('signature "p" and "q" must be integers')
    field = doc.get("field", "real")
    raw_terms = doc.get("terms", [])
    parsed = Signature(p, q)
    if sig is not None and parsed != sig:
        raise InvalidInput(f"document signature {parsed} does not match expected {sig}")
    if not isinstance(raw_terms, list) or not all(isinstance(e, dict) for e in raw_terms):
        raise InvalidInput("multivector terms must be a list of objects")
    terms = {}
    for entry in raw_terms:
        mask = _indices_to_mask(entry.get("indices", []), parsed.n)
        re, im = _floats([entry.get("re", 0.0), entry.get("im", 0.0)], "a coefficient")
        if not cmath.isfinite(complex(re, im)):
            raise InvalidInput(f"non-finite coefficient on blade {_mask_to_indices(mask)}")
        if field == "real":
            if im:
                raise InvalidInput("real multivector with imaginary part")
            terms[mask] = terms.get(mask, 0.0) + re
        else:
            terms[mask] = terms.get(mask, 0j) + complex(re, im)
    return Multivector(parsed, terms, field)


def spinor_to_json(psi: DiracSpinor) -> dict:
    return {
        "rep": psi.rep,
        "components": [[c.real, c.imag] for c in psi.components],
    }


def _floats(values, what: str) -> list:
    """The entries of a JSON list of numbers as floats; InvalidInput for anything else."""
    if not isinstance(values, (list, tuple)):
        raise InvalidInput(f"{what} must be a list")
    for x in values:
        if not _is_number(x):
            raise InvalidInput(f"non-numeric entry in {what}: {x!r}")
    try:
        return [float(x) for x in values]
    except OverflowError as exc:
        raise InvalidInput(f"entry out of range in {what}: {exc}") from None


def spinor_from_json(doc: dict) -> DiracSpinor:
    try:
        rep = doc["rep"]
        comps = doc["components"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed spinor document: {exc}") from None
    if not isinstance(rep, str):
        raise InvalidInput("spinor representation must be a string")
    if not isinstance(comps, (list, tuple)) or len(comps) != 4:
        raise InvalidInput("spinor components must be a list of 4 [re, im] pairs")
    values = []
    for pair in comps:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InvalidInput("components are [re, im] pairs")
        re, im = _floats(pair, "a spinor component")
        values.append(complex(re, im))
    return DiracSpinor(rep, tuple(values))


def bilinears_to_json(B: BilinearSet) -> dict:
    return {
        "sigma": B.sigma,
        "J": list(B.J),
        "S": list(B.S),
        "K": list(B.K),
        "omega": B.omega,
    }


def bilinears_from_json(doc: dict) -> BilinearSet:
    if not isinstance(doc, dict):
        raise InvalidInput("bilinear document must be an object")
    try:
        sigma, omega = _floats([doc["sigma"], doc["omega"]], "sigma and omega")
        J, S, K = (tuple(_floats(doc[key], f'"{key}"')) for key in ("J", "S", "K"))
    except KeyError as exc:
        raise InvalidInput(f"malformed bilinear document: missing {exc}") from None
    return BilinearSet(sigma, J, S, K, omega)


def m8_spinor_from_json(doc: dict) -> tuple:
    if not isinstance(doc, dict) or "real" not in doc:
        raise InvalidInput("m8 spinor document must be an object with a \"real\" list")
    real = np.array(_floats(doc["real"], '"real"'))
    imag_raw = doc.get("imag")
    imag = np.zeros(16) if imag_raw is None else np.array(_floats(imag_raw, '"imag"'))
    if real.shape != (16,) or imag.shape != (16,):
        raise InvalidInput("m8 spinor components must have 16 entries")
    return real, imag


def flux_from_json(doc: dict) -> FluxData:
    if not isinstance(doc, dict):
        raise InvalidInput("flux document must be an object")
    entries = doc.get("F", [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InvalidInput('"F" must be a list of objects')
    F = {}
    for entry in entries:
        if "indices" not in entry or "value" not in entry:
            raise InvalidInput('4-form entries carry "indices" and "value"')
        idx = tuple(_ints(entry["indices"], "4-form indices"))
        F[idx] = _floats([entry["value"]], "a 4-form value")[0]
    return FluxData(
        f=_floats(doc.get("f", [0.0] * 8), '"f"'),
        F=F,
        dDelta=_floats(doc.get("dDelta", [0.0] * 8), '"dDelta"'),
        kappa=_floats([doc.get("kappa", 0.0)], '"kappa"')[0],
    )


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M)
    out = {"rows": M.shape[0], "cols": M.shape[1], "re": [float(x) for x in M.real.ravel()]}
    if np.iscomplexobj(M) and np.abs(M.imag).max() > 0:
        out["im"] = [float(x) for x in M.imag.ravel()]
    return out
