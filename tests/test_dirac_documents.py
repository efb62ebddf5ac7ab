"""Dirac-spinor documents byte for byte against tests/golden/dirac_documents.jsonl.

One document is the `clif classify dirac` and `clif reconstruct` chain on one
spinor: decode, `bilinears`, `classify_lounesto`, `fpk_residuals`,
`reconstruct` (in the Weyl representation, mapped back to the input's), encode.
The inputs are a fixed seeded set of Weyl and Dirac spinors, the class
representatives, and scaled copies of both.  The file was recorded before the
bilinear pass moved onto the spinor and the FPK check and the reconstruction
onto cached arrays; those changes promise bit-identical documents.  Re-record
with `PYTHONPATH=src python tests/test_dirac_documents.py` only in a commit
that moves a digit on purpose.
"""

import json
from pathlib import Path

import numpy as np

from spinorlab import io as sio
from spinorlab.errors import CliffordError
from spinorlab.minkowski import (
    DiracSpinor,
    bilinears,
    change_representation,
    classify_lounesto,
    fpk_residuals,
    reconstruct,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "dirac_documents.jsonl"
CLASS_REPRESENTATIVES = ((1, 0, 1 + 1j, 0), (1, 0, 1, 0), (1, 0, 1j, 0), (-1j, 1j, 1, 1), (1, 0, 0, 0))


def spinor_inputs() -> list:
    rng = np.random.default_rng(2031)
    out = [DiracSpinor(rep, tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
           for rep in ("weyl", "dirac") for _ in range(16)]
    for comps in CLASS_REPRESENTATIVES:
        for factor in (1.0, complex(rng.normal(), rng.normal()), 1e-4, 1e4j):
            psi = DiracSpinor("weyl", tuple(factor * c for c in comps))
            out += [psi, change_representation(psi)]
    for factor in (1e-6, 1e-3, 1e3, 1e6):
        out.append(DiracSpinor("dirac", tuple(factor * (rng.normal(size=4) + 1j * rng.normal(size=4)))))
    return out


def document(psi: DiracSpinor) -> str:
    text = json.dumps(sio.spinor_to_json(psi), sort_keys=True)
    psi = sio.spinor_from_json(json.loads(text))
    B = bilinears(psi)
    label = classify_lounesto(psi)
    fpk = fpk_residuals(B)
    try:
        psi2, N = reconstruct(B)
    except CliffordError as exc:  # the tolerance is absolute: tiny spinors fail
        rebuilt = {"error": type(exc).__name__, "detail": str(exc)}
    else:
        rebuilt = sio.spinor_to_json(change_representation(psi2) if psi.rep == "dirac" else psi2)
        rebuilt["N"] = N
    return json.dumps(
        {
            "input": json.loads(text),
            "class": label if label is not None else "none",
            "bilinears": sio.bilinears_to_json(B),
            "fpk_residual": fpk.max_residual(),
            "fpk": [fpk.j_squared, fpk.k_plus_j, fpk.j_dot_k, fpk.flag_plane, fpk.auxiliary],
            "reconstructed": rebuilt,
        },
        sort_keys=True,
    )


def documents() -> str:
    return "".join(document(psi) + "\n" for psi in spinor_inputs())


def test_documents_match_golden():
    assert documents() == GOLDEN.read_text()


def test_inputs_cover_every_class():
    labels = {json.loads(line)["class"] for line in GOLDEN.read_text().splitlines()}
    assert labels == {1, 2, 3, 5, 6, "none"}


if __name__ == "__main__":
    GOLDEN.write_text(documents())
