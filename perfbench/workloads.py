"""The two workloads of the spinorlab benchmark.

A workload turns a seed into a fixed list of ops, shuffled together from two
op families: ``algebra`` joins the dense products and the sparse
constructions, ``spinors`` the Dirac-spinor documents and the Cl(8,0) jobs.
Each op carries

* ``wire``: its input as a JSON document (for the input digest and failure
  records; ``replay`` names the ``clif`` command that takes it, if any),
* ``run``: a callable that executes the op against the library and returns a
  dict of outputs,
* ``check``: a callable that verifies those outputs by a route independent of
  the code under test and returns the list of failed conditions.

Every numeric condition is written ``r <= tol``, so a NaN residual fails.
Library functions are always reached through their module (``algebra.wedge``,
not a bound name), so the traced run sees every call the ops make.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from spinorlab import algebra, groups, m8, matrices, minkowski, structure
from spinorlab import io as sio
from spinorlab.algebra import Multivector, Signature

DENSITIES = (0.25, 0.5, 0.75, 1.0)
ROTOR_NORM = 1.5


@dataclass
class Op:
    kind: str
    wire: dict
    run: Callable[[], dict]
    check: Callable[[dict], list]
    replay: str | None = None


@dataclass
class Workload:
    name: str
    build: Callable[[np.random.Generator, bool], list]

    def ops(self, seed: int, tiny: bool = False) -> list:
        return self.build(np.random.default_rng(seed), tiny)

    def warm_ops(self) -> list:
        """Ops whose run fills the workload's lazy caches: one per kind and signature."""
        return self.ops(0, tiny=True)


# -- shared helpers --------------------------------------------------------------


def _fails(name: str, r: float, tol: float) -> list:
    return [] if r <= tol else [f"{name} residual {r!r} exceeds {tol!r}"]


def _max_abs(values) -> float:
    """Largest magnitude, NaN if any entry is NaN (np.max propagates it)."""
    arr = np.abs(np.asarray(values, dtype=complex).ravel())
    return float(arr.max()) if arr.size else 0.0


def _l1(mv: Multivector) -> float:
    return float(sum(abs(c) for c in mv.terms.values()))


def _mv_residual(mv: Multivector, ref: dict) -> float:
    masks = set(mv.terms) | set(ref)
    return _max_abs([mv.terms.get(m, 0.0) - ref.get(m, 0.0) for m in masks])


def _random_mv(rng, sig: Signature, count: int) -> Multivector:
    masks = rng.choice(1 << sig.n, size=count, replace=False)
    return Multivector(sig, {int(m): float(rng.normal()) for m in masks})


def _blades_of_grade(n: int, k: int) -> list:
    return [sum(1 << i for i in idx) for idx in combinations(range(n), k)]


# -- independent oracles -----------------------------------------------------------


def wedge_oracle(a: Multivector, b: Multivector) -> dict:
    """Exterior product from index lists: sign = parity of the merge permutation."""
    out: dict = {}
    idx = lambda m: [i for i in range(m.bit_length()) if m >> i & 1]
    b_items = [(mb, idx(mb), cb) for mb, cb in b.terms.items()]
    for ma, ca in a.terms.items():
        ia = idx(ma)
        for mb, ib, cb in b_items:
            if ma & mb:
                continue
            inversions = sum(1 for x in ia for y in ib if x > y)
            out[ma | mb] = out.get(ma | mb, 0.0) + (-1) ** inversions * ca * cb
    return out


@lru_cache(maxsize=1)
def cl8_blades() -> np.ndarray:
    """(256, 16, 16) stack of Cl(8,0) blade matrices from the gamma bundle's generators."""
    stack = np.empty((256, 16, 16))
    for mask in range(256):
        out = np.eye(16)
        for i in range(8):
            if mask >> i & 1:
                out = out @ matrices.CL8_GAMMAS[i]
        stack[mask] = out
    return stack


def quantize_oracle(mv: Multivector) -> np.ndarray:
    coeffs = np.zeros(256, dtype=complex if mv.field == "complex" else float)
    for m, c in mv.terms.items():
        coeffs[m] = c
    return np.einsum("b,bij->ij", coeffs, cl8_blades())


def m8_pattern_oracle(xr: np.ndarray, xi: np.ndarray, tol: float = 1e-10) -> tuple:
    """Zero pattern on grades 0,1,4,5,8, batched over each grade's blade stack."""
    blades = cl8_blades()
    scale = 1.0 + float(xr @ xr) + float(xi @ xi)
    flags = []
    for k in m8.SURVIVING_GRADES:
        G = blades[_blades_of_grade(8, k)]
        re = np.einsum("i,bij,j->b", xr, G, xr) - np.einsum("i,bij,j->b", xi, G, xi)
        im = np.einsum("i,bij,j->b", xr, G, xi) + np.einsum("i,bij,j->b", xi, G, xr)
        flags.append(bool(np.abs(re + 1j * im).max() > tol * scale))
    return tuple(flags)


# -- dense products --------------------------------------------------------------


def _dense_op(kind: str, sig: Signature, a: Multivector, b: Multivector) -> Op:
    wire = {"kind": kind, "sig": [sig.p, sig.q], "a": sio.multivector_to_json(a), "b": sio.multivector_to_json(b)}
    scale = max(1.0, _l1(a) * _l1(b))

    if kind == "product":
        run = lambda: {"product": algebra.geometric_product(a, b)}

        def check(out):
            c = out["product"]
            if sig.n == 8:
                # Through the gamma bundle: quantize is an algebra morphism.
                r = _max_abs(quantize_oracle(c) - quantize_oracle(a) @ quantize_oracle(b))
            else:
                r = _mv_residual(c, algebra.geometric_product_contracted(a, b).terms)
            return _fails("product", r / scale, 1e-12)

        replay = f"clif product --sig {sig.p},{sig.q} a.json b.json"
    else:
        run = lambda: {"wedge": algebra.wedge(a, b)}

        def check(out):
            return _fails("wedge", _mv_residual(out["wedge"], wedge_oracle(a, b)) / scale, 1e-12)

        replay = None
    return Op(kind, wire, run, check, replay)


def build_dense_products(rng, tiny: bool) -> list:
    plan = [(Signature(6, 0), 4), (Signature(3, 3), 4), (Signature(2, 4), 4), (Signature(8, 0), 1)]
    ops = []
    for sig, reps in plan:
        for density in DENSITIES[:1] if tiny else DENSITIES:
            count = max(1, round(density * (1 << sig.n)))
            for _ in range(1 if tiny else reps):
                for kind in ("product", "wedge"):
                    a, b = _random_mv(rng, sig, count), _random_mv(rng, sig, count)
                    ops.append(_dense_op(kind, sig, a, b))
    rng.shuffle(ops)
    return ops


# -- sparse constructions ---------------------------------------------------------


def _rotor_op(rng, sig: Signature) -> Op:
    # A fixed coefficient norm keeps the series length, and so the op's cost, seed-independent.
    coeffs = rng.normal(size=sig.n * (sig.n - 1) // 2)
    coeffs *= ROTOR_NORM / np.linalg.norm(coeffs)
    B = Multivector(sig, dict(zip(_blades_of_grade(sig.n, 2), map(float, coeffs))))
    G = np.diag(np.array(sig.metric_tuple(), dtype=float))

    def run():
        R = groups.rotor_exp(B)
        return {"matrix": groups.versor_to_matrix(R), "verdict": groups.membership(R).verdict}

    def check(out):
        M = out["matrix"]
        bad = _fails("M^T G M - G", _max_abs(M.T @ G @ M - G) / max(1.0, _max_abs(M) ** 2), 1e-9)
        if out["verdict"] != "spin_plus":
            bad.append(f"verdict {out['verdict']!r}, expected 'spin_plus'")
        return bad

    return Op("rotor", {"kind": "rotor", "sig": [sig.p, sig.q], "B": sio.multivector_to_json(B)}, run, check)


def _hodge_projector_op(rng) -> Op:
    sig = Signature(5, 0)
    a = _random_mv(rng, sig, 16)

    def run():
        return {
            "hodge": structure.hodge(a),
            "plus": structure.projector_pm(a, 1),
            "minus": structure.projector_pm(a, -1),
        }

    def check(out):
        scale = max(1.0, _l1(a))
        tau = Multivector(sig, {(1 << sig.n) - 1: 1.0})
        bad = _fails(
            "hodge vs contracted-wedge a*tau",
            _mv_residual(out["hodge"], algebra.geometric_product_contracted(a, tau).terms) / scale,
            1e-12,
        )
        for sign, key in ((1, "plus"), (-1, "minus")):
            P = out[key]
            again = structure.projector_pm(P, sign)
            bad += _fails(f"idempotence P{key}", _mv_residual(again, P.terms) / scale, 1e-12)
        total = out["plus"] + out["minus"]
        bad += _fails("P+ + P- = a", _mv_residual(total, a.terms) / scale, 1e-12)
        return bad

    return Op("hodge_projector", {"kind": "hodge_projector", "sig": [5, 0], "a": sio.multivector_to_json(a)}, run, check)


def _truncated_op(rng) -> Op:
    sig = Signature(5, 0)
    a = structure.truncate(_random_mv(rng, sig, 16), "lower")
    b = structure.truncate(_random_mv(rng, sig, 16), "lower")
    sign = int(rng.choice((1, -1)))

    def run():
        return {"product": structure.truncated_product(a, b, sign)}

    def check(out):
        # P(a o b) = P(a) P(b): the truncated algebra is isomorphic to P Cl(5,0).
        lhs = structure.projector_pm(out["product"], sign)
        rhs = algebra.geometric_product(structure.projector_pm(a, sign), structure.projector_pm(b, sign))
        scale = max(1.0, _l1(a) * _l1(b))
        return _fails("P(a o b) - P(a)P(b)", _mv_residual(lhs, rhs.terms) / scale, 1e-12)

    wire = {"kind": "truncated", "sig": [5, 0], "sign": sign, "a": sio.multivector_to_json(a), "b": sio.multivector_to_json(b)}
    return Op("truncated", wire, run, check)


def _split_op(rng) -> Op:
    sig = Signature(3, 1)
    spatial = rng.normal(size=3)
    spatial /= np.linalg.norm(spatial)
    boost = 0.5 * float(rng.normal())
    # g(theta, theta) = |spatial|^2 cosh^2 - sinh^2 = 1
    coeffs = list(spatial * np.cosh(boost)) + [np.sinh(boost)]
    theta = Multivector(sig, {1 << i: float(c) for i, c in enumerate(coeffs)})
    w = _random_mv(rng, sig, 8)

    def run():
        split = structure.split_parallel_orthogonal(theta, w)
        return {"parallel": split.parallel, "orthogonal": split.orthogonal, "top": split.top}

    def check(out):
        scale = max(1.0, _l1(w)) * max(1.0, _l1(theta)) ** 2
        bad = _fails(
            "parallel + orthogonal - w",
            _mv_residual(out["parallel"] + out["orthogonal"], w.terms) / scale,
            1e-12,
        )
        bad += _fails(
            "theta ^ top - parallel",
            _mv_residual(out["parallel"], wedge_oracle(theta, out["top"])) / scale,
            1e-12,
        )
        return bad

    wire = {"kind": "split", "sig": [3, 1], "theta": sio.multivector_to_json(theta), "w": sio.multivector_to_json(w)}
    return Op("split", wire, run, check)


# Primitive idempotents (1 + s1 e_A)(1 + s2 e_B)/4 with commuting blades squaring to +1.
_IDEMPOTENT_BLADES = {
    (2, 0): [[[1]], [[2]]],
    (1, 1): [[[1]], [[1, 2]]],
    (3, 1): [[[i], [j, 4]] for i in (1, 2, 3) for j in (1, 2, 3) if j != i],
    (2, 2): [[[i], [j, k]] for i in (1, 2) for j in (1, 2) if j != i for k in (3, 4)],
}


def _rep_op(rng, sig: Signature) -> Op:
    choices = _IDEMPOTENT_BLADES[(sig.p, sig.q)]
    blades = choices[int(rng.integers(len(choices)))]
    signs = [int(rng.choice((1, -1))) for _ in blades]
    one = Multivector.scalar(sig, 1.0)
    f1 = one
    for s, idx in zip(signs, blades):
        f1 = algebra.geometric_product(f1, (one + algebra.basis_blade(sig, idx) * s) * 0.5)

    def run():
        idem = matrices.rep_from_idempotent(sig, f1)
        gammas = idem.gamma_matrices()
        report = matrices.check_clifford_relations(matrices.RepBundle(sig, idem.size, "real", gammas))
        return {"gammas": gammas, "relation_residual": report.max_residual}

    def check(out):
        gammas = np.asarray(out["gammas"], dtype=float)
        metric = np.array(sig.metric_tuple(), dtype=float)
        anti = np.einsum("iab,jbc->ijac", gammas, gammas)
        anti = anti + anti.transpose(1, 0, 2, 3)
        target = 2.0 * np.einsum("ij,ac->ijac", np.diag(metric), np.eye(gammas.shape[1]))
        bad = _fails("anticommutators", _max_abs(anti - target), 1e-9)
        bad += _fails("reported relation residual", out["relation_residual"], 1e-9)
        return bad

    wire = {"kind": "rep", "sig": [sig.p, sig.q], "f1": sio.multivector_to_json(f1)}
    return Op("rep", wire, run, check)


def _few_term_op(rng, sig: Signature, count: int) -> Op:
    a, b = _random_mv(rng, sig, count), _random_mv(rng, sig, count)
    op = _dense_op("product", sig, a, b)
    op.kind = "few_term"
    op.wire["kind"] = "few_term"
    return op


def build_sparse_algebra(rng, tiny: bool) -> list:
    reps = 1 if tiny else 6
    rotor_sigs = [Signature(3, 0), Signature(1, 3), Signature(2, 2), Signature(4, 1)]
    rep_sigs = [Signature(2, 0), Signature(1, 1), Signature(3, 1), Signature(2, 2)]
    few_sigs = [Signature(4, 2), Signature(5, 5), Signature(6, 6)]
    ops = []
    for _ in range(reps):
        ops += [_rotor_op(rng, sig) for sig in rotor_sigs]
        ops += [_hodge_projector_op(rng), _truncated_op(rng), _split_op(rng)]
        ops += [_rep_op(rng, sig) for sig in rep_sigs]
    for _ in range(1 if tiny else 2):
        ops += [_few_term_op(rng, sig, count) for sig in few_sigs for count in (5, 15, 25)]
    rng.shuffle(ops)
    return ops


# -- dirac -----------------------------------------------------------------------

# Class representatives (Weyl components) with their planted Lounesto labels.
CLASS_REPRESENTATIVES = (
    ((1, 0, 1 + 1j, 0), 1),
    ((1, 0, 1, 0), 2),
    ((1, 0, 1j, 0), 3),
    ((-1j, 1j, 1, 1), 5),
    ((1, 0, 0, 0), 6),
)


def _bilinear_distance(a: minkowski.BilinearSet, b: minkowski.BilinearSet) -> float:
    return _max_abs(
        [a.sigma - b.sigma, a.omega - b.omega]
        + [x - y for x, y in zip(a.J + a.S + a.K, b.J + b.S + b.K)]
    )


def _closed_form_label(B: minkowski.BilinearSet, threshold: float):
    nz = lambda block: _max_abs(block) > threshold
    if not nz(B.J):
        return None
    sigma_nz, omega_nz = abs(B.sigma) > threshold, abs(B.omega) > threshold
    if sigma_nz or omega_nz:
        return 1 if sigma_nz and omega_nz else (2 if sigma_nz else 3)
    s_nz, k_nz = nz(B.S), nz(B.K)
    if s_nz or k_nz:
        return 4 if s_nz and k_nz else (5 if s_nz else 6)
    return None


def _as_weyl(psi: minkowski.DiracSpinor) -> minkowski.DiracSpinor:
    return psi if psi.rep == "weyl" else minkowski.change_representation(psi)


def run_dirac_document(text: str) -> str:
    """decode -> bilinears -> classify -> FPK residuals -> reconstruct -> encode.

    The `clif classify dirac` and `clif reconstruct` path without files; the
    reconstructed spinor is re-encoded in the input's representation.
    """
    psi = sio.spinor_from_json(json.loads(text))
    B = minkowski.bilinears(psi)
    label = minkowski.classify_lounesto(psi)
    fpk = minkowski.fpk_residuals(B).max_residual()
    psi2, _ = minkowski.reconstruct(B)
    if psi.rep == "dirac":
        psi2 = minkowski.change_representation(psi2)
    return json.dumps(
        {
            "class": label if label is not None else "none",
            "bilinears": sio.bilinears_to_json(B),
            "fpk_residual": fpk,
            "reconstructed": sio.spinor_to_json(psi2),
        },
        sort_keys=True,
    )


def _dirac_op(psi: minkowski.DiracSpinor, planted) -> Op:
    text = json.dumps(sio.spinor_to_json(psi), sort_keys=True)
    weyl = _as_weyl(psi)
    oracle = minkowski.bilinears_closed_form(weyl)
    scale = 1.0 + psi.norm_squared()

    def check(out):
        doc = json.loads(out["document"])
        B = sio.bilinears_from_json(doc["bilinears"])
        bad = _fails("bilinears vs closed form", _bilinear_distance(B, oracle) / scale, 1e-10)
        expected = planted if planted is not None else _closed_form_label(oracle, 1e-9 * scale)
        if doc["class"] != expected:
            bad.append(f"class {doc['class']!r}, expected {expected!r}")
        bad += _fails("fpk", float(doc["fpk_residual"]), 1e-9)
        psi2 = sio.spinor_from_json(doc["reconstructed"])
        if psi2.rep != psi.rep:
            return bad + [f"reconstructed in {psi2.rep!r}, input was {psi.rep!r}"]
        back = minkowski.bilinears_closed_form(_as_weyl(psi2))
        bad += _fails("round-trip bilinears", _bilinear_distance(back, oracle) / scale, 1e-8)
        overlap = abs(np.vdot(psi2.vector, psi.vector)) / (
            np.linalg.norm(psi2.vector) * np.linalg.norm(psi.vector)
        )
        bad += _fails("round-trip overlap deficit", 1.0 - float(overlap), 1e-8)
        return bad

    return Op(
        "dirac",
        {"kind": "dirac", "document": json.loads(text), "planted_class": planted},
        lambda: {"document": run_dirac_document(text)},
        check,
        "clif classify dirac psi.json",
    )


def build_dirac(rng, tiny: bool) -> list:
    ops = []
    randoms = 1 if tiny else 40
    for rep in ("weyl", "dirac"):
        for _ in range(randoms):
            comps = rng.normal(size=4) + 1j * rng.normal(size=4)
            ops.append(_dirac_op(minkowski.DiracSpinor(rep, tuple(comps)), None))
    for comps, label in CLASS_REPRESENTATIVES:
        for _ in range(1 if tiny else 4):
            factor = complex(rng.normal(), rng.normal())
            psi = minkowski.DiracSpinor("weyl", tuple(factor * c for c in comps))
            ops.append(_dirac_op(psi, label))
            ops.append(_dirac_op(minkowski.change_representation(psi), label))
    rng.shuffle(ops)
    return ops


# -- m8 --------------------------------------------------------------------------


def _classify_op(kind: str, xr: np.ndarray, xi: np.ndarray, planted) -> Op:
    doc = {"real": [float(v) for v in xr], "imag": [float(v) for v in xi]}

    def run():
        real, imag = sio.m8_spinor_from_json(doc)
        cls = m8.classify_m8(real, imag)
        return {"pattern": cls.pattern, "label": cls.label}

    def check(out):
        expected = m8_pattern_oracle(xr, xi)
        bad = []
        if planted is not None and expected != planted:
            bad.append(f"oracle pattern {expected} differs from planted {planted}")
        if tuple(out["pattern"]) != expected:
            bad.append(f"pattern {out['pattern']}, expected {expected}")
        label = sum(1 << i for i, f in enumerate(expected) if f)
        if out["label"] != label:
            bad.append(f"label {out['label']!r}, expected {label}")
        return bad

    wire = {"kind": kind, "spinor": doc, "planted": list(planted) if planted else None}
    return Op(kind, wire, run, check, "clif classify m8 xi.json")


def _fierz_op(rng) -> Op:
    quad = [rng.normal(size=16) for _ in range(4)]
    run = lambda: {"residual": m8.fierz_identity_residual(*quad)}
    check = lambda out: _fails("Fierz identity", out["residual"], 1e-10)
    wire = {"kind": "fierz", "spinors": [[float(v) for v in x] for x in quad]}
    return Op("fierz", wire, run, check)


def constraint_oracle(flux: m8.FluxData) -> np.ndarray:
    """Q for f = 0, summed from the gamma bundle's own blade matrices."""
    blades = cl8_blades()
    Q = sum(0.5 * flux.dDelta[m] * blades[1 << m] for m in range(8))
    for idx, val in flux.F.items():
        Q = Q - (val / 12.0) * blades[sum(1 << (i - 1) for i in idx)]
    return Q - flux.kappa * blades[0xFF]


def _flux_op(rng) -> Op:
    x = rng.normal(size=16)
    flux_seed = int(rng.integers(2**31))
    mix = rng.normal(size=16)

    def run():
        flux = m8.flux_with_kernel_spinor(x, np.random.default_rng(flux_seed))
        Q = m8.build_constraint_operator(flux).Q
        K = m8.kernel(Q)
        y = K @ mix[: K.shape[1]]
        y = y / np.linalg.norm(y)
        return {"flux": flux, "Q": Q, "kernel": K, "y": y, "cgk": m8.cgk_residual(Q, x, y)}

    def check(out):
        Q, K, y = out["Q"], out["kernel"], out["y"]
        qn = max(1.0, _max_abs(Q))
        bad = [] if not any(out["flux"].f) else ["flux job produced f != 0"]
        bad += _fails("Q vs gamma-bundle sum", _max_abs(Q - constraint_oracle(out["flux"])) / qn, 1e-12)
        bad += _fails("|Q x|", _max_abs(Q @ x) / (qn * np.linalg.norm(x)), 1e-10)
        bad += _fails("|Q K|", _max_abs(Q @ K) / qn, 1e-10)
        bad += _fails("K^T K - 1", _max_abs(K.T @ K - np.eye(K.shape[1])), 1e-10)
        bad += _fails("|Q y|", _max_abs(Q @ y) / qn, 1e-10)
        bad += _fails("y in span K", _max_abs(K @ (K.T @ y) - y), 1e-10)
        bad += _fails("cgk", out["cgk"], 1e-9)
        return bad

    wire = {"kind": "flux", "x": [float(v) for v in x], "flux_seed": flux_seed, "mix": [float(v) for v in mix]}
    return Op("flux", wire, run, check)


def build_m8(rng, tiny: bool) -> list:
    reps = 1 if tiny else 10
    diag = np.diag(cl8_blades()[0xFF])
    plus, minus = np.where(diag > 0)[0], np.where(diag < 0)[0]
    family_blades = [0] + [1 << i for i in range(8)] + _blades_of_grade(8, 2) + _blades_of_grade(8, 4)[:20]
    family_blades += [0xFF ^ (1 << i) for i in range(8)] + [0xFF]
    zero = np.zeros(16)
    ops = []
    for _ in range(reps):
        ops.append(_classify_op("classify_real", rng.normal(size=16), zero, (True,) * 5))
        ops.append(_classify_op("classify_complex", rng.normal(size=16), rng.normal(size=16), None))
        chiral = zero.copy()
        chiral[plus if rng.random() < 0.5 else minus] = rng.normal(size=8)
        ops.append(_classify_op("classify_pure", chiral, zero, (True, False, True, False, True)))
        # blade-image families of chirality eigenspinors
        base = zero.copy()
        base[int(rng.choice(plus))] = 1.0
        if rng.random() < 0.5:
            base[int(rng.choice(minus))] = 1.0
            base /= np.sqrt(2.0)
        m1, m2 = (int(rng.choice(family_blades)) for _ in range(2))
        image = cl8_blades()[m1] @ base
        ops.append(_classify_op("classify_family", image, cl8_blades()[m2] @ base, None))
        ops.append(_fierz_op(rng))
        ops.append(_fierz_op(rng))
        ops.append(_flux_op(rng))
    rng.shuffle(ops)
    return ops


def build_algebra(rng, tiny: bool) -> list:
    ops = build_dense_products(rng, tiny) + build_sparse_algebra(rng, tiny)
    rng.shuffle(ops)
    return ops


def build_spinors(rng, tiny: bool) -> list:
    ops = build_dirac(rng, tiny) + build_m8(rng, tiny)
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("algebra", build_algebra),
        Workload("spinors", build_spinors),
    )
}
