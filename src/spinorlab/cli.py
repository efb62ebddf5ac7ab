"""Command line front end: clif product | table | classify | verify | reconstruct | rep.

Exit codes: 0 success, 1 invalid input (stdout empty, one diagnostic line on
stderr; usage errors such as a missing argument or an unknown subcommand
included), 2 verification or reconstruction failure (stdout still valid JSON).
All randomness flows through a single generator seeded by --seed (default 0);
CLIF_TOL overrides the default tolerance of 1e-10.  Both CLIF_TOL and
`classify --tol` must be positive finite numbers; they are used as given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import combinations

import numpy as np

from . import io as sio
from .algebra import Multivector, Signature, basis_blade, geometric_product, geometric_product_contracted
from .errors import CliffordError, InvalidInput, ReconstructionFailed
from .groups import membership, metric_matrix, rotor_exp, versor_to_matrix
from .m8 import SURVIVING_GRADES, classify_m8, fierz_identity_residual
from .minkowski import DiracSpinor, bilinears, classify_lounesto, fpk_residuals, reconstruct
from .structure import truncated_product, projector_pm, truncate, volume_form, volume_square_sign
from .tables import classify_complex, classify_real, spinor_space

DEFAULT_TOL = 1e-10


def _parse_tolerance(raw: str, name: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise InvalidInput(f"{name} is not a number: {raw!r}") from None
    if not math.isfinite(val) or val <= 0:
        raise InvalidInput(f"{name} must be a positive finite number")
    return val


def _tolerance() -> float:
    raw = os.environ.get("CLIF_TOL")
    return DEFAULT_TOL if raw is None else _parse_tolerance(raw, "CLIF_TOL")


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _parse_sig(text: str) -> Signature:
    try:
        p_str, q_str = text.split(",")
        return Signature(int(p_str), int(q_str))
    except (ValueError, TypeError):
        raise InvalidInput(f"--sig expects P,Q; got {text!r}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from None


# -- subcommands -----------------------------------------------------------------


def cmd_product(args) -> int:
    sig = _parse_sig(args.sig)
    a = sio.multivector_from_json(_load_json(args.file_a), sig)
    b = sio.multivector_from_json(_load_json(args.file_b), sig)
    _emit(sio.multivector_to_json(geometric_product(a, b)))
    return 0


def cmd_table(args) -> int:
    sig = _parse_sig(args.sig)
    if args.spinors is None:
        desc = classify_complex(sig.n) if args.complex else classify_real(sig.p, sig.q)
        _emit({"ring": desc.division_ring, "dim": desc.matrix_dim, "summands": desc.summands})
        return 0
    kind = {"algebraic": "algebraic", "classical": "classical", "even": "even_subalgebra"}[
        args.spinors
    ]
    desc = spinor_space(sig.p, sig.q, kind, "complex" if args.complex else "real")
    ring = getattr(desc, "division_ring", getattr(desc, "field", None))
    dim = getattr(desc, "matrix_dim", getattr(desc, "dim", None))
    _emit({"ring": ring, "dim": dim, "summands": desc.summands})
    return 0


def cmd_classify(args) -> int:
    tol = _parse_tolerance(args.tol, "--tol") if args.tol is not None else _tolerance()
    doc = _load_json(args.file)
    if args.kind == "dirac":
        psi = sio.spinor_from_json(doc)
        label = classify_lounesto(psi, tol)
        B = bilinears(psi)
        report = fpk_residuals(B)
        _emit(
            {
                "class": label if label is not None else "none",
                "bilinears": sio.bilinears_to_json(B),
                "fpk_residual": report.max_residual(),
            }
        )
        return 0
    xr, xi = sio.m8_spinor_from_json(doc)
    cls = classify_m8(xr, xi, tol)
    norms = {f"E{k}": top for k, top in zip(SURVIVING_GRADES, cls.maxima)}
    _emit({"pattern": list(cls.pattern), "label": cls.label, "bilinears": norms})
    return 0


def cmd_reconstruct(args) -> int:
    B = sio.bilinears_from_json(_load_json(args.file))
    eta = sio.spinor_from_json(_load_json(args.eta)) if args.eta else None
    try:
        psi, N = reconstruct(B, eta=eta)
    except CliffordError as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 2
    doc = sio.spinor_to_json(psi)
    doc["N"] = N
    _emit(doc)
    return 0


def cmd_rep(args) -> int:
    from .matrices import builtin_gammas, rep_from_idempotent

    if args.builtin:
        rep = builtin_gammas(args.builtin)
        _emit(
            {
                "name": args.builtin,
                "sig": [rep.sig.p, rep.sig.q],
                "dim": rep.dim,
                "field": rep.field_tag,
                "gammas": [sio.matrix_to_json(g) for g in rep.gammas],
            }
        )
        return 0
    sig = _parse_sig(args.sig)
    if (sig.p, sig.q) != (2, 0):
        raise InvalidInput("idempotent dump is wired for --sig 2,0")
    f1 = (Multivector.scalar(sig, 1.0) + basis_blade(sig, [1])) * 0.5
    idem = rep_from_idempotent(sig, f1)
    blades = {"1": [], "e1": [1], "e2": [2], "e12": [1, 2]}
    matrices = {
        name: sio.matrix_to_json(idem.matrix_of(basis_blade(sig, idx) if idx else Multivector.scalar(sig, 1.0)))
        for name, idx in blades.items()
    }
    _emit({"sig": [sig.p, sig.q], "size": idem.size, "matrices": matrices})
    return 0


# -- verify suites -----------------------------------------------------------------


def _worse(worst: float, r) -> float:
    """max(worst, r) that keeps a NaN: once a residual is NaN the suite's worst stays NaN."""
    r = float(r)
    return r if r > worst or math.isnan(r) else worst


def _suite_volume(trials: int, rng, tol: float) -> float:
    worst = 0.0
    for p in range(9):
        for q in range(9 - p):
            sig = Signature(p, q)
            vf = volume_form(sig)
            square = geometric_product(vf.tau, vf.tau)
            worst = _worse(worst, (square - Multivector.scalar(sig, volume_square_sign(sig))).norm_inf())
    for _ in range(trials):
        p = int(rng.integers(0, 7))
        q = int(rng.integers(0, 7 - p))
        sig = Signature(p, q)
        if sig.n == 0:
            continue
        k = int(rng.integers(0, sig.n + 1))
        terms = {}
        for idx in combinations(range(1, sig.n + 1), k):
            terms[sum(1 << (i - 1) for i in idx)] = rng.normal()
        alpha = Multivector(sig, terms)
        tau = volume_form(sig).tau
        # the oracle's expansion of a k-form times tau has one nonzero term, its order-k wedge
        via = geometric_product_contracted(alpha, tau)
        worst = _worse(worst, (geometric_product(alpha, tau) - via).norm_inf() / max(1.0, alpha.norm_inf()))
    return worst


def _suite_fpk(trials: int, rng, tol: float) -> float:
    worst = 0.0
    for _ in range(trials):
        comps = rng.normal(size=4) + 1j * rng.normal(size=4)
        report = fpk_residuals(bilinears(DiracSpinor("weyl", tuple(comps))))
        worst = _worse(worst, report.max_residual())
    return worst


def _suite_fierz(trials: int, rng, tol: float) -> float:
    worst = 0.0
    for _ in range(trials):
        quad = [rng.normal(size=16) for _ in range(4)]
        worst = _worse(worst, fierz_identity_residual(*quad))
    return worst


def _random_mv(sig: Signature, rng, density: float = 0.5) -> Multivector:
    terms = {}
    for mask in range(1 << sig.n):
        if rng.random() < density:
            terms[mask] = rng.normal()
    return Multivector(sig, terms)


def _suite_truncated(trials: int, rng, tol: float) -> float:
    sig = Signature(5, 0)
    worst = 0.0
    for _ in range(trials):
        a, b = _random_mv(sig, rng), _random_mv(sig, rng)
        al, bl = truncate(a, "lower"), truncate(b, "lower")
        for sign in (1, -1):
            # round trip Omega_L -> P_pm Omega -> Omega_L
            back = truncate(projector_pm(al, sign), "lower") * 2.0
            worst = _worse(worst, (back - al).norm_inf() / max(1.0, al.norm_inf()))
            # multiplicativity through the isomorphism
            lhs = projector_pm(truncated_product(al, bl, sign), sign)
            rhs = geometric_product(projector_pm(al, sign), projector_pm(bl, sign))
            worst = _worse(worst, (lhs - rhs).norm_inf() / max(1.0, lhs.norm_inf()))
    return worst


def _suite_groups(trials: int, rng, tol: float) -> float:
    sig = Signature(3, 0)
    G = metric_matrix(sig)
    worst = 0.0
    for _ in range(trials):
        terms = {}
        for i in range(1, 4):
            for j in range(i + 1, 4):
                terms[(1 << (i - 1)) | (1 << (j - 1))] = rng.normal()
        R = rotor_exp(Multivector(sig, terms))
        M = versor_to_matrix(R)
        worst = _worse(worst, float(np.abs(M.T @ G @ M - G).max()))
        worst = _worse(worst, float(np.abs(versor_to_matrix(R * -1.0) - M).max()))
        v = Multivector(sig, {1: rng.normal(), 2: rng.normal(), 4: rng.normal()})
        R2 = rotor_exp(Multivector(sig, {3: rng.normal()}))
        worst = _worse(
            worst,
            float(
                np.abs(versor_to_matrix(geometric_product(R, R2)) - M @ versor_to_matrix(R2)).max()
            ),
        )
        if membership(R).verdict != "spin_plus":
            worst = _worse(worst, 1.0)
    return worst


_SUITES = {
    "volume": _suite_volume,
    "fpk": _suite_fpk,
    "fierz": _suite_fierz,
    "truncated": _suite_truncated,
    "groups": _suite_groups,
}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        raise InvalidInput(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)}")
    if args.trials < 0:
        raise InvalidInput("--trials must be nonnegative")
    if args.trials == 0 and args.suite != "volume":
        raise InvalidInput("--trials must be positive for randomized suites")
    tol = _tolerance()
    rng = np.random.default_rng(args.seed)
    worst = _SUITES[args.suite](args.trials, rng, tol)
    ok = worst <= tol
    _emit(
        {
            "suite": args.suite,
            "trials": args.trials,
            "seed": args.seed,
            "max_residual": worst,
            "tolerance": tol,
            "pass": ok,
        }
    )
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, so they exit 1 like any other invalid input;
    subparsers are built from the same class."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clif", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_prod = sub.add_parser("product", help="geometric product of two multivector files")
    p_prod.add_argument("--sig", required=True)
    p_prod.add_argument("file_a")
    p_prod.add_argument("file_b")
    p_prod.set_defaults(func=cmd_product)

    p_table = sub.add_parser("table", help="classification table lookup")
    p_table.add_argument("--sig", required=True)
    p_table.add_argument("--complex", action="store_true")
    p_table.add_argument("--spinors", choices=["algebraic", "classical", "even"])
    p_table.set_defaults(func=cmd_table)

    p_cls = sub.add_parser("classify", help="spinor classification")
    p_cls.add_argument("kind", choices=["dirac", "m8"])
    p_cls.add_argument("file")
    p_cls.add_argument("--tol")  # parsed by _parse_tolerance: a bad value exits 1
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite")
    p_ver.add_argument("--trials", type=int, required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser("reconstruct", help="recover a spinor from bilinears")
    p_rec.add_argument("file")
    p_rec.add_argument("--eta")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_rep = sub.add_parser("rep", help="dump matrix representations")
    group = p_rep.add_mutually_exclusive_group(required=True)
    group.add_argument("--sig")
    group.add_argument("--builtin", choices=["pauli", "dirac", "weyl", "cl8"])
    p_rep.set_defaults(func=cmd_rep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InvalidInput as exc:
        print(f"clif: {exc}", file=sys.stderr)
        return 1
    except CliffordError as exc:
        # mathematical failure: stdout still carries a JSON diagnostic
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        print(f"clif: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
