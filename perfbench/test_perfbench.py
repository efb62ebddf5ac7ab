"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

from spans import FUNCTIONS  # noqa: E402
from spinorlab import algebra, groups, m8  # noqa: E402
from spinorlab.algebra import Multivector  # noqa: E402
from workloads import WORKLOADS, _fails  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def tiny_runs(request):
    """Untraced and traced run of one workload at its tiny size."""
    name = request.param
    return name, {
        trace: run.run_benchmark(name, seed=3, seconds=0.05, trace=trace, tiny=True, probes=1, write=False)
        for trace in (False, True)
    }


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tiny_run_emits_every_metric_without_failures(tiny_runs):
    _, results = tiny_runs
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = results[trace]
        assert result["attempted"] >= 1
        assert result["failed"] == 0 and result["fail_frac"] == 0.0, result["failures"]
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_end_to_end_metrics_are_positive(tiny_runs):
    _, results = tiny_runs
    assert all(m["value"] > 0 for m in results[False]["metrics"].values())


def test_traced_self_times_account_for_traced_wall(tiny_runs):
    _, results = tiny_runs
    metrics = {k: v["value"] for k, v in results[True]["metrics"].items()}
    layers = sum(metrics[f"{name}.self_s"] for name in FUNCTIONS)
    assert layers + metrics["bench.self_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert layers > 0


def test_tracer_restores_the_library():
    originals = [algebra.geometric_product, algebra.dense_table, algebra.DenseTable.product,
                 groups.rotor_exp, m8.kernel]
    run.run_benchmark("algebra", seed=1, seconds=0.01, trace=True, tiny=True, probes=1, write=False)
    assert [algebra.geometric_product, algebra.dense_table, algebra.DenseTable.product,
            groups.rotor_exp, m8.kernel] == originals
    assert all("perfbench" not in f.__code__.co_filename for f in (algebra.geometric_product, algebra.DenseTable.product, groups.rotor_exp, m8.kernel))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    assert run.input_digest(wl.ops(11)) == run.input_digest(wl.ops(11))
    assert run.input_digest(wl.ops(11)) != run.input_digest(wl.ops(12))


def test_nan_residual_fails():
    assert _fails("r", float("nan"), 1.0)
    assert not _fails("r", 0.5, 1.0)


def _variants(value):
    """Wrong versions of an op output: every leaf perturbed, and numeric leaves set to NaN."""
    if isinstance(value, (bool, np.bool_)):
        yield not value
    elif isinstance(value, (int, float, np.integer, np.floating)):
        yield value + 0.5 * (1.0 + abs(value))
        yield float("nan")
    elif isinstance(value, str):
        try:
            doc = json.loads(value)
        except ValueError:
            doc = None
        if isinstance(doc, (dict, list)):
            yield from (json.dumps(v) for v in _variants(doc))
        else:
            yield value + "x"
    elif isinstance(value, Multivector):
        yield value + Multivector.scalar(value.sig, 0.5 * (1.0 + value.norm_inf()))
        mask = next(iter(value.terms), 0)
        yield Multivector(value.sig, {**value.terms, mask: float("nan")}, value.field)
    elif isinstance(value, np.ndarray):
        bumped = value.astype(np.result_type(value, float))
        bumped.flat[0] += 0.5 * (1.0 + float(np.abs(value).max()))
        yield bumped
        nan = value.astype(np.result_type(value, float))
        nan.flat[0] = np.nan
        yield nan
    elif isinstance(value, dict):
        for key in value:
            for v in _variants(value[key]):
                yield {**value, key: v}
    elif isinstance(value, (list, tuple)):
        for i in range(len(value)):
            for v in _variants(value[i]):
                items = list(value)
                items[i] = v
                yield type(value)(items)


def _rejected(op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # a check that cannot read the output counts it as failed
        return True


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planted_wrong_results_fail(name):
    for op in WORKLOADS[name].ops(5, tiny=True):
        out = op.run()
        assert op.check(out) == [], (op.kind, op.check(out))
        variants = list(_variants(out))
        assert variants, op.kind
        for wrong in variants:
            assert _rejected(op, wrong), (op.kind, wrong)


def test_failed_op_is_counted():
    ops = WORKLOADS["spinors"].ops(2, tiny=True)
    ops[0].run = lambda: (_ for _ in ()).throw(RuntimeError("planted"))
    runner = run.Runner(ops)
    runner.phase(0.0)
    failed, records = runner.check("spinors", 2)
    assert failed == 1 and records[0]["op"] == 0 and "planted" in records[0]["reasons"][0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "spinors", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
