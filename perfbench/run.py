"""spinorlab benchmark: one closed-loop client, one op at a time, one BLAS thread.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's fixed op list from --seed, warms the lazy caches, and
runs whole passes over the list until S seconds have elapsed.  Outputs are
checked after the timed phase by independent routes.  With --trace 0 the last
stdout line carries the end-to-end metrics; with --trace 1 the run alternates
untraced and traced stretches and the last line carries the per-layer
metrics.  A result file (and, when traced, the spans) is written under
perfbench/results/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
PROBES = 7
TRACE_ROUNDS = 5


def _import_library():
    src = ROOT / "src"
    if not (src / "spinorlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spinorlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import spinorlab.cli  # noqa: F401


# -- running ---------------------------------------------------------------------


def _same(x, y) -> bool:
    """Bit-for-bit equality of op outputs (NaN never equals itself)."""
    if isinstance(x, BaseException) or isinstance(y, BaseException):
        return False
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and np.array_equal(x, y)
    return bool(x == y)


class Runner:
    """Runs passes over the op list and keeps the first output of each op."""

    def __init__(self, ops: list):
        self.ops = ops
        self.first: list = [None] * len(ops)
        self.execs = [0] * len(ops)
        self.bad = [0] * len(ops)  # executions that raised or differed from the first

    def phase(self, seconds: float, tracer=None) -> dict:
        """Whole passes over the op list until `seconds` have elapsed.

        Returns per-pass wall times and latencies; the time spent comparing an
        output with the op's first output is left out of both.
        """
        walls, latencies = [], []
        start = time.perf_counter()
        while True:
            lat = []
            excluded = 0.0
            pass_start = time.perf_counter()
            for i, op in enumerate(self.ops):
                token = tracer.begin_op(i) if tracer else None
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a failed op is counted, the run goes on
                    out = exc
                t1 = time.perf_counter()
                if tracer:
                    tracer.end_op(token)
                lat.append(t1 - t0)
                if self.execs[i] == 0:
                    self.first[i] = out
                    self.bad[i] += isinstance(out, BaseException)
                elif not _same(out, self.first[i]):
                    self.bad[i] += 1
                self.execs[i] += 1
                excluded += time.perf_counter() - t1
            end = time.perf_counter()
            walls.append(end - pass_start - excluded)
            latencies.append(lat)
            if end - start >= seconds:
                break
        return {"walls": walls, "latencies": latencies, "passes": len(walls)}

    @staticmethod
    def op_latencies(phase: dict) -> np.ndarray:
        """Each op's latency: the median of its executions, one per pass.

        The shared host this was tuned on changes speed by up to 1.8 times in
        spells of 10 to 100 seconds, and which speed is the usual one changes
        over the hours.  The median follows whichever speed held for most of
        the run; the fastest execution or a high percentile jumps with any
        spell of the speed that is rarer at the time.
        """
        return np.median(np.asarray(phase["latencies"]), axis=0)

    @staticmethod
    def throughput(phase: dict) -> float:
        """Ops per second of one pass over the op list at the ops' latencies."""
        lat = Runner.op_latencies(phase)
        return len(lat) / float(lat.sum())

    def check(self, workload: str, seed: int) -> tuple:
        """(failed executions, failure records) from the checks on each op's first output."""
        failed, records = 0, []
        for i, op in enumerate(self.ops):
            out = self.first[i]
            if isinstance(out, BaseException):
                reasons = [f"raised {type(out).__name__}: {out}"]
            else:
                try:
                    reasons = op.check(out)
                except Exception as exc:
                    reasons = [f"check raised {type(exc).__name__}: {exc}"]
            failed += self.execs[i] if reasons else self.bad[i]
            if not reasons and self.bad[i]:
                reasons = [f"{self.bad[i]} of {self.execs[i]} executions raised or differed from the first"]
            if reasons:
                records.append(
                    {"workload": workload, "seed": seed, "op": i, "kind": op.kind,
                     "reasons": reasons, "replay": op.replay, "input": op.wire}
                )
        return failed, records


# -- set-up, calibration, metadata -----------------------------------------------


def probe_setup(workload: str, count: int) -> list:
    """Set-up of `count` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def calibrate(rounds: int = 3, n: int = 200_000) -> float:
    """Fixed pure-Python loop, iterations per second (median of rounds)."""
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i * i & 7
        rates.append(n / (time.perf_counter() - t0))
    return statistics.median(rates)


def input_digest(ops: list) -> str:
    blob = json.dumps([op.wire for op in ops], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(seed: int, calib_ops: float) -> dict:

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinorlab").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": _git_commit(),
        "src_digest": src.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "host.calib_ops": calib_ops,
    }


def _merge(phases: list) -> dict:
    return {
        "walls": [w for p in phases for w in p["walls"]],
        "latencies": [lat for p in phases for lat in p["latencies"]],
        "passes": sum(p["passes"] for p in phases),
    }


def _cache_info(fn) -> dict:
    return fn.cache_info()._asdict()


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _caches() -> dict:
    from spinorlab import algebra, m8

    return {
        "algebra.blade_cw": _cache_info(algebra._blade_cw),
        "algebra.dense_table": _cache_info(algebra.dense_table),
        "m8.gamma_blade": _cache_info(m8.gamma_blade),
    }


# -- the run ---------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, probes: int = PROBES, write: bool = True) -> dict:
    _import_library()
    from spans import FUNCTIONS, INSPECT_SPAN, LAYERS, OP_SPAN, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    warm_tracer = Tracer() if trace else None
    if warm_tracer:
        warm_tracer.install()
    try:
        for op in wl.warm_ops():
            op.run()
    finally:
        if warm_tracer:
            warm_tracer.uninstall()

    ops = wl.ops(seed, tiny)
    runner = Runner(ops)
    calib = [calibrate()]
    caches = {"before": _caches()}
    if trace:
        setup = probe_setup(workload, probes)
        # Untraced and traced stretches alternate, so both see the same host conditions.
        tracer = Tracer()
        untraced, timed = [], []
        for _ in range(TRACE_ROUNDS):
            untraced.append(runner.phase(seconds / (2 * TRACE_ROUNDS)))
            tracer.install()
            try:
                timed.append(runner.phase(seconds / (2 * TRACE_ROUNDS), tracer))
            finally:
                tracer.uninstall()
        untraced, timed = _merge(untraced), _merge(timed)
    else:
        # One set-up probe before each stretch, so the probes meet the same
        # host conditions as the timed passes.
        setup, stretches = [], []
        for _ in range(probes):
            setup += probe_setup(workload, 1)
            stretches.append(runner.phase(seconds / probes))
        timed = _merge(stretches)
    caches["after_timed"] = _caches()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib.append(calibrate())
    failed, failures = runner.check(workload, seed)
    caches["after_checks"] = _caches()

    attempted = sum(runner.execs)
    throughput = Runner.throughput(timed)
    samples = sum(len(lat) for lat in timed["latencies"])
    calib_ops = statistics.mean(calib)
    if trace:
        passes = timed["passes"]
        st = tracer.self_times()
        metrics = {}
        for name in FUNCTIONS:
            calls, self_s = st.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = (calls / passes, "count")
            metrics[f"{name}.self_s"] = (self_s / passes, "s")
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
        product_s = sum(st.get(f"algebra.{f}", (0, 0.0))[1] for f in ("geometric_product", "wedge"))
        in_ops = tracer.total(OP_SPAN)
        wall = sum(timed["walls"])
        bench_s = st.get(OP_SPAN, (0, 0.0))[1] + st.get(INSPECT_SPAN, (0, 0.0))[1] + wall - in_ops
        b, a = caches["before"], caches["after_timed"]
        metrics.update({
            "algebra.term_pairs": (tracer.term_pairs / passes, "count"),
            "algebra.pairs_per_s": (tracer.term_pairs / product_s if product_s else 0.0, "1/s"),
            "algebra.wedge.useful_frac": (
                tracer.wedge_useful / tracer.wedge_pairs if tracer.wedge_pairs else 0.0, "ratio"),
            "algebra.dense_table.build_s": (warm_tracer.total("algebra.dense_table"), "s"),
            "algebra.dense_table.hit_ratio": (
                _hit_ratio(b["algebra.dense_table"], a["algebra.dense_table"]), "ratio"),
            "m8.gamma_blade.hit_ratio": (_hit_ratio(b["m8.gamma_blade"], a["m8.gamma_blade"]), "ratio"),
            "algebra.blade_cw.hit_ratio": (
                _hit_ratio(a["algebra.blade_cw"], caches["after_checks"]["algebra.blade_cw"]), "ratio"),
            "cli.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
            "trace.overhead_frac": (1.0 - throughput / Runner.throughput(untraced), "ratio"),
            "trace.wall_s": (wall / passes, "s"),
            "bench.self_s": (bench_s / passes, "s"),
            "host.calib_ops": (calib_ops, "ops/s"),
        })
    else:
        metrics = {
            "throughput_ops": (throughput, "ops/s"),
            "latency_p50_ms": (float(np.percentile(Runner.op_latencies(timed), 50)) * 1e3, "ms"),
            "latency_p90_ms": (float(np.percentile(Runner.op_latencies(timed), 90)) * 1e3, "ms"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    result = {
        "workload": workload,
        "trace": int(trace),
        "input_digest": input_digest(ops),
        "ops_per_pass": len(ops),
        "passes": timed["passes"],
        "latency_samples": samples,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "setup_samples": setup,
        "caches": caches,
        "meta": metadata(seed, calib_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures,
    }
    if write:
        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
        stem.with_suffix(".json").write_text(json.dumps(result, indent=1, sort_keys=True))
        if trace:
            tracer.dump(stem.with_name(stem.name + "-spans.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={result['ops_per_pass']} passes={result['passes']} "
          f"latency samples={result['latency_samples']} digest={result['input_digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':40s} {result['fail_frac']:.6g} ratio ({result['failed']}/{result['attempted']})")
    for record in result["failures"][:5]:
        print("FAILED", json.dumps({k: record[k] for k in ("op", "kind", "reasons", "replay")}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
