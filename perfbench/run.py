"""The sixbeam benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` (nothing is installed).  Every op drives the ``sixbeam`` CLI with
seeded argv and writes into a scratch directory under ``.perfbench/`` in the
checkout, which is removed at exit.  Each op's files are checked against an
independent reference (see ``checks.py``); an op that raises, exits nonzero
or fails its check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice, untraced and then traced, and prints the per-layer metrics from the
spans (kept in ``.perfbench/spans-WORKLOAD-SEED.json``) plus the tracing
overhead; an untraced run keeps each call's time and the gauge samples in
``.perfbench/calls-WORKLOAD-SEED.json``.  The two lines before the result hold the environment and the
details: tail percentile and its sample count, raw (unscaled) times, the
worst error, failures, layers not exercised.

Times are scaled to the reference machine's speed by a gauge kernel timed
just before each op (see ``calibrate.py``); the machine is shared and its
speed moves in bursts.

OpenBLAS runs single-threaded in this process and every child: on the
2-core reference machine, two threads stalled ~1 in 4 small LU solves for
~140 ms and made cold CLI runs slower, while one thread showed no stalls.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

import checks  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

SETUP_REPEATS = 5
PROBE_REPEATS = 3
CHILD_TIMEOUT_S = 150
CLI_MAIN = "import sys; from sixbeam.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_CODE = ("import sys, sixbeam.cli\n"
              "if len(sys.argv) > 1:\n"
              "    sys.exit(sixbeam.cli.main(sys.argv[1:]))\n")

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_digits": "digits",
}

# Per-layer values are per CLI call (``.ms`` is the layer's time per call),
# over the traced calls of a run.
PER_LAYER = {
    "eigenbasis.build_basis.ms": "ms",
    "eigenbasis.psi_block.ms": "ms",
    "eigenbasis.psi_block.calls_per_op": "count",
    "coefficients.operator_matrix.second_derivative.even.ms": "ms",
    "coefficients.operator_matrix.second_derivative.odd.ms": "ms",
    "coefficients.operator_matrix.fourth_derivative.even.ms": "ms",
    "coefficients.operator_matrix.fourth_derivative.odd.ms": "ms",
    "coefficients.operator_matrix.calls_per_op": "count",
    "coefficients.synthesize.ms": "ms",
    "coefficients.synthesize.calls_per_op": "count",
    "coefficients.chi_vector.ms": "ms",
    "galerkin.solve_steady.self_ms": "ms",
    "galerkin.ldlt_factor.ms": "ms",
    "galerkin.ldlt_factor.calls_per_op": "count",
    "galerkin.fallbacks_per_op": "count",
    "galerkin.ldlt_accept_ratio": "1",
    "galerkin.assemble_semi_discrete.ms": "ms",
    "galerkin.evolve.ms_per_step": "ms",
    "galerkin.evolve.states_returned": "count",
    "oracle.quadrature_tables.ms": "ms",
    "oracle.entries_checked": "count",
    "oracle.entries_failed": "count",
    "cli.interpreter.ms": "ms",
    "cli.import.numpy.ms": "ms",
    "cli.import.scipy.ms": "ms",
    "cli.import.sixbeam.ms": "ms",
    "cli.solve.self_ms": "ms",
    "cli.evolve.self_ms": "ms",
    "cli.verify.self_ms": "ms",
    "cli.eigenvalues.self_ms": "ms",
    "cli.bytes_written_per_op": "B",
    "trace.overhead_frac": "1",
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                found[os.path.basename(lib)] = getattr(handle, fn)()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, env: dict):
    """Run a fresh interpreter; (exit code, seconds, stderr, maxrss MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stderr.close()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, err.decode(errors="replace"), usage.ru_maxrss / 1024.0


def _drop_warning(*args, **kwargs):
    pass


def run_in_process(cli, argv: list, tracer: Tracer | None):
    """Call ``cli.main``; (exit code or exception text, seconds)."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = tracer.on_warning if tracer else _drop_warning
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
    return rc, elapsed


def clear_outputs(stem: str) -> None:
    for path in glob.glob(glob.escape(stem) + ".*"):
        os.remove(path)


def bytes_written(stem: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(glob.escape(stem) + ".*"))


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------

class References:
    """Untimed reference values that need the library (or are cached)."""

    def __init__(self):
        self._bases: dict = {}
        self._lams: dict = {}

    def steady_samples(self, op) -> dict:
        """u at the trajectory's sample points from ``solve_steady`` of the
        spec the evolution converges to: (a6=1, a4=-T, a2=B, a0=reaction)."""
        from sixbeam import coefficients, galerkin
        from sixbeam.eigenbasis import build_basis
        c = op.check
        model = galerkin.MODEL_II
        spec = galerkin.BvpSpec(
            a6=1.0, a4=-c["T"], a2=model.a2 if c["B"] is None else c["B"],
            a0=model.a0 if c["reaction"] is None else c["reaction"],
            forcing=model.forcing)
        M = c["M"]
        if M not in self._bases:
            self._bases[M] = build_basis(M)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = galerkin.solve_steady(spec, self._bases[M])
        xs = (-0.5, 0.0, 0.5)
        return {f"u_at_{x:g}": float(v)
                for x, v in zip(xs, coefficients.synthesize(sol, list(xs)))}

    def eigenvalue(self, parity: str, m: int) -> float:
        if (parity, m) not in self._lams:
            self._lams[parity, m] = checks.eigenvalue(parity, m)
        return self._lams[parity, m]


def check_op(op, stem: str, rc, refs: References) -> dict:
    """{'ok', 'error' (absolute solution error, or None), 'note', ...}."""
    try:
        if op.kind == "verify":
            ok, entries, failed = checks.check_verify(stem + ".report.csv", rc)
            return {"ok": ok, "error": None, "entries": entries,
                    "entries_failed": failed, "note": "" if ok else f"exit {rc}, {failed} failed"}
        if rc != 0:
            return {"ok": False, "error": None, "note": f"exit {rc}"}
        tol = op.check["tol"]
        if op.kind == "solve":
            ok, err, note = checks.check_solution(stem + ".solution.csv", tol)
        elif op.kind == "evolve-steady":
            ok, err, note = checks.check_evolve_steady(
                stem + ".trajectory.csv", refs.steady_samples(op), tol)
        elif op.kind == "evolve-decay":
            c = op.check
            z = -c["dt"] * refs.eigenvalue(c["parity"], c["m"]) ** 6
            ok, _, note = checks.check_evolve_decay(
                stem + ".trajectory.csv", c["column"], c["amp"], z, c["theta"], tol)
            err = None   # a relative error; kept out of the absolute max
        else:
            ok, _, note = checks.check_eigenvalues(stem + ".table.csv", tol)
            err = None
        return {"ok": ok, "error": err, "note": note}
    except (OSError, ValueError, IndexError, KeyError, StopIteration,
            ArithmeticError) as exc:
        return {"ok": False, "error": None, "note": f"check raised {exc!r}"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list):
    """Highest percentile with >= 10 samples above it: (value, pct, beyond)."""
    s = sorted(values)
    idx = max(len(s) - 11, 0)
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


def measure_setup(workload, env: dict, work: Path, cold) -> list:
    """Fresh interpreter -> ``import sixbeam.cli`` -> warm-up op, repeated;
    scaled by the cold-start gauge."""
    measured = []
    for i in range(SETUP_REPEATS):
        k = cold.sample()
        argv = ["-c", SETUP_CODE]
        if workload.warmup:
            argv += workload.warmup + ["--out", str(work / f"setup{i}")]
        rc, elapsed, err, _ = run_child(argv, env)
        if rc != 0:
            raise RuntimeError(f"set-up run failed with exit {rc}: {err.strip()[-500:]}")
        measured.append((elapsed, k))
    cold.sample()
    return [elapsed * cold.factor(k) for elapsed, k in measured]


def import_probes(env: dict, cold) -> dict:
    """Bare interpreter start and per-package import self time (-X importtime),
    scaled like set-up times."""
    samples = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        k = cold.sample()
        elapsed = run_child(["-c", "pass"], env)[1]
        samples["cli.interpreter.ms"].append((1e3 * elapsed, k))
        k = cold.sample()
        _, _, err, _ = run_child(["-X", "importtime", "-c", "import sixbeam.cli"], env)
        totals = defaultdict(float)
        for line in err.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue   # the column header line
            totals[parts[2].strip().split(".")[0]] += self_us
        for pkg in ("numpy", "scipy", "sixbeam"):
            samples[f"cli.import.{pkg}.ms"].append((totals[pkg] / 1e3, k))
    cold.sample()
    return {key: statistics.median(ms * cold.factor(k) for ms, k in vals)
            for key, vals in samples.items()}


def layer_metrics(spans: list, warns: list, n_ops: int, extra: dict) -> tuple:
    """Per-layer metrics from traced spans; also the names never exercised."""
    own = self_times(spans)
    calls, total, selfsum = defaultdict(int), defaultdict(float), defaultdict(float)
    children = defaultdict(set)
    for i, s in enumerate(spans):
        name = s[0]
        if name == "coefficients.operator_matrix" and s[5]:
            label = f"{name}.{s[5]['label']}"
            calls[label] += 1
            total[label] += s[2] - s[1]
        calls[name] += 1
        total[name] += s[2] - s[1]
        selfsum[name] += own[i]
        if s[3] is not None:
            children[s[3]].add(name)
    per_op = max(n_ops, 1)
    m, missing = {}, []

    def put(metric, value, used):
        m[metric] = value
        if not used:
            missing.append(metric)

    def ms(metric, name):
        put(metric, 1e3 * total[name] / per_op, calls[name] > 0)

    def self_ms(metric, name):
        put(metric, 1e3 * selfsum[name] / per_op, calls[name] > 0)

    def count(metric, name):
        put(metric, calls[name] / per_op, calls[name] > 0)

    ms("eigenbasis.build_basis.ms", "eigenbasis.build_basis")
    ms("eigenbasis.psi_block.ms", "eigenbasis.psi_block")
    count("eigenbasis.psi_block.calls_per_op", "eigenbasis.psi_block")
    for kind in ("second_derivative", "fourth_derivative"):
        for parity in ("even", "odd"):
            ms(f"coefficients.operator_matrix.{kind}.{parity}.ms",
               f"coefficients.operator_matrix.{kind}.{parity}")
    count("coefficients.operator_matrix.calls_per_op", "coefficients.operator_matrix")
    ms("coefficients.synthesize.ms", "coefficients.synthesize")
    count("coefficients.synthesize.calls_per_op", "coefficients.synthesize")
    ms("coefficients.chi_vector.ms", "coefficients.chi_vector")
    self_ms("galerkin.solve_steady.self_ms", "galerkin.solve_steady")
    ms("galerkin.ldlt_factor.ms", "galerkin.ldlt_factor")
    count("galerkin.ldlt_factor.calls_per_op", "galerkin.ldlt_factor")

    runtime_warns = [w for w in warns if w[2] == "RuntimeWarning"]
    put("galerkin.fallbacks_per_op", len(runtime_warns) / per_op,
        calls["galerkin.solve_steady"] > 0)
    warned = {w[1] for w in runtime_warns}
    attempts = [i for i, s in enumerate(spans) if s[0] == "galerkin.solve_steady"
                and "galerkin.ldlt_factor" in children[i]]
    accepted = sum(1 for i in attempts if i not in warned)
    put("galerkin.ldlt_accept_ratio", accepted / len(attempts) if attempts else 0.0,
        bool(attempts))

    ms("galerkin.assemble_semi_discrete.ms", "galerkin.assemble_semi_discrete")
    states = [s[5]["states"] for s in spans if s[0] == "galerkin.evolve" and s[5]]
    steps = sum(states) - len(states)
    put("galerkin.evolve.ms_per_step",
        1e3 * total["galerkin.evolve"] / steps if steps > 0 else 0.0, steps > 0)
    put("galerkin.evolve.states_returned",
        sum(states) / len(states) if states else 0.0, bool(states))

    ms("oracle.quadrature_tables.ms", "oracle.quadrature_tables")
    verify_ops = extra["verify_ops"]
    put("oracle.entries_checked",
        extra["entries"] / verify_ops if verify_ops else 0.0, verify_ops > 0)
    put("oracle.entries_failed", extra["entries_failed"], verify_ops > 0)

    for key, value in extra["imports"].items():
        put(key, value, True)
    for cmd in ("solve", "evolve", "verify", "eigenvalues"):
        self_ms(f"cli.{cmd}.self_ms", f"cli.cmd_{cmd}")
    put("cli.bytes_written_per_op", extra["bytes"] / per_op, True)
    put("trace.overhead_frac", extra["overhead"], True)
    return m, missing


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def run(args) -> int:
    workload = WORKLOADS[args.workload]
    env = child_env()
    work = SCRATCH / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, workload, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload, env: dict, work: Path) -> int:
    from calibrate import Gauge
    cold = Gauge("cold-start", env)
    setup_times = measure_setup(workload, env, work, cold)
    gauge = cold if workload.gauge == "cold-start" else Gauge(workload.gauge, env)
    sys.path.insert(0, str(SRC))
    import sixbeam.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "sixbeam").resolve():
        raise RuntimeError(f"imported sixbeam from {cli.__file__}, not {SRC}")
    tracer = None
    if args.trace and workload.in_process:
        tracer = Tracer()
        tracer.install()
    if workload.warmup:
        run_in_process(cli, workload.warmup + ["--out", str(work / "warmup")], None)
    refs = References()

    # Each untraced call: (op index, seconds, gauge sample just before it, argv).
    # A batch workload's op is the whole round.
    calls, errors, failures = [], [], []
    plain_s = traced_s = 0.0
    extra = {"verify_ops": 0, "entries": 0, "entries_failed": 0, "bytes": 0}
    merged_spans, merged_warns = [], []
    peak_child_mb = 0.0
    attempted = traced_ops = rounds_done = 0
    stem = str(work / "op")
    start = time.perf_counter()
    for rnd in rounds(args.workload, args.seed):
        for op in rnd:
            k = gauge.sample()
            for traced in ((False, True) if args.trace else (False,)):
                clear_outputs(stem)
                argv = op.argv + ["--out", stem]
                if workload.in_process:
                    if traced:
                        tracer.op = traced_ops
                    rc, elapsed = run_in_process(cli, argv, tracer if traced else None)
                elif traced:
                    spans_path = work / "spans.json"
                    spans_path.unlink(missing_ok=True)
                    rc, elapsed, _, _ = run_child(
                        [str(HERE / "child.py"), str(spans_path)] + argv, env)
                    doc = (json.loads(spans_path.read_text(encoding="utf-8"))
                           if spans_path.exists() else {"spans": [], "warnings": []})
                    base = len(merged_spans)
                    for s in doc["spans"]:
                        merged_spans.append([s[0], s[1], s[2],
                                             None if s[3] is None else s[3] + base,
                                             traced_ops, s[5]])
                    for w in doc["warnings"]:
                        merged_warns.append([traced_ops, None if w[1] is None else w[1] + base,
                                             w[2], w[3]])
                else:
                    rc, elapsed, _, rss = run_child(["-c", CLI_MAIN] + argv, env)
                    peak_child_mb = max(peak_child_mb, rss)
                attempted += 1
                result = check_op(op, stem, rc, refs)
                if not result["ok"]:
                    failures.append(f"{' '.join(op.argv)[:160]}: {result['note']}")
                if traced:
                    traced_s += elapsed
                    traced_ops += 1
                    extra["bytes"] += bytes_written(stem)
                    if op.kind == "verify":
                        extra["verify_ops"] += 1
                        extra["entries"] += result.get("entries", 0)
                        extra["entries_failed"] += result.get("entries_failed", 0)
                    continue
                plain_s += elapsed
                calls.append((rounds_done if workload.batch else len(calls), elapsed, k,
                              " ".join(op.argv[:2])))
                if result["error"] is not None:
                    errors.append(result["error"])
        rounds_done += 1
        # min_rounds only serves the tail percentile, which traced runs omit.
        if time.perf_counter() - start >= args.seconds and (
                args.trace or rounds_done >= workload.min_rounds):
            break
    wall = time.perf_counter() - start
    gauge.sample()
    latencies, raw = defaultdict(float), defaultdict(float)
    for key, elapsed, k, _ in calls:
        latencies[key] += elapsed * gauge.factor(k)
        raw[key] += elapsed
    latencies, raw = list(latencies.values()), list(raw.values())
    factor = statistics.median(gauge.factor(k) for _, _, k, _ in calls)

    env_record = environment()
    ms = [1e3 * t for t in latencies]
    tail_ms, tail_pct, beyond = tail(ms)
    max_error = max(errors) if errors else 0.0
    detail = {"workload": args.workload, "seed": args.seed, "rounds": rounds_done,
              "ops": len(ms), "calls": attempted, "measured_s": wall, "gauge": workload.gauge,
              "speed_factor.median": factor,
              "op_ms.tail.percentile": tail_pct, "op_ms.tail.samples_beyond": beyond,
              "raw.op_ms.p50": 1e3 * statistics.median(raw),
              "raw.op_ms.tail": 1e3 * tail(raw)[0],
              "max_error": max_error, "setup_s.samples": setup_times,
              "failures": failures[:10]}
    if args.trace:
        if tracer is not None:
            merged_spans, merged_warns = tracer.spans, tracer.warnings
        extra["imports"] = import_probes(env, cold)
        extra["overhead"] = (traced_s - plain_s) / plain_s
        metrics, missing = layer_metrics(merged_spans, merged_warns, traced_ops, extra)
        for key, unit in PER_LAYER.items():
            if unit == "ms" and key not in extra["imports"]:
                metrics[key] *= factor
        detail["not_exercised"] = missing
        spans_out = SCRATCH / f"spans-{args.workload}-{args.seed}.json"
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": merged_spans, "warnings": merged_warns}, fh)
        units = PER_LAYER
    else:
        import resource
        rss_mb = (peak_child_mb if not workload.in_process
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_ms.p50": statistics.median(ms),
            "op_ms.tail": tail_ms,
            "ops_per_s": len(ms) / sum(latencies),
            "peak_rss_mb": rss_mb,
            # -log10 of the worst absolute solution error: rounding-level
            # errors scatter by 2-3x between seeds, their digits do not.
            "error_digits": -math.log10(max(max_error, 1e-17)),
        }
        units = END_TO_END
        with open(SCRATCH / f"calls-{args.workload}-{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"calls": calls, "gauge": gauge.samples}, fh)
    print(json.dumps({"env": env_record}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sixbeam" / "cli.py").is_file():
        print(f"error: no sixbeam sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
