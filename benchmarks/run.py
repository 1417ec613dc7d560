"""The qeswkb benchmark: one workload per run, checked, with metrics as JSON.

Usage (from the repository root):

    python3 benchmarks/run.py --workload spectra --seed 1 --seconds 12 --trace 0

The run imports ``qeswkb`` from ``src/`` of the checkout it sits in, makes
the workload's inputs from ``--seed``, and repeats whole blocks of passes
of the workload until ``--seconds`` have elapsed.  Every
pass starts with the program's function caches empty, as a fresh
``qeswkb`` process does.  After
the timed passes it checks every pass's output against references computed
apart from the program (``oracle.py``), and confirms that every check
rejects a result perturbed just beyond its tolerance (``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, prints every per-layer metric (``tracing.py``)
and the tracing overhead, and writes the spans of the first traced pass
to ``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# The BLAS thread count moves both the timings and the refit results, so
# it is fixed here, before NumPy is imported, for this process and the
# set-up processes it starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import functools
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time

import tracing
from tracing import LAYERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Set-ups in fresh processes before and after the timed passes; with the
# run's own set-up, setup_s is the median of 1 + 2 * SETUP_FRESH samples.
SETUP_FRESH = 2

DEPTHS = (0.0, 0.25, 0.5, 0.7)
LEVELS = 51
MORSE_A, MORSE_B, MORSE_ALPHA = 1.0, 8.0, math.sqrt(2.0)
MORSE_DEPTHS = (0, 1, 2, 3)
SCAN_POINTS = 20
CRITICAL_TOL = 1e-6
CRITICAL_PAPER = 0.73295
QES_DEPTHS = (1, 2, 3)
GAMMA_FIELDS = ("a0", "a1", "b1", "b2", "b3", "b4")


class Program:
    """The qeswkb modules of this checkout."""

    def __init__(self):
        import importlib

        if not os.path.isfile(os.path.join(SRC, "qeswkb", "__init__.py")):
            raise ImportError(f"no qeswkb package under {SRC}")
        sys.path.insert(0, SRC)
        for layer in ("errors",) + LAYERS:
            setattr(self, layer, importlib.import_module(f"qeswkb.{layer}"))
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"qeswkb was imported from {self.cli.__file__}, not from {SRC}")

    def clear_caches(self):
        for layer in LAYERS:
            for value in vars(getattr(self, layer)).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def mesh_builds(self):
        cached = getattr(self.eigensolver, "_hermite_data", None)
        return cached.cache_info().misses if hasattr(cached, "cache_info") else 0


# ---------------------------------------------------------------------------
# workloads: prepare(program, seed) -> inputs; operations(program, inputs)
# -> [(key, callable)], one pass; collect(key, value) -> result, outside the
# timer; checks(inputs, {key: result}) -> [Check]
#
# ``checks`` and ``oracle`` import NumPy and SciPy, so they are imported
# inside the functions that use them: set-up time then includes the
# program's own import of both.
# ---------------------------------------------------------------------------


class OperationFailed(Exception):
    """An operation that reported failure without raising a QeswkbError."""


class Workload:
    # Passes per block.  wall_s takes each operation's shortest time within
    # a block, and the block holds the same number of passes whatever the
    # program's speed, so that a faster program gets no more samples per
    # minimum.  Sized so that a run of 12 s holds one to sixteen blocks today.
    block = 3
    # A function of the seed whose result, computed in a separate process
    # before set-up, becomes inputs["reference"]; None if there is none.
    reference = None

    def collect(self, key, value):
        return value

    def files_written(self, out):
        """(files, bytes) that one pass's operations wrote."""
        return 0, 0


class Spectra(Workload):
    """51 lowest sextic levels at the paper's depths with their gamma, and
    the full bound Morse spectra with theirs."""

    def prepare(self, q, seed):
        morse = []
        for depth in MORSE_DEPTHS:
            beta = depth * MORSE_ALPHA + MORSE_B
            morse.append((depth, int(math.floor(beta / MORSE_ALPHA)) + 1))
        return {"morse": morse}

    def operations(self, q, inputs):
        def spectrum(spec, count, tol):
            energies = [float(e) for e in q.eigensolver.lowest_eigen(spec, count, tol=tol).energies]
            return energies, [q.wkb.gamma(spec, n, e).gamma for n, e in enumerate(energies)]

        ops = [(("sextic", d), lambda d=d: spectrum(q.potentials.SexticReduced(d), LEVELS, 1e-10)) for d in DEPTHS]
        ops += [(("morse", d), lambda d=d, k=k: spectrum(q.potentials.Morse(MORSE_A, MORSE_B, MORSE_ALPHA, float(d)), k, 1e-9))
                for d, k in inputs["morse"]]
        return ops

    def checks(self, inputs, out):
        import checks as c
        import oracle

        found = []
        for (family, depth), (energies, gammas) in sorted(out.items()):
            if family == "sextic":
                found.append(c.close(f"energies_sinc_dvr_N{depth}", energies, dvr(depth, LEVELS), 1e-8))
                ref = [oracle.sextic_gamma(depth, n, e) for n, e in enumerate(energies)]
                found.append(c.close(f"gamma_quad_N{depth}", gammas, ref, 1e-9, floor=1.0))
                for exact_depth, n, energy in oracle.exact_sextic_levels():
                    if exact_depth == depth:
                        found.append(c.close(f"exact_E{n}_N{depth}", energies[n], energy, 1e-10, floor=1.0))
            else:
                exact = oracle.morse_levels(MORSE_B, MORSE_ALPHA, depth, len(energies))
                found.append(c.close(f"morse_closed_form_N{depth}", energies, exact, 1e-8, floor=1.0))
                found.append(c.close(f"morse_gamma_zero_N{depth}", gammas, [0.0] * len(gammas), 1e-8, floor=1.0))
        return found


class DepthScan(Workload):
    """Ground energies on a seeded grid of depths in [0, 1], and the depth
    where the ground level crosses the barrier top."""

    def prepare(self, q, seed):
        import numpy as np

        # One point in each of SCAN_POINTS - 2 equal strata of (0, 1), kept
        # from the strata edges so that neighbours differ, plus both ends,
        # where E0 is known exactly.
        rng = np.random.default_rng(seed)
        strata = SCAN_POINTS - 2
        inner = (np.arange(strata) + rng.uniform(0.1, 0.9, strata)) / strata
        return {"depths": [0.0] + [float(x) for x in inner] + [1.0]}

    def operations(self, q, inputs):
        ops = [(d, lambda d=d: float(q.eigensolver.lowest_eigen(q.potentials.SexticReduced(d), 1).energies[0]))
               for d in inputs["depths"]]
        return ops + [("critical", lambda: float(q.eigensolver.critical_N(tol=CRITICAL_TOL)))]

    def checks(self, inputs, out):
        import checks as c
        import oracle

        depths = sorted(k for k in out if k != "critical")
        energies = [out[d] for d in depths]
        found = [
            c.close("E0_sinc_dvr", energies, [dvr(d, 1)[0] for d in depths], 1e-8, floor=1.0),
            c.strictly_decreasing("E0_decreasing_in_N", energies),
        ]
        for exact_depth, n, energy in oracle.exact_sextic_levels():
            if n == 0 and exact_depth in out:
                found.append(c.close(f"exact_E0_N{exact_depth}", out[exact_depth], energy, 1e-10, floor=1.0))
        if "critical" in out:
            found.append(c.root_bracketed("E0_sign_change_at_critical_N", out["critical"], CRITICAL_TOL,
                                          lambda d: dvr(d, 1)[0]))
            found.append(c.close("critical_N_paper", out["critical"], CRITICAL_PAPER, 2e-3 / CRITICAL_PAPER))
        return found


class Quantize(Workload):
    """Energies from the quantization rule corrected by the published gamma
    model, n = 3..50 at the paper's depths, and gamma at each result."""

    block = 15

    def prepare(self, q, seed):
        fm = q.fitmodels
        return {"targets": [(d, n, fm.gamma_fit_eval(fm.PUBLISHED_GAMMA[d], n))
                            for d in DEPTHS for n in range(3, LEVELS)]}

    def operations(self, q, inputs):
        def invert(depth, n, gamma0):
            spec = q.potentials.SexticReduced(depth)
            energy = q.wkb.bohr_sommerfeld_invert(spec, n, gamma0)
            return energy, q.wkb.gamma(spec, n, energy).gamma

        return [((d, n), lambda t=(d, n, g): invert(*t)) for d, n, g in inputs["targets"]]

    def checks(self, inputs, out):
        import checks as c

        keys = [(d, n) for d, n, _ in inputs["targets"] if (d, n) in out]
        gamma0 = {(d, n): g for d, n, g in inputs["targets"]}
        return [
            c.close("gamma_round_trip", [out[k][1] for k in keys], [gamma0[k] for k in keys], 1e-9, floor=1.0),
            c.close("energy_vs_sinc_dvr", [out[k][0] for k in keys], [dvr(d, LEVELS)[n] for d, n in keys], 1e-3),
        ]


class Refit(Workload):
    """The correction-model refits at the paper's depths on reference data."""

    block = 12

    @staticmethod
    def reference(seed):
        """(depth, levels, [(n, gamma_n)]) from ``oracle``, so the eigensolver
        does not run; computed in its own process, so that neither set-up
        time nor peak memory counts it."""
        import oracle

        data = []
        for depth in DEPTHS:
            energies = [float(e) for e in oracle.sinc_dvr_levels(depth, LEVELS)]
            data.append((depth, energies, [(n, oracle.sextic_gamma(depth, n, energies[n])) for n in range(3, LEVELS)]))
        return data

    def prepare(self, q, seed):
        return {}

    def operations(self, q, inputs):
        def refit(samples, depth):
            report = q.fitmodels.fit_gamma(samples, n_label=depth)
            return tuple(float(getattr(report.params, name)) for name in GAMMA_FIELDS)

        return [(d, lambda s=s, d=d: refit(s, d)) for d, _, s in inputs["reference"]]

    def checks(self, inputs, out):
        import checks as c
        import oracle

        found = []
        for depth, _, samples in inputs["reference"]:
            if depth in out:
                n = [k for k, _ in samples]
                found.append(c.close(f"refit_gamma_N{depth}", oracle.gamma_model(out[depth], n),
                                     [g for _, g in samples], 2e-3))
        return found


class Susy(Workload):
    """The ``qes`` and ``susy`` commands of ``qeswkb`` on the sextic well at
    integer depths: algebraic levels, and the partner well of the ground
    state with the intertwining residuals of the excited states."""

    block = 50

    def prepare(self, q, seed):
        return {"dir": os.path.join(OUT_DIR, f"susy-seed{seed}")}

    def operations(self, q, inputs):
        ops = []
        for depth in QES_DEPTHS:
            for command in ("qes", "susy"):
                target = os.path.join(inputs["dir"], f"{command}-N{depth}")
                argv = [command, "--family", "sextic_reduced", "--N", str(depth), "--out", target]
                ops.append(((command, depth), lambda argv=argv, target=target: (q.cli.main(argv), target)))
        return ops

    def collect(self, key, value):
        """The written tables, read back after the timer has stopped."""
        import numpy as np

        status, target = value
        if status != 0:
            raise OperationFailed(f"qeswkb {key[0]} exited with status {status}")
        sizes = [os.path.getsize(os.path.join(target, name)) for name in os.listdir(target)]
        found = {"files": len(sizes), "bytes": sum(sizes)}
        if key[0] == "qes":
            with open(os.path.join(target, "qes_report.txt")) as handle:
                found["energies"] = [float(line.split()[2]) for line in handle.read().splitlines()[1:]]
        else:
            found["table"] = np.loadtxt(os.path.join(target, "susy_partner.csv"), delimiter=",", skiprows=1)
            with open(os.path.join(target, "susy_report.txt")) as handle:
                rows = dict(line.split() for line in handle.read().splitlines()[1:])
            found["annihilation"] = float(rows.pop("annihilation_ratio"))
            found["residuals"] = [float(rows[f"intertwining_residual_state_{k}"]) for k in range(1, len(rows) + 1)]
        return found

    def files_written(self, out):
        return sum(v["files"] for v in out.values()), sum(v["bytes"] for v in out.values())

    def checks(self, inputs, out):
        import checks as c
        import oracle

        found = []
        for (command, depth), result in sorted(out.items()):
            if command == "qes":
                found.append(c.close(f"qes_levels_N{depth}", result["energies"], oracle.sextic_qes_levels(depth),
                                     1e-10, floor=1.0))
                for exact_depth, n, energy in oracle.exact_sextic_levels():
                    if exact_depth == depth:
                        found.append(c.close(f"exact_E{n}_N{depth}", result["energies"][n], energy, 1e-10, floor=1.0))
                continue
            x, v0, v1 = result["table"].T
            found += [
                c.close(f"susy_V0_N{depth}", v0, oracle.sextic_potential(depth, x), 1e-10, floor=1.0),
                c.close(f"susy_partner_N{depth}", v1, oracle.sextic_partner_potential(depth, x), 1e-10, floor=1.0),
                # The seed is annihilated, and each excited state maps onto a
                # solution of the partner well: both vanish in exact arithmetic.
                c.close(f"susy_annihilation_N{depth}", result["annihilation"], 0.0, 1e-10, floor=1.0),
                c.close(f"susy_intertwining_N{depth}", result["residuals"], [0.0] * depth, 1e-10, floor=1.0),
            ]
        return found


@functools.lru_cache(maxsize=None)
def dvr(depth, count):
    """Sinc-DVR levels, computed once per run for all passes' checks."""
    import oracle

    return oracle.sinc_dvr_levels(depth, count)


WORKLOADS = {
    "spectra": Spectra,
    "depth_scan": DepthScan,
    "quantize": Quantize,
    "refit": Refit,
    "susy": Susy,
}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def setup(workload, seed):
    """Import the program and make the inputs; returns (program, inputs, seconds)."""
    start = time.perf_counter()
    q = Program()
    inputs = workload.prepare(q, seed)
    return q, inputs, time.perf_counter() - start


def child(args, flag):
    """The JSON that this script prints when run with ``flag`` in a fresh process."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), flag]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_samples(args):
    """Set-up times of SETUP_FRESH fresh processes."""
    return [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_FRESH)]


def timed_passes(q, workload, inputs, seconds, tracer):
    """Whole blocks of passes until ``seconds`` have elapsed; each operation is timed.

    With a tracer, passes alternate untraced and traced, and a block holds
    ``workload.block`` passes of each; each pass records its spans and the
    mesh builds it caused.  A pass whose output equals an earlier pass's
    keeps the earlier object, so that memory does not grow with the number
    of passes.
    """
    passes = []
    distinct = {}
    block = workload.block * (2 if tracer is not None else 1)
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        q.clear_caches()
        ops = workload.operations(q, inputs)
        record = {"traced": traced, "out": {}, "wall": [], "cpu": [], "attempted": len(ops), "failed": 0}
        if traced:
            tracer.install()
        try:
            for key, op in ops:
                wall0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    value, error = op(), None
                except q.errors.QeswkbError as exc:
                    value, error = None, exc
                record["wall"].append(time.perf_counter() - wall0)
                record["cpu"].append(time.process_time() - cpu0)
                try:
                    if error is not None:
                        raise error
                    record["out"][key] = workload.collect(key, value)
                except (q.errors.QeswkbError, OperationFailed):
                    record["failed"] += 1
        finally:
            if traced:
                tracer.uninstall()
        record["out"] = distinct.setdefault(pickle.dumps(record["out"]), record["out"])
        record["mesh_builds"] = q.mesh_builds()
        record["spans"] = tracer.take() if traced else None
        passes.append(record)
        if len(passes) % block == 0 and time.perf_counter() >= deadline:
            return passes


def pass_time(passes, field, block):
    """Time of one pass: the median over blocks of ``block`` passes of the
    sum over the operations of each one's shortest time within the block.

    Other tenants of the machine slow it down by up to a factor of two for
    seconds at a time; they only ever add time, and the shortest of a few
    timings of one operation repeats far better than a single pass.  The
    block is of fixed size, so a faster program gets no more samples per
    minimum than a slower one.  Blocks are interleaved (every n-th pass of
    n blocks), so that each spans the whole run and a slow period shorter
    than the run does not make a block slow.
    """
    count = len(passes) // block
    return statistics.median(sum(min(times) for times in zip(*(p[field] for p in passes[j::count])))
                             for j in range(count))


def check_passes(workload, inputs, passes):
    """Checks every pass's output; equal outputs are one object and are
    checked once."""
    import checks

    ok, failures, count, verdicts = True, [], 0, {}
    for index, record in enumerate(passes):
        if id(record["out"]) not in verdicts:
            found = workload.checks(inputs, record["out"])
            verdicts[id(record["out"])] = (len(found),) + checks.evaluate(found)
        size, good, why = verdicts[id(record["out"])]
        count += size
        ok = ok and good
        failures.extend(f"pass {index}: {line}" for line in why)
    return ok, count, failures


def layer_table(workload, passes, args):
    """Per-layer metrics averaged over the traced passes, plus the overhead."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    table = {}
    for record in traced:
        found = tracing.layer_metrics(record["spans"], record["mesh_builds"])
        files, size = workload.files_written(record["out"])
        found["cli.files_written"] = (files, "count")
        found["cli.bytes_written"] = (size, "bytes")
        for name, (value, unit) in found.items():
            total, _ = table.get(name, (0, unit))
            table[name] = (total + value, unit)
    table = {name: (total / len(traced), unit) for name, (total, unit) in table.items()}
    base = pass_time(plain, "wall", workload.block)
    table["trace.overhead_pct"] = (100.0 * (pass_time(traced, "wall", workload.block) - base) / base, "%")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace.json")
    t0 = traced[0]["spans"][0][3] if traced[0]["spans"] else 0.0
    with open(path, "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "traced_passes": len(traced),
            "untraced_passes": len(plain), "blas_threads": BLAS_THREADS,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in table.items()},
            "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start_s": s[3] - t0, "end_s": s[4] - t0,
                       "thread": s[5], **(s[6] or {})} for s in traced[0]["spans"]],
        }, handle)
    return table, path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()

    if args.reference_only:
        print(json.dumps(workload.reference(args.seed)))
        return 0
    if not os.path.isfile(os.path.join(SRC, "qeswkb", "__init__.py")):
        print(f"cannot load the program: no qeswkb package under {SRC}", file=sys.stderr)
        return 2
    reference = child(args, "--reference-only") if workload.reference is not None else None
    setup_all = setup_samples(args) if not (args.trace or args.setup_only) else []
    try:
        q, inputs, setup_s = setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if reference is not None:
        inputs["reference"] = reference

    tracer = tracing.Tracer("qeswkb") if args.trace else None
    passes = timed_passes(q, workload, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup_all += [setup_s] + setup_samples(args)
    correct, check_count, failures = check_passes(workload, inputs, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    untraced = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, {attempted} operations, "
          f"{failed} failed; {check_count} checks, each also run on a perturbed result; "
          f"BLAS threads {BLAS_THREADS}")
    for line in failures:
        print("CHECK FAILED " + line, file=sys.stderr)
    if args.trace:
        table, path = layer_table(workload, passes, args)
        for name, (value, unit) in table.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        print(f"  spans of the first traced pass: {os.path.relpath(path, ROOT)}")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            reported = [m["name"] for m in json.load(handle)["per_layer"]]
        metrics = {name: {"value": table[name][0], "unit": table[name][1]} for name in reported}
    else:
        metrics = {
            "wall_s": {"value": pass_time(untraced, "wall", workload.block), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_all), "unit": "s"},
        }
        single = sorted(sum(p["wall"]) for p in untraced)
        print(f"  single passes, wall s: shortest {single[0]:.4f}, median {statistics.median(single):.4f}, "
              f"longest {single[-1]:.4f}")
        print("  set-ups, s: " + " ".join(f"{t:.4f}" for t in setup_all))
        print(f"  cpu_s (as wall_s, with CPU time): {pass_time(untraced, 'cpu', workload.block):.4f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
