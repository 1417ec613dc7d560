"""Spans around the calls into each qeswkb layer, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules,
and the SciPy entry points as the modules import them, by a wrapper that
records a span: name, start, end, parent span and thread.  The
replacement is made on every module attribute that holds the original
function, so calls between modules (``cli`` calling ``lowest_eigen``,
``wkb`` calling ``evaluate``) are seen as well.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.

Spans are kept in memory for one pass; ``layer_metrics`` turns them into
the per-layer figures.
"""

import inspect
import itertools
import sys
import threading
import time

LAYERS = ("potentials", "eigensolver", "wkb", "qes_algebra", "fitmodels", "cli")

# (module, attribute, span name) of the SciPy entry points, which are not
# public functions of the module that imports them.
EXTRA = (
    ("eigensolver", "eigh", "eigensolver.eigh"),
    ("fitmodels", "least_squares", "fitmodels.least_squares"),
)


def _size(value):
    shape = getattr(value, "shape", None)
    if shape is None:
        return 1
    count = 1
    for extent in shape:
        count *= int(extent)
    return count


def _annotate(name, args, kwargs, result):
    """Work counts a span carries, read from its arguments and result."""
    if name == "eigensolver.eigh":
        return {"M": int(args[0].shape[0])}
    if name == "potentials.evaluate":
        return {"points": _size(args[1] if len(args) > 1 else kwargs["x"])}
    if name == "eigensolver.oscillator_mesh":
        return {"M": int(args[0])}
    if result is None:
        return None
    if name == "fitmodels.least_squares":
        return {"nfev": int(result.nfev)}
    if name == "fitmodels.fit_gamma":
        return {"winner_nfev": int(result.iterations)}
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = _annotate(name, args, kwargs, result)
                tracer.spans.append((span_id, parent, name, start, end, threading.get_ident(), attrs))

        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(original function, span name) for every function to wrap."""
        found = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == module.__name__:
                    found[value] = f"{layer}.{attr}"
        for layer, attr, name in EXTRA:
            value = getattr(sys.modules[f"{self.package}.{layer}"], attr, None)
            if value is not None:
                found[value] = name
        return found

    def install(self):
        targets = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        modules = [sys.modules[self.package]] + [sys.modules[f"{self.package}.{layer}"] for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:
                    continue
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def take(self):
        """The spans recorded since the last call, and forget them."""
        spans, self.spans = self.spans, []
        return spans


def _union_length(intervals):
    total = 0.0
    end = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Aggregate:
    """Per-name totals over the spans of one pass.

    A name's time sums only its outermost spans, so a function that calls
    itself through another layer is not counted twice.  Self time is a
    span's duration minus the union of its children's intervals.
    """

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)
        self.calls = {}
        self.seconds = {}
        self.self_seconds = {}
        self.attrs = {}
        for s in spans:
            span_id, parent, name, start, end, _, attrs = s
            self.calls[name] = self.calls.get(name, 0) + 1
            if not self.has_ancestor(s, lambda a, n=name: a[2] == n):
                self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
            kids = [(c[3], c[4]) for c in self.children.get(span_id, ())]
            own = (end - start) - _union_length(kids)
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            for key, value in (attrs or {}).items():
                bucket = self.attrs.setdefault(name, {}).setdefault(key, [])
                bucket.append((s, value))

    def has_ancestor(self, span, test):
        parent = self.by_id.get(span[1])
        while parent is not None:
            if test(parent):
                return True
            parent = self.by_id.get(parent[1])
        return False

    def count(self, name, test=None):
        if test is None:
            return self.calls.get(name, 0)
        return sum(1 for s in self.by_id.values() if s[2] == name and test(s))

    def values(self, name, key, test=None):
        return [v for s, v in self.attrs.get(name, {}).get(key, []) if test is None or test(s)]


def layer_metrics(spans, mesh_builds):
    """Every named per-layer figure of one pass, as {name: (value, unit)}."""
    agg = Aggregate(spans)
    sec = lambda name: agg.seconds.get(name, 0.0)
    under = lambda parent: (lambda s: agg.has_ancestor(s, lambda a: a[2] == parent))
    eigh_m = agg.values("eigensolver.eigh", "M")
    spectra = agg.count("eigensolver.lowest_eigen")
    mesh_sizes = len(set(agg.values("eigensolver.oscillator_mesh", "M")))
    inverts = agg.count("wkb.bohr_sommerfeld_invert")
    fits = agg.count("fitmodels.least_squares")
    nfev = sum(agg.values("fitmodels.least_squares", "nfev"))
    winner = sum(agg.values("fitmodels.fit_gamma", "winner_nfev"))
    ratio = lambda top, bottom: top / bottom if bottom else 0.0
    return {
        "eigensolver.lowest_eigen.calls": (spectra, "count"),
        "eigensolver.lowest_eigen.self_s": (agg.self_seconds.get("eigensolver.lowest_eigen", 0.0), "s"),
        "eigensolver.eigh.calls": (len(eigh_m), "count"),
        "eigensolver.eigh.s": (sec("eigensolver.eigh"), "s"),
        "eigensolver.eigh.gflop_computed": (sum(4.0 / 3.0 * m**3 for m in eigh_m) / 1e9, "GFLOP"),
        "eigensolver.eigh.matrix_mb_computed": (sum(8.0 * m * m for m in eigh_m) / 1e6, "MB"),
        "eigensolver.eigh_per_spectrum": (
            ratio(agg.count("eigensolver.eigh", under("eigensolver.lowest_eigen")), spectra), "count"),
        "eigensolver.build_hamiltonian.calls": (agg.count("eigensolver.build_hamiltonian"), "count"),
        "eigensolver.build_hamiltonian.s": (sec("eigensolver.build_hamiltonian"), "s"),
        "eigensolver.oscillator_mesh.s": (sec("eigensolver.oscillator_mesh"), "s"),
        "eigensolver.mesh_builds": (mesh_builds, "count"),
        "eigensolver.mesh_sizes": (mesh_sizes, "count"),
        "eigensolver.mesh_build_useful_ratio": (ratio(mesh_sizes, mesh_builds), "ratio"),
        "eigensolver.critical_N.s": (sec("eigensolver.critical_N"), "s"),
        "wkb.action.calls": (agg.count("wkb.action"), "count"),
        "wkb.action.s": (sec("wkb.action"), "s"),
        "wkb.quadrature_nodes": (sum(agg.values("potentials.evaluate", "points", under("wkb.action"))), "count"),
        "wkb.action_per_invert": (
            ratio(agg.count("wkb.action", under("wkb.bohr_sommerfeld_invert")), inverts), "count"),
        "wkb.bohr_sommerfeld_invert.s": (sec("wkb.bohr_sommerfeld_invert"), "s"),
        "wkb.gamma.s": (sec("wkb.gamma"), "s"),
        "wkb.turning_points.s": (sec("wkb.turning_points"), "s"),
        "fitmodels.fit_gamma.s": (sec("fitmodels.fit_gamma"), "s"),
        "fitmodels.least_squares.calls": (fits, "count"),
        "fitmodels.least_squares.s": (sec("fitmodels.least_squares"), "s"),
        "fitmodels.nfev": (nfev, "count"),
        "fitmodels.nfev_per_start": (ratio(nfev, fits), "count"),
        "fitmodels.winner_nfev_share": (ratio(winner, nfev), "ratio"),
        "qes_algebra.qes_states.s": (sec("qes_algebra.qes_states"), "s"),
        "qes_algebra.darboux.calls": (agg.count("qes_algebra.darboux"), "count"),
        "qes_algebra.intertwining_residual.s": (sec("qes_algebra.intertwining_residual"), "s"),
        "potentials.evaluate.points": (
            sum(agg.values("potentials.evaluate", "points", lambda s: not under("potentials.evaluate")(s))), "count"),
        "potentials.evaluate.s": (sec("potentials.evaluate"), "s"),
        "cli.self_s": (sum(v for k, v in agg.self_seconds.items() if k.startswith("cli.")), "s"),
    }
