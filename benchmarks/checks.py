"""Correctness checks of the benchmark, each with a perturbation it must reject.

A check holds a value taken from the program's output and a measure of
how far that value lies from what it must be, in units of the check's
tolerance: it passes when the measure is at most 1.  ``perturb`` moves the
value just beyond the tolerance.  The self-test applies every check to
its perturbed value and fails the run if the check still passes, so that
a check which cannot fail is caught.
"""

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


@dataclass
class Check:
    name: str
    value: Any
    measure: Callable[[Any], float]
    perturb: Callable[[Any], Any]

    def deviation(self):
        return self.measure(self.value)

    def passes(self):
        return self.deviation() <= 1.0

    def rejects_perturbed(self):
        return not self.measure(self.perturb(self.value)) <= 1.0


def close(name, got, ref, tol, floor=0.0):
    """|got - ref| <= tol * max(floor, |ref|), element by element."""
    ref = np.atleast_1d(np.asarray(ref, dtype=float))
    scale = tol * np.maximum(floor, np.abs(ref))

    def measure(values):
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != ref.shape or not np.all(np.isfinite(values)):
            return math.inf
        return float(np.max(np.abs(values - ref) / scale))

    def perturb(values):
        out = np.array(values, dtype=float, ndmin=1)
        out[0] = ref[0] + 1.01 * scale[0]
        return out

    return Check(name, np.asarray(got, dtype=float), measure, perturb)


def strictly_decreasing(name, values):
    def measure(v):
        return 0.0 if np.all(np.diff(v) < 0.0) else math.inf

    def perturb(v):
        out = np.array(v, dtype=float)
        out[1] = out[0]
        return out

    return Check(name, np.asarray(values, dtype=float), measure, perturb)


def root_bracketed(name, root, tol, func):
    """func changes sign from positive to negative across root -/+ tol.

    The perturbation moves the root by 2.01 tol, so that both points lie
    on one side of a sign change that the reported root brackets within
    tol / 2.
    """

    def measure(x):
        return 0.0 if func(x - tol) > 0.0 > func(x + tol) else math.inf

    return Check(name, float(root), measure, lambda x: x + 2.01 * tol)


def evaluate(checks):
    """(every check passes and rejects its perturbation, failure messages)."""
    failures = []
    for check in checks:
        if not check.passes():
            failures.append(f"{check.name}: deviation {check.deviation():.3g} x tolerance")
        if not check.rejects_perturbed():
            failures.append(f"{check.name}: accepts a result perturbed beyond its tolerance")
    return not failures, failures
