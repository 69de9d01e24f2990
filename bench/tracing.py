"""Span tracing of sic_forge's public functions, installed from outside the package.

``Tracer.install`` replaces every module-level binding of the traced functions
in every loaded ``sic_forge`` module with a wrapper.  The modules import each
other's names (``from .verify import quartic_defects``), so ``search.quartic_defects``
and ``verify.quartic_defects`` are separate bindings and both are replaced;
calls between layers therefore pass through the wrappers too.

A wrapper records a span only while an operation is open (``Tracer.op``), so
the benchmark's own output checks, which call the same functions, are not
counted.  Spans stay in memory as ``(name, start, end, parent, op)`` tuples
and are written out once, at the end.  Parents come from one call stack, so
traced calls must run on one thread.  They do unless SIC_FORGE_THREADS asks
the search for a thread pool, and the traced run refuses to start then.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# Layer -> public functions whose calls and self time the traced run reports.
TRACED = {
    "wh": ("as_state_vector", "displace_state"),
    "verify": ("quartic_defects", "gram_residual", "quartic_residual", "build_sic_set"),
    "search": ("search_detailed", "objective", "objective_gradient"),
    "operator_space": ("operator_set", "kt_measure", "frame_potential", "quasi_onb_certify"),
    "geometry": (
        "sic_probabilities",
        "reconstruct_density",
        "structure_coefficients",
        "purity_quadratic_residual",
        "purity_cubic_residual",
    ),
    "mubs": ("build_mubs", "unbiasedness_residual", "uncertainty_profile", "is_minimum_uncertainty"),
    "files": ("write_json_atomic", "load_fiducial"),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)

COUNTERS = (
    "search.restarts",
    "search.restarts_certified",
    "search.iterations",
    "operator_space.projector_bytes_computed",
)


def _meter_operator_set(counters, args, kwargs, result) -> None:
    # complex128 entries: 16 bytes each, 16 * d^4 for a SIC's d^2 projectors.
    ops = args[0] if args else kwargs["ops"]
    counters["operator_space.projector_bytes_computed"] += 16 * int(np.asarray(ops).size)


def _meter_search_detailed(counters, args, kwargs, result) -> None:
    config = args[0] if args else kwargs["config"]
    outcomes = result[1]
    counters["search.restarts"] += len(outcomes)
    counters["search.restarts_certified"] += sum(o.objective_value <= config.accept_tol for o in outcomes)
    counters["search.iterations"] += sum(o.iterations for o in outcomes)


METERS = {
    "operator_space.operator_set": _meter_operator_set,
    "search.search_detailed": _meter_search_detailed,
}


class Tracer:
    """Collects spans and counters from the wrapped sic_forge functions."""

    def __init__(self) -> None:
        self.names = list(TRACED_NAMES)
        self.spans: list = []
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list = []
        self._op = None
        self._patched: list = []

    def install(self) -> None:
        """Wrap every binding of each traced function in the loaded sic_forge modules."""
        originals = {}
        for name_id, name in enumerate(self.names):
            layer, fn = name.split(".")
            # import_module, not attribute access: the package's ``search``
            # attribute is the function, which shadows the module.
            module = importlib.import_module(f"sic_forge.{layer}")
            original = getattr(module, fn)
            originals[id(original)] = self._wrap(name_id, original, METERS.get(name))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sic_forge" or mod_name.startswith("sic_forge.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def op(self, op_id: int):
        """Record spans of calls made inside this block under operation ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    def _wrap(self, name_id: int, fn, meter):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, op)
            if meter is not None:
                meter(counters, args, kwargs, result)
            return result

        return traced

    def merge(self, names: list, spans: list, counters: dict) -> None:
        """Append spans and counters saved by another process (see ``dump``)."""
        remap = [self.names.index(n) for n in names]
        offset = len(self.spans)
        for name_id, start, end, parent, op in spans:
            self.spans.append((remap[name_id], start, end, parent + offset if parent >= 0 else -1, op))
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, handle)


def load_dump(path: str) -> tuple[list, list, dict]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["names"], payload["spans"], payload["counters"]


def self_times(names: list, spans: list) -> tuple[dict, dict]:
    """Calls and self time per span name.

    A span's self time is its duration minus the durations of its direct
    child spans.  Calls within one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = {name: 0 for name in names}
    own = {name: 0.0 for name in names}
    for index, (name_id, start, end, _, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        own[name] += (end - start) - child_time[index]
    return calls, own
