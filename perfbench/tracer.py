"""Spans around the public functions of ``sixbeam``, recorded from outside.

``Tracer.install`` wraps every function named in the ``__all__`` of the
layer modules and rebinds the wrapper in every ``sixbeam`` namespace that
holds the original (``galerkin.operator_matrix``, ``cli.build_basis`` ...),
so calls nest as ``cli.main -> galerkin.solve_steady ->
coefficients.operator_matrix``.  A public name that a later version removes
simply produces no spans.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("eigenbasis", "coefficients", "oracle", "galerkin", "cli")


def _operator_kind(args, kwargs, result):
    return {"label": f"{result.kind}.{getattr(result.parity, 'value', result.parity)}"}


def _states(args, kwargs, result):
    return {"states": len(result)}


# Extra facts read off a call, keyed by span name.  A probe that no longer
# fits the program's signature is skipped, never fatal.
PROBES = {
    "coefficients.operator_matrix": _operator_kind,
    "galerkin.evolve": _states,
}


class Tracer:
    """Records spans ``[name, start, end, parent, op, extra]`` while active."""

    def __init__(self):
        self.spans: list = []
        self.warnings: list = []   # [op, span index or None, category, message]
        self.stack: list = []
        self.op = None
        self.active = False

    def _wrap(self, name: str, fn):
        tracer, probe = self, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else None, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if probe is not None:
                try:
                    span[5] = probe(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded ``sixbeam`` layer."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"sixbeam.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "sixbeam" and not modname.startswith("sixbeam."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def on_warning(self, message, category, filename, lineno, file=None, line=None):
        """``warnings.showwarning`` replacement: tie a warning to its span."""
        self.warnings.append([self.op, self.stack[-1] if self.stack else None,
                              category.__name__, str(message)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "warnings": self.warnings}, fh)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own
