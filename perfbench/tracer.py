"""Layer tracing for one cavity3q process, installed from outside the package.

`Tracer.install` wraps every function listed in the ``__all__`` of each
imported ``cavity3q`` module, at every place a ``cavity3q.*`` namespace binds
it (the defining module, the package namespace and every ``from .x import y``
site).  The layer of a function is its ``__module__`` without the package
prefix, so a new public function is attributed without touching this file.
The ``numpy.linalg`` decompositions are wrapped too and counted against the
layer of the innermost open span.  `Tracer.uninstall` puts every original
object back.

Spans (name, start, end, parent) are kept in memory and written with
`Tracer.write_spans` once the traced call has returned.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "cavity3q"
LINALG_DECOMPOSITIONS = ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "qr", "svd", "svdvals")

# span record fields
_NAME, _LAYER, _START, _END, _PARENT, _ERROR = range(6)


def _in_package(module_name: str) -> bool:
    return module_name == PACKAGE or module_name.startswith(PACKAGE + ".")


def _layer(func) -> str:
    return func.__module__.removeprefix(PACKAGE + ".")


def _modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and _in_package(name)]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.linalg: Counter[str] = Counter()
        self.layer_of: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    # installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _modules()
        replacements: dict[int, object] = {}
        for module in modules:
            for name in getattr(module, "__all__", ()):
                func = getattr(module, name, None)
                if inspect.isfunction(func) and _in_package(func.__module__):
                    if id(func) not in replacements:
                        replacements[id(func)] = self._wrap(func)
        for name in LINALG_DECOMPOSITIONS:
            func = getattr(np.linalg, name, None)
            if func is not None:
                replacements[id(func)] = self._count_linalg(func)
                self._patch(np.linalg, name, func, replacements[id(func)])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, value, replacements[id(value)])

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # wrappers -----------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        if self._stack[-1] == index:
            self._stack.pop()
        else:  # a generator abandoned while later spans were open
            self._stack.remove(index)

    def _fail(self, index: int) -> None:
        self.spans[index][_ERROR] = True
        self.errors[self.spans[index][_NAME]] += 1

    def _wrap(self, func):
        layer = _layer(func)
        name = f"{layer}.{func.__name__}"
        self.layer_of[name] = layer
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, layer, name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            index = self._open(name, layer)
            try:
                return func(*args, **kwargs)
            except BaseException:
                self._fail(index)
                raise
            finally:
                self._close(index)

        return traced

    def _wrap_generator(self, func, layer: str, name: str):
        """Generator functions do their work while being iterated.

        One span runs from the first item requested to exhaustion, so
        ``list(gen)`` is timed exactly.  A consumer that does its own work
        between items has that work counted inside the span (its traced calls
        become child spans).
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            inner = func(*args, **kwargs)
            index = self._open(name, layer)
            try:
                yield from inner
            except GeneratorExit:
                raise
            except BaseException:
                self._fail(index)
                raise
            finally:
                self._close(index)

        return traced

    def _count_linalg(self, func):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            self.linalg[self.spans[self._stack[-1]][_LAYER] if self._stack else "untraced"] += 1
            return func(*args, **kwargs)

        return counted

    # results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, dict[str, float]]:
        """calls, errors, busy_s, self_s and linalg_calls for every traced layer.

        busy_s is the total length of the layer's outermost spans (those with
        no ancestor in the same layer).  self_s is the time during which the
        innermost open span belongs to the layer: busy_s minus what spans of
        other layers nested inside it cover.
        """
        layers = sorted({*self.layer_of.values(), *self.linalg})
        out = {
            layer: {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0, "linalg_calls": 0}
            for layer in layers
        }
        for name, count in self.calls.items():
            out[self.layer_of[name]]["calls"] += count
        for name, count in self.errors.items():
            out[self.layer_of[name]]["errors"] += count
        for layer, count in self.linalg.items():
            out[layer]["linalg_calls"] += count
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        for index, span in enumerate(self.spans):
            duration = span[_END] - span[_START]
            layer = span[_LAYER]
            out[layer]["self_s"] += duration - child_time[index]
            parent = span[_PARENT]
            while parent >= 0 and self.spans[parent][_LAYER] != layer:
                parent = self.spans[parent][_PARENT]
            if parent < 0:
                out[layer]["busy_s"] += duration
        return out

    def write_spans(self, path: str, invocation: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("invocation,index,parent,name,start_s,end_s,error\n")
            for index, span in enumerate(self.spans):
                handle.write(
                    f"{invocation},{index},{span[_PARENT]},{span[_NAME]},"
                    f"{span[_START] - self._epoch:.9f},{span[_END] - self._epoch:.9f},{int(span[_ERROR])}\n"
                )
