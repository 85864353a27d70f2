"""Span tracing of the supportgen package from outside it.

`Tracer.install()` replaces every public function, and every public method
of the public classes, of each `supportgen.*` module at every module-level
name it is bound to, with a wrapper that records a span: its name, start,
end and parent. Spans are folded into per-(name, parent) aggregates as they
close (calls, inclusive seconds, self seconds, errors), so a run with
millions of calls keeps a bounded table in memory. Self time is a span's
duration minus the time its child spans cover.

Span names are the defining module plus the qualified name, e.g.
`instruction_model.sample_infill` or `engines.ExternalSolver.solve`, so every
binding of one function feeds one name. `supportgen.paraphrase` stays
unwrapped: it needs a live endpoint and no workload calls it.

Only the thread that installed the tracer records spans; the external
solver's reader thread runs its functions untraced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import types
from time import perf_counter

SKIP_MODULES = frozenset({"supportgen.paraphrase"})

#: Spans whose individual durations are kept for percentiles.
LATENCY_SPANS = frozenset({"engines.ExternalSolver.solve", "index.ivf_query"})

#: Spans whose parent is reported as the nearest listed ancestor instead of
#: the direct caller (k-means runs under ivf_build for both retrievers).
ANCESTOR_PARENTS = {
    "index.kmeans": ("engines.build_covr_retriever", "engines.build_gandr_retriever"),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        # (name, parent) -> [calls, inclusive_s, self_s, errors]
        self.table: dict[tuple[str, str | None], list] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in LATENCY_SPANS}
        self.observers: dict = {}
        self.spans = 0
        self._stack: list[list] = []      # frames: [name, child_seconds]
        self._active: dict[str, int] = {}  # open spans per name (recursion)
        self._wrapped: dict = {}
        self._thread = threading.get_ident()

    # -- installation -----------------------------------------------------

    def install(self, package: str = "supportgen") -> int:
        """Wrap the package in place; returns the number of wrapped callables."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if f"{package}.{info.name}" not in SKIP_MODULES
        ]
        traced = {m.__name__ for m in modules}
        seen_classes: set[type] = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in traced:
                    setattr(module, attr, self._wrapper_for(obj))
                elif (isinstance(obj, type) and obj.__module__ in traced
                      and obj not in seen_classes and self._traceable_class(obj)):
                    seen_classes.add(obj)
                    self._wrap_class(obj)
        return len(self._wrapped)

    @staticmethod
    def _traceable_class(cls: type) -> bool:
        return not issubclass(cls, BaseException) and not getattr(cls, "_is_protocol", False)

    def _wrap_class(self, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrapper_for(member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrapper_for(member.__func__)))
            elif isinstance(member, types.FunctionType):
                setattr(cls, attr, self._wrapper_for(member))

    def _wrapper_for(self, fn):
        wrapper = self._wrapped.get(fn)
        if wrapper is None:
            make = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_call
            wrapper = make(span_name(fn), fn)
            self._wrapped[fn] = wrapper
        return wrapper

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> tuple[list, str | None]:
        stack = self._stack
        parent = stack[-1][0] if stack else None
        ancestors = ANCESTOR_PARENTS.get(name)
        if ancestors:
            parent = next((f[0] for f in reversed(stack) if f[0] in ancestors), parent)
        frame = [name, 0.0]
        stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        return frame, parent

    def _close(self, frame: list, parent: str | None, seconds: float,
               failed: bool, new_call: bool) -> None:
        name = frame[0]
        self._stack.pop()
        self._active[name] -= 1
        if self._stack:
            self._stack[-1][1] += seconds
        row = self.table.get((name, parent))
        if row is None:
            row = self.table[(name, parent)] = [0, 0.0, 0.0, 0]
        if new_call:
            row[0] += 1
            self.spans += 1
        if not self._active[name]:
            row[1] += seconds
        row[2] += seconds - frame[1]
        row[3] += failed

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Run an observer outside every span's self time."""
        t0 = perf_counter()
        self.observers[name](args, kwargs, result)
        if self._stack:
            self._stack[-1][1] += perf_counter() - t0

    def _wrap_call(self, name: str, fn):
        tracer = self
        samples = self.samples.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            frame, parent = tracer._open(name)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                seconds = perf_counter() - t0
                tracer._close(frame, parent, seconds, failed, True)
                if samples is not None:
                    samples.append(seconds)
            if name in tracer.observers:
                tracer._observe(name, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """A generator's span is the sum of its resumptions; one call each."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                frame, parent = tracer._open(name)
                failed = True
                t0 = perf_counter()
                try:
                    item = next(inner)
                    failed = False
                except StopIteration:
                    failed = False
                    return
                finally:
                    tracer._close(frame, parent, perf_counter() - t0, failed, first)
                    first = False
                yield item

        return wrapper

    # -- results ----------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Aggregate over parents: calls, inclusive s, self s, errors."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, incl, self_s, errors) in self.table.items():
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
            row["calls"] += calls
            row["s"] += incl
            row["self_s"] += self_s
            row["errors"] += errors
        return out

    def inclusive_under(self, name: str, parent: str) -> float:
        row = self.table.get((name, parent))
        return row[1] if row else 0.0

    def dump(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": calls, "s": incl,
             "self_s": self_s, "errors": errors}
            for (name, parent), (calls, incl, self_s, errors) in sorted(
                self.table.items(), key=lambda kv: -kv[1][2])
        ]
