"""In-process span tracer used by the benchmark's traced runs.

The tracer replaces functions with timing wrappers from outside the
program: every module attribute that binds a traced function is rebound
to one wrapper, and `uninstall` puts the originals back.  Spans live in
memory and are reduced to per-name charged times when the run ends.

Time is charged by `charged_times`: at each instant, a span is running
its own code when it is open and none of its child spans is.  When k
spans run their own code at once (children of a thread pool), each is
charged 1/k of that instant.  A parent's charge is therefore its
duration minus the union of its children's intervals, and the charges
of all spans add up to the time the root spans cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

# A span is [name, start, end, parent index or None]; end is None while open.
Span = list


def charged_times(spans) -> list[float]:
    """Time charged to each span (see the module docstring)."""
    events = []
    for i, (_, start, end, _) in enumerate(spans):
        events.append((start, 1, i))
        events.append((end, 0, i))
    events.sort()  # at equal times, ends (0) come before starts (1)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    running = set()  # open spans with no open child
    charged = [0.0] * len(spans)
    last = None
    for t, starts, i in events:
        if running and t > last:
            share = (t - last) / len(running)
            for j in running:
                charged[j] += share
        last = t
        parent = spans[i][3]
        if starts:
            is_open[i] = True
            running.add(i)
            if parent is not None:
                open_children[parent] += 1
                running.discard(parent)
        else:
            is_open[i] = False
            running.discard(i)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and is_open[parent]:
                    running.add(parent)
    return charged


class Tracer:
    """Spans and counters recorded by wrappers installed on a package."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def current(self):
        """Index of the innermost open span on this thread, or None."""
        return getattr(self._local, "span", None)

    def call_in_span(self, name: str, fn, args, kwargs, parent="current"):
        """Run fn(*args, **kwargs) inside a new span; returns (index, result)."""
        if parent == "current":
            parent = self.current()
        record = [name, time.monotonic(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        saved = self.current()
        self._local.span = index
        try:
            return index, fn(*args, **kwargs)
        finally:
            self._local.span = saved
            record[2] = time.monotonic()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def carry(self, fn, parent: int, name: str, counter: str | None = None):
        """Wrap a callable handed to another thread so that its spans
        become children of `parent`, each call in a span called `name`."""

        @functools.wraps(fn)
        def carried(*args, **kwargs):
            if counter is not None:
                self.count(counter)
            return self.call_in_span(name, fn, args, kwargs, parent=parent)[1]

        return carried

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _set_class_attr(self, cls, attr: str, wrapper) -> None:
        self._bindings.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def wrap_function(self, module: str, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Trace module.attr at every module attribute of the package that
        binds the same function object.

        on_call(tracer, args, kwargs) -> (args, kwargs) runs inside the new
        span; on_result(tracer, result) runs after it closes.
        """
        original = getattr(sys.modules[module], attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is None:
                _, result = self.call_in_span(name, original, args, kwargs)
            else:

                def body():
                    a, k = on_call(self, args, kwargs)
                    return original(*a, **k)

                _, result = self.call_in_span(name, body, (), {})
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__perfbench_span__ = name
        self._rebind_everywhere(original, traced)

    def wrap_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call_in_span(name, original, args, kwargs)[1]

        traced.__perfbench_span__ = name
        self._set_class_attr(cls, attr, traced)

    def count_method(self, root: type, attr: str, counter: str) -> None:
        """Count calls of `attr` on root and every subclass defining it."""
        classes, seen = [root], []
        while classes:
            cls = classes.pop()
            if cls not in seen:
                seen.append(cls)
                classes.extend(cls.__subclasses__())
        for cls in seen:
            if attr not in cls.__dict__:
                continue
            original = cls.__dict__[attr]

            def counted(*args, _original=original, **kwargs):
                self.count(counter)
                return _original(*args, **kwargs)

            functools.update_wrapper(counted, original)
            counted.__perfbench_span__ = counter
            self._set_class_attr(cls, attr, counted)

    def uninstall(self) -> None:
        """Restore every binding, latest first."""
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> tuple[dict, Counter]:
        """Charged seconds and call counts per span name."""
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for span, charged in zip(self.spans, charged_times(self.spans)):
            seconds[span[0]] += charged
            calls[span[0]] += 1
        return dict(seconds), calls
