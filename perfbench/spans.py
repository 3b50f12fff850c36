"""Call spans recorded from outside the program.

A :class:`Tracer` replaces each public function of a set of modules with a
wrapper that records a span (name, start, end, parent, thread) around the
call, at the defining module and at every module that imported the same
object by name.  Extra methods such as ``FourierSeries.__add__`` are wrapped
the same way.  Parent stacks are per thread, so spans opened on pool threads
are roots of their own thread, never children of the span that submitted
them.  :meth:`Tracer.uninstall` puts every original object back.

A span's self time is its duration minus the durations of its child spans.
Times on pool threads include waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import types
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    # a span of the same name was already open on this thread, so this
    # span's duration is already inside that one's total
    nested: bool
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans around wrapped calls; ``counters`` maps a span name to
    ``f(args, kwargs, result) -> {count_name: number}``."""

    def __init__(self, clock=time.perf_counter, counters=None):
        self.clock = clock
        self.counters = counters or {}
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        nested = any(self.spans[i].name == name for i in stack)
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), nested)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
        counter = self.counters.get(name)
        if counter is not None:
            try:
                span.counts = counter(args, kwargs, result)
            except Exception:  # a counter must never change the program's result
                span.counts = {"counter_errors": 1}
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    # -- installing ---------------------------------------------------------

    def install(self, modules: dict[str, types.ModuleType],
                methods: tuple[tuple[str, type, str], ...] = ()) -> None:
        """Wrap the public functions defined in ``modules`` wherever any of
        them holds the object by name, and the given ``(span, class, attr)``
        methods."""
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not callable(obj)
                        or inspect.isclass(obj)
                        or getattr(obj, "__module__", None) != modname):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for name, cls, attr in methods:
            orig = vars(cls)[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig))

    def uninstall(self) -> list[str]:
        """Restore every replaced attribute; returns the ones that did not
        come back as the original object (empty when all did)."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        bad = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, orig in self._patches
               if vars(owner).get(attr) is not orig]
        self._patches = []
        return bad

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and summed counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            st = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s.end - s.start
            st["calls"] += 1
            if not s.nested:
                st["total_s"] += duration
            st["self_s"] += duration - child_time[i]
            for key, value in s.counts.items():
                st[key] = st.get(key, 0) + value
        return out

    def overlap(self, name: str) -> float:
        """Span time covered inside the spans called ``name``, summed over all
        threads, divided by their duration: their direct children on their
        own thread plus the root spans of every other thread, clipped to the
        window.  Above 1 means work ran on several threads at once."""
        windows = [(i, s) for i, s in enumerate(self.spans) if s.name == name]
        covered = length = 0.0
        for i, w in windows:
            length += w.end - w.start
            for s in self.spans:
                if s.parent == i or (s.parent is None and s.thread != w.thread):
                    covered += max(0.0, min(s.end, w.end) - max(s.start, w.start))
        return covered / length if length > 0 else 0.0


def selftest() -> list[str]:
    """Check the tracer on a synthetic package; returns the failures."""
    failures = []
    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    exec(
        "def leaf():\n    return 1\n"
        "def inner_a():\n    return leaf() + 1\n"
        "def inner_b():\n    return 3\n"
        "def outer():\n    return inner_a() + inner_b()\n",
        sub.__dict__,
    )
    pkg.leaf = sub.leaf  # an importer holding the function by name
    originals = {name: getattr(sub, name) for name in ("leaf", "inner_a", "inner_b", "outer")}
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install({"fakepkg": pkg, "fakepkg.sub": sub})
    # clock reads: outer 0..7, inner_a 1..4, leaf 2..3, inner_b 5..6
    if sub.outer() != 5:
        failures.append("wrapped call changed the result")
    if pkg.leaf is originals["leaf"]:
        failures.append("importer's copy of leaf was not wrapped")
    st = tracer.stats()
    expect = {"sub.outer": (7.0, 3.0), "sub.inner_a": (3.0, 2.0),
              "sub.leaf": (1.0, 1.0), "sub.inner_b": (1.0, 1.0)}
    for name, (total, self_s) in expect.items():
        got = st.get(name, {})
        if got.get("total_s") != total or got.get("self_s") != self_s:
            failures.append(f"{name}: total/self {got.get('total_s')}/"
                            f"{got.get('self_s')}, expected {total}/{self_s}")
    if tracer.overlap("sub.outer") != 4.0 / 7.0:
        failures.append("overlap of outer is not 4/7")

    tracer.clock = time.perf_counter
    with tracer._lock:
        before = len(tracer.spans)
    worker = threading.Thread(target=sub.leaf)
    worker.start()
    worker.join(timeout=10)
    if worker.is_alive() or len(tracer.spans) != before + 1:
        failures.append("span on a second thread was not recorded")
    elif tracer.spans[-1].parent is not None:
        failures.append("span on a fresh thread has a parent")

    if tracer.uninstall():
        failures.append("uninstall left wrapped attributes behind")
    for name, orig in originals.items():
        if getattr(sub, name) is not orig:
            failures.append(f"sub.{name} not restored")
    if pkg.leaf is not originals["leaf"]:
        failures.append("importer's leaf not restored")
    return failures
