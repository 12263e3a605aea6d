"""In-memory span tracer that wraps functions from outside the library.

A span is one call: name, start, end, the index of the span that was open
when it started (its parent, or -1) and a dict of attributes.  Spans stay
in memory; the caller writes them out when the run ends.

Wrappers replace an attribute of a module or class and are removed by
:meth:`Tracer.restore`, which puts the original object back, so the
library is unchanged outside a traced region.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped calls (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self._originals = []

    def _start(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _finish(self, index):
        self.spans[index].end = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the caller's own code."""
        index = self._start(name)
        try:
            yield self.spans[index]
        finally:
            self._finish(index)

    def wrap(self, owner, attr, name, attrs=None):
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span per call.

        ``owner`` is a module or a class that defines ``attr`` itself;
        class- and static methods stay what they were.  ``attrs(result,
        args, kwargs)`` may return a dict stored on the span after the call
        (outside its timed interval).  An exception marks the span with
        ``error`` set to the exception's type name and propagates.
        """
        original = vars(owner)[attr]
        kind = type(original) if isinstance(original, (classmethod, staticmethod)) else None
        func = original.__func__ if kind else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                self.spans[index].attrs["error"] = type(err).__name__
                raise
            finally:
                self._finish(index)
            if attrs is not None:
                self.spans[index].attrs.update(attrs(result, args, kwargs))
            return result

        setattr(owner, attr, kind(traced) if kind else traced)
        self._originals.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped attribute, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- queries -------------------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its direct child spans cover.

        Calls are nested and single-threaded, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def rows(self):
        """Spans as JSON-ready ``[name, start, end, parent, attrs]`` rows."""
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
