"""An in-memory span recorder for the traced run.

Spans are recorded around calls into each layer's public functions by
wrapping them from the outside (:meth:`SpanRecorder.wrap`); nothing in the
program is edited.  Each span keeps its name, start, end, parent span and
the id of the frame it served.  Spans live in per-thread column arrays
until :meth:`SpanRecorder.write` saves them, and :func:`self_times` turns
them into per-name self time: a span's duration minus the time its child
spans cover.

An *opaque* span times everything beneath it as its own: no span opens
inside it.  Session AEAD and the WAL commit are opaque, so the crypto
calls they make are charged to them and not to the store's crypto layer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from typing import Dict, List, Sequence, Tuple


class _Buffer:
    """One thread's spans, column-wise."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.frames = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.frame = 0
        self.opaque = 0


class SpanRecorder:
    def __init__(self, frame_starts: Sequence[str] = ()):
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._frame_starts = set(frame_starts)
        self._frame_ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buf = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, *, opaque: bool = False):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        fn = owner.__dict__[attr]
        name_id = self.name_id(name)
        starts_frame = name in self._frame_starts
        recorder = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            buf = recorder._buffer()
            if buf.opaque:
                return fn(*args, **kwargs)
            stack = buf.stack
            if starts_frame and not stack:
                buf.frame = next(recorder._frame_ids)
            index = len(buf.names)
            buf.names.append(name_id)
            buf.parents.append(stack[-1] if stack else -1)
            buf.frames.append(buf.frame)
            buf.ends.append(0.0)
            stack.append(index)
            buf.opaque += opaque
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                buf.opaque -= opaque
                stack.pop()

        traced.__wrapped__ = fn
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def reset(self) -> None:
        """Drop every span recorded so far (e.g. the warm-up's)."""
        with self._lock:
            for buf in self._buffers:
                for column in (buf.names, buf.parents, buf.frames,
                               buf.starts, buf.ends):
                    del column[:]

    def columns(self) -> Tuple[List[str], list, list, list, list, list]:
        """All threads' spans: names, parents, frames, starts, ends.

        Parents are re-indexed into the merged columns.
        """
        names, parents, frames, starts, ends = [], [], [], [], []
        with self._lock:
            for buf in self._buffers:
                base = len(names)
                names.extend(self.names[i] for i in buf.names)
                parents.extend(p + base if p >= 0 else -1
                               for p in buf.parents)
                frames.extend(buf.frames)
                starts.extend(buf.starts)
                ends.extend(buf.ends)
        return names, parents, frames, starts, ends

    def write(self, path: str) -> int:
        """Save every span as JSON columns; returns the span count."""
        names, parents, frames, starts, ends = self.columns()
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": [self._ids[n] for n in names],
                       "parent": parents, "frame": frames,
                       "start": starts, "end": ends}, fh)
        return len(names)


def self_times(names: Sequence[str], parents: Sequence[int],
               starts: Sequence[float], ends: Sequence[float],
               rename=None) -> Dict[str, Dict[str, float]]:
    """Per-name ``{"count", "self_s", "total_s"}`` over a set of spans.

    Children nest inside their parent on one thread, so the time they
    cover is the sum of their durations.  ``rename(i, names, parents)``
    may file span ``i`` under another name (its self time is unchanged).
    """
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(names):
        if rename is not None:
            name = rename(i, names, parents)
        row = out.setdefault(name, {"count": 0, "self_s": 0.0,
                                    "total_s": 0.0})
        duration = ends[i] - starts[i]
        row["count"] += 1
        row["self_s"] += duration - covered[i]
        row["total_s"] += duration
    return out
