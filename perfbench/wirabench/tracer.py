"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside: it replaces chosen
public functions and methods with thin wrappers that record a span
(name, start, end, parent, session id) around each call, and restores
the originals afterwards.  Nothing under ``src/`` is edited, and the
program's own trace bus (``repro.obs``) stays off, because an active bus
makes the replay engines pick the solo kernel over the batched one.

Wrapped calls are synchronous and run on one thread, so spans nest
properly and each span's self time (its duration minus its children's)
is accounted for when it closes.  :func:`wirabench.stats.self_times` is
the general definition, which also handles overlapping children; the
tests check that both agree on nested spans.

Spans are kept column-wise in ``array`` buffers, up to :data:`SPAN_CAP`
of them, and written out only when the run ends.  Per-name totals cover
every call, stored or not.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Spans kept for the dump; per-name totals keep counting past it.
SPAN_CAP = 1_000_000

#: Hook run after a wrapped call: ``(tracer, args, kwargs, result)``.
AfterHook = Callable[["Tracer", tuple, dict, Any], None]

#: The columns of the span dump, in file order, with their array codes.
COLUMNS = (("name", "l"), ("start", "d"), ("end", "d"), ("self", "d"), ("parent", "q"), ("session", "q"))


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._depth: List[int] = []
        self.keep: Set[int] = set()
        self.durations: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: ``id(obj) -> session id`` for objects owned by one session.
        self.owner: Dict[int, int] = {}
        self.spans = 0
        self._stack: List[list] = []
        self._next_sid = 0
        self._clock = time.perf_counter

    # -- recording ---------------------------------------------------

    def name_id(self, name: str, keep_durations: bool = False) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._depth.append(0)
        if keep_durations:
            self.keep.add(nid)
            self.durations.setdefault(name, [])
        return nid

    def new_session(self) -> int:
        self._next_sid += 1
        return self._next_sid

    def open(self, nid: int, obj: object) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        sid = self.owner.get(id(obj), -1) if obj is not None else -1
        if sid < 0 and parent is not None:
            sid = parent[3]
        index = -1
        if self.spans < self.cap:
            index = self.spans
            cols = self.columns
            cols["name"].append(nid)
            cols["parent"].append(parent[4] if parent is not None else -1)
            cols["session"].append(sid)
            cols["end"].append(0.0)
            cols["self"].append(0.0)
        self.spans += 1
        self._depth[nid] += 1
        frame = [nid, 0.0, 0.0, sid, index]
        stack.append(frame)
        frame[1] = start = self._clock()
        if index >= 0:
            self.columns["start"].append(start)
        return frame

    def close(self, frame: list) -> None:
        end = self._clock()
        nid, start, child, _sid, index = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][2] += duration
        own = duration - child
        self.calls[nid] += 1
        self.self_s[nid] += own
        depth = self._depth[nid] - 1
        self._depth[nid] = depth
        if depth == 0:
            self.total_s[nid] += duration
        if nid in self.keep:
            self.durations[self.names[nid]].append(duration)
        if index >= 0:
            self.columns["end"][index] = end
            self.columns["self"][index] = own

    # -- reduction ---------------------------------------------------

    def per_name(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}``; ``total_s`` counts outermost calls only."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def dump(self, path: Path) -> None:
        """Write the stored spans: a JSON header line, then each column's raw bytes."""
        header = {
            "names": self.names,
            "columns": [[name, code] for name, code in COLUMNS],
            "stored": len(self.columns["start"]),
            "total": self.spans,
            "byteorder": sys.byteorder,
            "note": "parent is a row index or -1; session -1 means no session",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for name, _code in COLUMNS:
                fh.write(self.columns[name].tobytes())


def load_dump(path: Path) -> Tuple[Dict[str, Any], Dict[str, array]]:
    """Read a span dump back: ``(header, {column: array})``."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in header["columns"]:
            column = array(code)
            column.frombytes(fh.read(column.itemsize * header["stored"]))
            columns[name] = column
    return header, columns


class Patcher:
    """Installs span wrappers and puts every original back on ``restore``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap(
        self,
        func: Callable[..., Any],
        name: str,
        is_method: bool,
        after: Optional[AfterHook],
        keep_durations: bool,
    ) -> Callable[..., Any]:
        tracer = self.tracer
        nid = tracer.name_id(name, keep_durations)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(nid, args[0] if is_method and args else None)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(frame)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        after: Optional[AfterHook] = None,
        keep_durations: bool = False,
    ) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) where ``cls`` defines it."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = self._wrap(raw.__func__, name, False, after, keep_durations)
            self.replace(cls, attr, type(raw)(wrapped))
        else:
            self.replace(cls, attr, self._wrap(raw, name, True, after, keep_durations))

    def function(self, module: object, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        """Wrap a module-level function in every ``repro`` module that imported it by name."""
        func = getattr(module, attr)
        wrapper = self._wrap(func, name, False, after, False)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if (mod_name == "repro" or mod_name.startswith("repro.")) and getattr(mod, attr, None) is func:
                self.replace(mod, attr, wrapper)

    def hierarchy(self, base: type, attrs: Tuple[str, ...], group: str) -> None:
        """Wrap ``attrs`` on ``base`` and on every loaded subclass that defines them."""
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for attr in attrs:
                if attr in cls.__dict__ and callable(cls.__dict__[attr]):
                    self.method(cls, attr, f"{group}:{cls.__name__}.{attr}")
