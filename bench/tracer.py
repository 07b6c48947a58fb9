"""Spans around sforge's public functions, recorded from outside the package.

sforge modules import each other's functions by name (``sunflowers`` calls
its own ``max_disjoint`` binding, ``pipelines`` its own ``find_sunflower``),
so patching one module attribute would miss most calls.  ``Tracer.patch``
replaces every ``sforge.*`` module attribute bound to the same function
object and restores all of them on ``uninstall``.

Each span has a name, start, end, parent and the id of the job it belongs
to.  Per-name call counts, total and self time are kept exactly for every
call; the span list itself is capped so a traced run of millions of tiny
calls stays small, and it is written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

MAX_SPANS = 50_000  # spans kept for the trace file; statistics cover every call


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent_id, job_id, name, start, end)
        self.dropped = 0
        self.enabled = True
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._next_id = 0
        self._job_id = -1
        self._restore: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> list:
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (sid, parent[0] if parent else None, self._job_id, name, start, end)
            )
        else:
            self.dropped += 1
        return dur

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def job(self, name: str, fn):
        """Run ``fn`` as the root span of one job."""
        frame = self._enter("job:" + name)
        self._job_id = frame[0]
        try:
            return fn()
        finally:
            self._exit(frame)
            self._job_id = -1

    # -- patching ---------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if probe is not None:
                probe(tracer, args, kwargs, result, dur)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, probe=None) -> None:
        """Trace ``owner.attr`` everywhere sforge has bound it.

        ``owner`` is a module or a class; static and class methods on a
        class are rewrapped in their descriptor type.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            kind = type(raw)
            wrapped = kind(self.wrap(name, raw.__func__, probe))
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, probe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sforge" or mod_name.startswith("sforge.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_table(self, table: dict, prefix: str) -> None:
        """Trace every entry of a dispatch table under ``prefix + key``."""
        for key, fn in list(table.items()):
            self._restore.append((table, key, fn))
            table[key] = self.wrap(prefix + key, fn)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def total_ms(self, name: str) -> float:
        st = self.stats.get(name)
        return st[1] * 1e3 if st else 0.0

    def self_ms(self, name: str) -> float:
        st = self.stats.get(name)
        return st[2] * 1e3 if st else 0.0

    def write(self, path) -> None:
        """All kept spans as JSON lines, then one summary line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "job": job, "name": name,
                    "start": start, "end": end,
                }) + "\n")
            fh.write(json.dumps({
                "summary": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(self.stats.items())},
                "counters": self.counters,
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
            }) + "\n")
