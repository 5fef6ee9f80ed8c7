"""In-memory span recorder used by the benchmark.

A span is one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds, which share one clock across the
processes of a host), an id, the id of the span that caused it, and the
process id.  Wrappers replace module attributes (or dict entries), so
each layer is timed from outside and the program itself is not edited.

Spans stay in memory and are written out when the run ends.  Forked pool
workers inherit the wrappers; a worker keeps only its own spans and
appends them to a spool file each time its outermost span closes, and the
parent merges the spool back with :meth:`Recorder.collect`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from pathlib import Path


class Recorder:
    def __init__(self, spool: Path):
        self.spool = spool
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._pid = os.getpid()
        self._forked = False
        self._base_depth = 0
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def _check_process(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the parent's finished spans are
            # not ours to report, but its open spans are our ancestry.
            self._pid = pid
            self._forked = True
            self.spans = []
            self._base_depth = len(self._stack)
            self._ids = itertools.count()

    def _open(self, name: str) -> dict:
        self._check_process()
        span = {
            "name": name,
            "id": f"{self._pid}.{next(self._ids)}",
            "parent": self._stack[-1] if self._stack else None,
            "pid": self._pid,
        }
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _maybe_flush(self) -> None:
        if self._forked and len(self._stack) == self._base_depth:
            self.spool.mkdir(parents=True, exist_ok=True)
            with open(self.spool / f"spans-{self._pid}.jsonl", "a") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
            self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            self._close(record)
            self._maybe_flush()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a timed wrapper.

        ``observe(span, args, kwargs, result)`` runs after the span has
        closed and returns extra fields for the span, such as counts.
        """
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                self._close(span)
                self._maybe_flush()
                raise
            self._close(span)
            if observe is not None:
                span.update(observe(span, args, kwargs, result))
            self._maybe_flush()
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (or ``owner[attr]``) until :meth:`restore`."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        if is_dict:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def collect(self) -> list[dict]:
        """Merge spans spooled by worker processes into this recorder."""
        merged: list[dict] = []
        if self.spool.is_dir():
            for path in sorted(self.spool.glob("spans-*.jsonl")):
                with open(path) as fh:
                    merged.extend(json.loads(line) for line in fh if line.strip())
                path.unlink()
        self.spans.extend(merged)
        return merged


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(span)
    return out


def self_time(span: dict, children: dict[str, list[dict]]) -> float:
    """Span duration minus the part of its interval its child spans cover."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children.get(span["id"], [])
    )
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return duration(span) - covered


def descendants(root_id: str, children: dict[str, list[dict]]) -> list[dict]:
    out: list[dict] = []
    todo = list(children.get(root_id, []))
    while todo:
        span = todo.pop()
        out.append(span)
        todo.extend(children.get(span["id"], []))
    return out
