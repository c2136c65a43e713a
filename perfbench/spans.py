"""In-memory span recording around the program's public entry points.

The benchmark never edits the program: a traced run wraps functions
the layers already expose (``Environment.step``, ``payload_digest``,
``ResultsStore.get_report`` ...) and records a span per call.  A span
record carries its name, parent, group (the cell, request or plan it
belongs to), first start, last end, call count and summed duration.

Calls below a parent are folded into one record per (parent, name) —
a calling-context tree — so a campaign cell with a million event-loop
steps yields a few dozen records, not a million.  Functions marked as
*group* openers (one job, one request, one plan) get a record per
call, so spans of one cell share that record's id as their group.
For an unfolded span the summed duration is simply ``end - start``.

Spans stay in memory.  A forked pool worker starts with an empty
recorder; each tree it completes (one cell) is written once, as one
part file, into ``parts_dir``, and :func:`merge_parts` reads them back
in the parent — the same per-worker part-file scheme the program's own
tracer uses.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "Patcher",
    "Recorder",
    "by_name",
    "merge_parts",
    "self_times",
    "write_part",
]


class _Node:
    __slots__ = ("id", "parent", "name", "group", "count", "total", "start",
                 "end", "units", "children")

    def __init__(self, node_id: str, parent: Optional[str], name: str) -> None:
        self.id = node_id
        self.parent = parent
        self.name = name
        self.group = node_id
        self.count = 0
        self.total = 0.0
        self.start = None
        self.end = None
        self.units = 0
        self.children: Dict[str, "_Node"] = {}

    def record(self) -> Dict[str, Any]:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "group": self.group, "count": self.count, "total": self.total,
            "start": self.start, "end": self.end, "units": self.units,
        }


class Recorder:
    """Calling-context span recorder for one process (and its forks)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Finished span records (dicts, see module docstring).
        self.records: List[Dict[str, Any]] = []
        #: Where forked workers write their part files (None: in memory).
        self.parts_dir: Optional[str] = None
        self._stack: List[_Node] = []
        self._tree: List[_Node] = []
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._in_worker = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- process lifecycle ---------------------------------------------------

    def _after_fork(self) -> None:
        self.records = []
        self._stack = []
        self._tree = []
        self._pid = os.getpid()
        self._ids = itertools.count()
        self._in_worker = True

    def _new_id(self) -> str:
        return f"{self._pid}.{next(self._ids)}"

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, name: str, group: bool) -> _Node:
        stack = self._stack
        if not stack:
            node = _Node(self._new_id(), None, name)
            self._tree = [node]
        else:
            parent = stack[-1]
            node = None if group else parent.children.get(name)
            if node is None:
                node = _Node(self._new_id(), parent.id, name)
                if not group:
                    parent.children[name] = node
                    node.group = parent.group
                self._tree.append(node)
        stack.append(node)
        return node

    def _exit(self, node: _Node, start: float, end: float) -> None:
        node.count += 1
        node.total += end - start
        if node.start is None:
            node.start = start
        node.end = end
        self._stack.pop()
        if not self._stack:
            self._close_tree()

    def _close_tree(self) -> None:
        records = [node.record() for node in self._tree]
        self._tree = []
        if self._in_worker and self.parts_dir is not None:
            write_part(self.parts_dir, records)
        else:
            self.records.extend(records)

    @contextlib.contextmanager
    def span(self, name: str, group: bool = True) -> Iterator[None]:
        """Record the ``with`` body as one span (a group opener by default)."""
        node = self._enter(name, group)
        start = self.clock()
        try:
            yield
        finally:
            self._exit(node, start, self.clock())

    def add(self, name: str, start: float, end: float, **extra: Any) -> None:
        """Record an already-timed leaf span as its own group.

        Thread-safe (one list append), for spans timed by several
        threads at once, such as the requests of a closed-loop client.
        """
        node_id = self._new_id()
        self.records.append({
            "id": node_id, "parent": None, "name": name, "group": node_id,
            "count": 1, "total": end - start, "start": start, "end": end,
            "units": 0, **extra,
        })

    def wrap(
        self,
        fn: Callable,
        name: str,
        group: bool = False,
        units: Optional[Callable[[Any], int]] = None,
    ) -> Callable:
        """A stand-in for ``fn`` that records a span per call.

        Generator functions are timed per resumption: every slice the
        generator runs between two yields is one call of its span, so
        a simulated process's CPU time lands in its layer even though
        the process is suspended across many event-loop steps.
        ``units`` maps a call's result to a work count (for example the
        cells of a model grid), summed into the record.
        """
        enter, leave, clock = self._enter, self._exit, self.clock
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                sent: Any = None
                thrown: Optional[BaseException] = None
                while True:
                    node = enter(name, group)
                    start = clock()
                    try:
                        if thrown is not None:
                            error, thrown = thrown, None
                            item = inner.throw(error)
                        else:
                            item = inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(node, start, clock())
                    try:
                        sent = yield item
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as error:  # forwarded into inner
                        sent, thrown = None, error

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = enter(name, group)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    node.units += units(result)
                return result
            finally:
                leave(node, start, clock())

        return wrapper


# -- installing wrappers where callers look names up ---------------------------


class Patcher:
    """Swap functions for recording wrappers, and put them back.

    A module-level function is replaced in *every* loaded module of the
    package that holds it under any name — ``payload_digest`` is looked
    up in ``repro.redundancy.voting`` and ``repro.redundancy.interpose``
    as well as where it is defined — so no caller keeps the original.
    A method is replaced on its class.
    """

    def __init__(self, recorder: Recorder, package: str = "repro") -> None:
        self.recorder = recorder
        self.package = package
        self._undo: List[tuple] = []

    def patch(
        self,
        module: str,
        qualname: str,
        name: str,
        group: bool = False,
        units: Optional[Callable[[Any], int]] = None,
    ) -> int:
        """Wrap ``module.qualname``; returns how many bindings changed."""
        owner: Any = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if path else getattr(owner, attr)
        wrapper = self.recorder.wrap(original, name, group=group, units=units)
        if path:  # a method: the class is the one place callers look it up
            self._swap(owner, attr, original, wrapper)
            return 1
        changed = 0
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._swap(mod, key, original, wrapper)
                    changed += 1
        return changed

    def _swap(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back (last patched first)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- reading spans back --------------------------------------------------------


_PART_SEQUENCE = itertools.count()


def write_part(parts_dir: str, records: List[Dict[str, Any]]) -> str:
    """Write one finished tree as a part file; returns its path.

    The name carries the pid and a per-process sequence number, so
    workers never share a file; the rename makes a part visible only
    once complete.
    """
    name = f"part-{os.getpid()}-{next(_PART_SEQUENCE)}.json"
    path = os.path.join(parts_dir, name)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    os.replace(path + ".tmp", path)
    return path


def merge_parts(parts_dir: str) -> List[Dict[str, Any]]:
    """Every record from the complete part files in ``parts_dir``.

    Parts are read in name order, so the merge is deterministic; files
    still being written (``*.tmp``) are skipped.
    """
    records: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(parts_dir)):
        if not (name.startswith("part-") and name.endswith(".json")):
            continue
        with open(os.path.join(parts_dir, name), encoding="utf-8") as handle:
            records.extend(json.load(handle))
    return records


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per record id: its duration minus its children's.

    A folded record's duration is the sum over its calls, and its
    children are folded over the same calls, so the subtraction is
    exact for folded and unfolded spans alike.  Children are matched by
    ``parent`` id; a child whose parent is missing (it ran in another
    process) subtracts from nothing.
    """
    records = list(records)
    result = {record["id"]: record["total"] for record in records}
    for record in records:
        parent = record["parent"]
        if parent is not None and parent in result:
            result[parent] -= record["total"]
    return result


def by_name(records: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Calls, total and self seconds, and work units, summed per span name."""
    records = list(records)
    selfs = self_times(records)
    totals: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = totals.setdefault(
            record["name"], {"count": 0, "total": 0.0, "self": 0.0, "units": 0}
        )
        entry["count"] += record["count"]
        entry["total"] += record["total"]
        entry["self"] += selfs[record["id"]]
        entry["units"] += record.get("units", 0)
    return totals
