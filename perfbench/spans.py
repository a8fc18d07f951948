"""Outside-in span tracing for the traced benchmark run.

Spans are recorded only around calls into the program's public entry
points: the benchmark opens spans around the calls it makes itself, and
:meth:`Tracer.wrap` swaps a module or class attribute for a timing
wrapper so calls the program makes internally (WAL appends, checkpoint
writes, shard partitioning) are seen too.  Nothing under ``src/`` is
modified.  Each span records its name, start, end, parent span and the
id of the change-set it belongs to; spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder with attribute wrappers (single thread)."""

    def __init__(self) -> None:
        #: one ``[name, start, end, parent_index, change_id]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        #: id of the change-set spans opened now belong to (None: none).
        self.change_id: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.change_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a wrapper that opens span ``name``.

        Class methods and static methods are rewrapped as such so calls
        through the class keep their binding.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        tracer = self
        if isinstance(original, (classmethod, staticmethod)):
            inner = original.__func__

            @functools.wraps(inner)
            def traced(*args, **kwargs):
                with tracer.span(name):
                    return inner(*args, **kwargs)

            replacement = type(original)(traced)
        else:

            @functools.wraps(original)
            def replacement(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def traced_iter(self, iterable, name: str, next_id=None):
        """Yield from ``iterable``, timing each ``next()`` as span ``name``.

        ``next_id()`` gives the change-set id the read belongs to.
        """
        iterator = iter(iterable)
        while True:
            if next_id is not None:
                self.change_id = next_id()
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds).

        Self time is a span's duration minus the part of it that its
        child spans cover (children of one span never overlap here, but
        the interval union is taken anyway).
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        result: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            entry = result[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return {name: tuple(entry) for name, entry in result.items()}

    def total(self, name: str, *, under: str | None = None) -> float:
        """Summed duration of spans ``name`` (optionally only those whose
        parent span is named ``under``)."""
        seconds = 0.0
        for span_name, start, end, parent, _ in self.spans:
            if span_name != name:
                continue
            if under is not None and (
                parent is None or self.spans[parent][0] != under
            ):
                continue
            seconds += end - start
        return seconds

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for name, start, end, parent, change_id in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "change": change_id,
                        }
                    )
                    + "\n"
                )


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap the program entry points that the benchmark does not call itself."""
    from repro.core import durability, session, sharding
    from repro.core.durability import WriteAheadLog
    from repro.core.preprocess import Preprocessor
    from repro.core.session import SchemaSession

    tracer.wrap(WriteAheadLog, "append", "durability.wal_append")
    tracer.wrap(WriteAheadLog, "sync", "durability.wal_sync")
    # write_artifact is bound by name into the modules that write
    # checkpoints and manifests.
    for module in (durability, session, sharding):
        tracer.wrap(module, "write_artifact", "durability.artifact_write")
    tracer.wrap(SchemaSession, "restore", "recovery.restore")
    tracer.wrap(Preprocessor, "fit", "preprocess.fit")
    tracer.wrap(Preprocessor, "fit_batch", "preprocess.fit")
    tracer.wrap(sharding, "partition_columnar", "sharding.partition")
    tracer.wrap(sharding, "encode_changeset_shm", "sharding.encode")
