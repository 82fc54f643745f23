"""In-memory spans recorded around calls into the program's layers.

The benchmark edits no program source: a traced run replaces a layer's
public callable, at the name its caller resolves (a class attribute or
a module global), with a timing wrapper, and puts the original back
afterwards.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass

__all__ = ["Span", "SpanLog"]

_MISSING = object()


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Span store plus the wrappers that feed it.

    Use :meth:`wrap` for each target and :meth:`restore` (or the
    context manager) to put every original callable back.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._patches: list[tuple] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span the caller timed itself, on the calling thread."""
        self.spans.append(Span(name, start, end, threading.get_ident()))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        own = _MISSING
        if isinstance(owner, type):
            own = owner.__dict__.get(attr, _MISSING)
        original = inspect.getattr_static(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        spans = self.spans

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append(
                    Span(name, t0, time.perf_counter(), threading.get_ident())
                )

        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if isinstance(owner, type) and own is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "SpanLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def named(self, *names: str) -> list:
        """Spans with one of ``names``, ordered by start."""
        return sorted(
            (s for s in self.spans if s.name in names), key=lambda s: s.start
        )

    def write_jsonl(self, fh) -> int:
        """Write one JSON object per span to the text file ``fh``."""
        for span in self.spans:
            fh.write(json.dumps(asdict(span)) + "\n")
        return len(self.spans)
