"""Spans around the program's public functions, recorded from outside.

``Tracer`` replaces module attributes of ``common_eig`` with timing
wrappers, at the names the callers look them up under (``pipeline.char_fn``
rather than ``matrix.char_fn``, because ``pipeline`` resolves the name in its
own globals at call time).  Every call becomes one span: name, start, end,
parent span and pair id, plus one small fact about the call taken from its
arguments or result.  Spans stay in memory until ``write`` is called.
Leaving the ``with`` block puts every original function back, whatever
happened inside it, so later timing runs the untouched program.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = ["TARGETS", "Span", "Tracer"]


def _order(args, result):
    return args[0].order


def _scan_events(args, result):
    # (grid points, sign-change cells, zero hits)
    sign = sum(1 for r in result if r.event.value == "sign_change_ahead")
    zero = sum(1 for r in result if r.event.value == "zero_hit")
    return (len(result), sign, zero)


def _iterations(args, result):
    return result.iterations


def _count(args, result):
    return len(result)


def _report(args, result):
    return result


def _utf8_bytes(args, result):
    return len(result.encode("utf-8"))


def _nothing(args, result):
    return None


# (module, attribute, span name, fact recorded about each call)
TARGETS = (
    ("common_eig.pipeline", "char_fn", "matrix.char_fn", _order),
    ("common_eig.pipeline", "matrix_bounds", "gerschgorin.matrix_bounds", _nothing),
    ("common_eig.pipeline", "intersect", "gerschgorin.intersect", _nothing),
    ("common_eig.pipeline", "find_real_roots", "rootfind.find_real_roots", _count),
    ("common_eig.pipeline", "match_roots", "pipeline.match_roots", _nothing),
    ("common_eig.rootfind", "scan", "rootfind.scan", _scan_events),
    ("common_eig.rootfind", "bisect", "rootfind.bisect", _iterations),
    ("common_eig.cli", "scan", "cli.scan", _scan_events),
    ("common_eig.cli", "char_fn", "matrix.char_fn", _order),
    ("common_eig.cli", "parse_matrix", "matrix.parse_matrix", _nothing),
    ("common_eig.cli", "common_eigenvalues", "pipeline.common_eigenvalues", _report),
    ("common_eig.cli", "emit_json_report", "reporting.emit_json_report", _utf8_bytes),
    ("common_eig.cli", "emit_scan_table", "reporting.emit_scan_table", _utf8_bytes),
    ("common_eig.cli", "render_svg", "reporting.render_svg", _utf8_bytes),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    pair: int
    info: object = None


class Tracer:
    """Install timing wrappers on enter, restore the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.pair = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for module_name, attr, name, fact in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, fact))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._stack.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pair))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, info=None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.info = info
        self._stack.pop()

    def _wrap(self, fn, name, fact):
        def wrapper(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, fact(args, result) if result is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn`` inside a span the benchmark opens around its own call;
        the span keeps the result."""
        return self._wrap(fn, name, _report)(*args)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; facts that are not numbers
        (reports, parsed matrices) are left out."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                info = s.info if isinstance(s.info, (int, tuple)) else None
                fh.write(
                    json.dumps(
                        {"id": i, "name": s.name, "start": s.start, "end": s.end,
                         "parent": s.parent, "pair": s.pair, "info": info}
                    )
                    + "\n"
                )
