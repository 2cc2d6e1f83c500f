"""Boundary tracer: spans around the public functions of the isochrone modules.

The tracer replaces each public function of ``potential``, ``analytic``,
``oracle``, ``birkhoff`` and ``cli`` by a wrapper at its module attribute and
puts the original back on ``uninstall``.  Calls resolve module attributes at
call time, so the wrappers also see calls between modules and inside one
module (``orbit_elements -> turning_points``, ``quad_* -> turning_radii``).
No source file is changed.

A span is (name, start, end, parent).  Spans of the running operation are
held in memory; when the operation ends they are folded into per-name totals
(calls, total time, self time, raised exceptions, returned items), and the
spans themselves are kept until ``KEEP_SPANS`` are held.  ``write`` puts the
kept spans and the totals in a JSON file when the run ends.

Self time is a span's duration minus the durations of its child spans.  The
program runs in one thread, so children never overlap and that difference is
exactly the part of the interval no child covers.  Span times are wall times
read from ``calibrate.now``, which leaves out the calibration kernel runs
that interrupt an operation.
"""

from __future__ import annotations

import functools
import inspect
import json
from typing import Callable, Optional

import numpy as np

from isochrone import analytic, birkhoff, cli, oracle, potential

from .calibrate import now

MODULES = {"potential": potential, "analytic": analytic, "oracle": oracle,
           "birkhoff": birkhoff, "cli": cli}

# cli.fmt formats one CSV cell; a span per cell would only add overhead, and
# its time stays in cli self time either way.
UNWRAPPED = {"cli.fmt"}

KEEP_SPANS = 100_000

# Functions whose return value carries a count worth totalling.
ITEMS: dict[str, Callable[[object], int]] = {
    "analytic.trajectory": len,
    "oracle.quad_radial_period": lambda r: r.evaluations,
    "oracle.quad_apsidal_angle": lambda r: r.evaluations,
    "oracle.quad_radial_action": lambda r: r.evaluations,
}


def public_functions(short: str, module) -> list[str]:
    """Names of the functions a module defines and exports."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for n in names:
        fn = getattr(module, n)
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and f"{short}.{n}" not in UNWRAPPED):
            out.append(n)
    return out


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._reset_op()
        # per-name totals over all folded operations
        self.calls = np.zeros(0)
        self.total_s = np.zeros(0)
        self.self_s = np.zeros(0)
        self.items = np.zeros(0)
        self.raised: dict[tuple[str, str, bool], int] = {}
        self.kept: list[list] = []
        self.span_count = 0
        self.ops = 0
        self._t0 = now()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for short, module in MODULES.items():
            for name in public_functions(short, module):
                orig = getattr(module, name)
                qual = f"{short}.{name}"
                post = self._wrap_parse_args if qual == "cli.build_parser" else None
                setattr(module, name, self._wrap(qual, orig, ITEMS.get(qual), post))
                self._saved.append((module, name, orig))

    def uninstall(self) -> None:
        for module, name, orig in reversed(self._saved):
            setattr(module, name, orig)
        self._saved.clear()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, items=None, post=None):
        nid = self._intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer._spans
            idx = len(spans)
            spans.append([nid, tracer._stack[-1], now(), 0.0])
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised[idx] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
                spans[idx][3] = now()
            if items is not None:
                tracer._items[idx] = items(result)
            if post is not None:
                post(result)
            return result

        return traced

    def _wrap_parse_args(self, parser) -> None:
        # parse_args is a method of the returned parser, not a module function.
        parser.parse_args = self._wrap("cli.parse_args", parser.parse_args)

    # -- per-operation recording ------------------------------------------

    def _reset_op(self) -> None:
        self._spans: list[list] = []
        self._stack = [-1]
        self._raised: dict[int, str] = {}
        self._items: dict[int, int] = {}

    def begin_op(self) -> None:
        self._reset_op()
        self.active = True

    def end_op(self) -> None:
        """Stop recording and fold the operation's spans into the totals."""
        self.active = False
        op_end = now()
        spans = self._spans
        self.ops += 1
        n = len(spans)
        self.span_count += n
        width = len(self.names)
        for acc in ("calls", "total_s", "self_s", "items"):
            arr = getattr(self, acc)
            if len(arr) < width:
                setattr(self, acc, np.concatenate([arr, np.zeros(width - len(arr))]))
        if n == 0:
            return
        arr = np.array(spans, dtype=float)
        name = arr[:, 0].astype(np.int64)
        parent = arr[:, 1].astype(np.int64)
        # A latency-limit interrupt can leave a span unclosed; close it at op end.
        end = np.where(arr[:, 3] > 0.0, arr[:, 3], op_end)
        dur = end - arr[:, 2]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        self.calls += np.bincount(name, minlength=width)
        self.total_s += np.bincount(name, weights=dur, minlength=width)
        self.self_s += np.bincount(name, weights=own, minlength=width)
        for idx, count in self._items.items():
            self.items[name[idx]] += count
        layer = [self.names[i].split(".", 1)[0] for i in range(width)]
        for idx, exc in self._raised.items():
            p = parent[idx]
            leaves_layer = bool(p < 0 or layer[name[p]] != layer[name[idx]])
            key = (self.names[name[idx]], exc, leaves_layer)
            self.raised[key] = self.raised.get(key, 0) + 1
        if len(self.kept) + n <= KEEP_SPANS:
            op = self.ops - 1
            self.kept.extend([op, int(name[i]), int(parent[i]),
                              float(arr[i, 2] - self._t0), float(end[i] - self._t0)]
                             for i in range(n))

    # -- queries ------------------------------------------------------------

    def _select(self, acc: str, names=None, prefix: Optional[str] = None) -> float:
        arr = getattr(self, acc)
        total = 0.0
        for i, n in enumerate(self.names):
            if i < len(arr) and ((names is not None and n in names)
                                 or (prefix is not None and n.startswith(prefix))):
                total += float(arr[i])
        return total

    def calls_of(self, *names: str) -> float:
        return self._select("calls", names=names)

    def total_of(self, *names: str) -> float:
        return self._select("total_s", names=names)

    def self_of(self, *names: str) -> float:
        return self._select("self_s", names=names)

    def items_of(self, *names: str) -> float:
        return self._select("items", names=names)

    def layer_self(self, layer: str) -> float:
        return self._select("self_s", prefix=layer + ".")

    def raised_from(self, layer: str) -> dict[str, int]:
        """Exceptions by type, counted once where they leave ``layer``."""
        out: dict[str, int] = {}
        for (name, exc, leaves_layer), count in self.raised.items():
            if leaves_layer and name.startswith(layer + "."):
                out[exc] = out.get(exc, 0) + count
        return out

    def raised_by(self, *names: str) -> int:
        """Exceptions raised out of any span of these names."""
        return sum(count for (name, _, _), count in self.raised.items()
                   if name in names)

    def write(self, path) -> None:
        """Write the kept spans and the per-name totals as JSON."""
        totals = {n: {"calls": int(self.calls[i]), "total_s": float(self.total_s[i]),
                      "self_s": float(self.self_s[i]), "items": int(self.items[i])}
                  for i, n in enumerate(self.names)
                  if i < len(self.calls) and self.calls[i] > 0}
        doc = {
            "span_fields": ["op", "name", "parent", "start_s", "end_s"],
            "names": self.names,
            "ops": self.ops,
            "spans_recorded": self.span_count,
            "spans_kept": len(self.kept),
            "spans": self.kept,
            "totals": totals,
            "raised": [{"span": n, "type": e, "leaves_layer": b, "count": c}
                       for (n, e, b), c in sorted(self.raised.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
