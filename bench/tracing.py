"""Spans around the calls into psifoc's layers, installed from outside.

The tracer replaces public functions and a few hot methods with timing
wrappers.  A function is patched in every psifoc module that holds it,
because ``from .psi import gauss_binomial`` copies the reference into
``qplane`` and ``matrices``.  Each call is a span (name, start, end,
parent); self time is its duration minus the time its child spans cover.

Spans are kept in memory and written when the run ends.  Calls into
``scalars`` run millions of times on the symbolic workload, so they are
counted and timed per name (their time still leaves their parent's self
time) but not stored as individual spans.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = ("scalars", "psi", "qhat", "qplane", "matrices", "cli")

# Trivial helpers called per coefficient; wrapping them would cost more
# than they do.  Their time stays in the caller's self time.
SKIP = {
    "scalars": {"normalize", "is_rational", "is_ratfunc", "same_tag",
                "zero_like", "one_like", "neg"},
}

# Methods timed as calls into the class's layer.  Aliases such as
# RatFunc.__radd__ share the function object and therefore the name.
METHODS = {
    "scalars": ("RatFunc", ("__add__", "__radd__", "__sub__", "__mul__",
                            "__rmul__", "__truediv__", "__pow__")),
    "qhat": ("DiagOperator", ("__add__", "__mul__", "__pow__")),
    "qplane": ("QPlanePoly", ("__add__", "__mul__", "__pow__")),
    "matrices": ("ScalarMatrix", ("__matmul__", "__add__", "__sub__",
                                  "scale", "scale_rows", "apply")),
}

MAX_SPANS = 300_000


class Tracer:
    """Per-name call counts and self time, plus the stored spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        # span storage: span id, name id, start, end, parent id, op id
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.dropped = 0
        self.op_id = -1
        # frame: [child time, span id]; the root frame collects top spans
        self._stack = [[0.0, -1]]
        self._next = 0
        self._undo: list = []
        self.hooks: dict = {}
        # spans are recorded only inside call_op, so output checks that
        # call back into psifoc (str() of a RatFunc renders) are not timed
        self._active = [False]
        self._run_op = self.wrap("bench.op", lambda fn: fn())

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, keep: bool = True):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(name)
        active = self._active

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            frame = [0.0, sid]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[0]
                if keep:
                    if len(self.span_name) < MAX_SPANS:
                        self.span_id.append(sid)
                        self.span_name.append(nid)
                        self.span_start.append(start)
                        self.span_end.append(end)
                        self.span_parent.append(parent[1])
                        self.span_op.append(self.op_id)
                    else:
                        self.dropped += 1
            if hook is not None:
                hook(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and listed methods."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "psifoc"
                                        or name.startswith("psifoc."))}
        for layer in LAYERS:
            mod = mods.get(f"psifoc.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or attr in SKIP.get(layer, ())):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", obj,
                                    keep=layer != "scalars")
                for holder in mods.values():
                    for hname, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._undo.append((holder, hname, obj))
                            setattr(holder, hname, wrapper)
            cls_name, methods = METHODS.get(layer, (None, ()))
            cls = getattr(mod, cls_name, None) if cls_name else None
            if cls is None:
                continue
            wrapped: dict = {}
            for meth in methods:
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(
                        f"{layer}.{cls_name}.{fn.__name__}", fn,
                        keep=layer != "scalars")
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, wrapped[id(fn)])

    def uninstall(self) -> None:
        for holder, name, obj in reversed(self._undo):
            setattr(holder, name, obj)
        self._undo.clear()

    def call_op(self, op_id: int, fn):
        """Run one benchmark op under a root span tagged with its id."""
        self.op_id = op_id
        self._active[0] = True
        try:
            return self._run_op(fn)
        finally:
            self._active[0] = False

    # -- summaries --------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_s):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out

    def dump(self) -> dict:
        spans = [[self.span_id[i], self.span_name[i],
                  round(self.span_start[i], 7), round(self.span_end[i], 7),
                  self.span_parent[i], self.span_op[i]]
                 for i in range(len(self.span_name))]
        return {"names": self.names,
                "per_name": {n: {"calls": c, "self_s": s} for n, c, s
                             in zip(self.names, self.calls, self.self_s)},
                "span_fields": ["id", "name", "start", "end", "parent", "op"],
                "spans": spans, "spans_dropped": self.dropped}
