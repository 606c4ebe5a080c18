"""Spans around the program's public entry points, recorded from outside.

:class:`Tracer` rebinds each entry point listed in :data:`ENTRY_POINTS`
under every name that an ``annular`` module binds it to (module globals,
and functions held in module-level dicts or tuples such as the CLI's
dispatch tables), so calls between layers pass through a wrapper.  A
wrapper records a span — name, layer, start, end, parent — and the time
of its child spans; stream functions instead return an iterator wrapper
that accumulates the time spent producing elements and counts them.
Per-element functions (``compose``, ``orientable_genus``, frames, ...)
are not wrapped: their time falls into the calling layer's self time
and the microbenchmarks measure them.

Names that no longer exist are recorded in ``absent`` instead of failing,
so the trace survives refactors that remove or rename entry points.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import importlib
import sys
import time

from spec import STREAMS

ENTRY_POINTS = {
    "streams": STREAMS,
    "maps": (
        "family_a",
        "family_a_counts",
        "family_b",
        "family_b_counts",
        "family_a_tilde",
        "family_a_tilde_counts",
        "family_b_tilde",
        "family_b_tilde_counts",
        "family_a_hat",
        "family_b_hat",
    ),
    "noncrossing": ("family_nc",),
    "bijections": (
        "verify_phi1",
        "verify_phi2",
        "verify_torus_equality",
        "verify_phi1_tilde",
        "verify_phi2_tilde",
        "verify_a_tilde_equality",
        "verify_phi1_hat",
        "verify_phi2_hat",
        "verify_a_hat_equality",
        "verify_lemma3",
        "conjecture_table",
    ),
    "polynomial": (
        "MomentPolynomial.__post_init__",
        "MomentPolynomial.evaluate",
        "MomentPolynomial.to_json_dict",
        "MomentPolynomial.__str__",
    ),
    "moments": (
        "wick_moment",
        "genus_expansion_moment",
        "correction_coefficient",
        "wick_oracle_smallN",
    ),
    "montecarlo": ("mc_moment",),
    "cli": ("main", "classify_permutation"),
}

# Layers whose spans carry kept/scanned counts.
FILTER_LAYERS = ("maps", "noncrossing")
REPORT_LAYER = "bijections"

# span fields
NAME, LAYER, START, END, PARENT, CHILD_TIME, EXTRA = range(7)


def _kept(result) -> int:
    """Members a family builder returned (histograms: their total)."""
    try:
        if isinstance(result, dict):
            return sum(result.values())
        return len(result)
    except TypeError:  # a refactored builder returning an iterator
        return 0


class _TracedStream:
    """Iterator wrapper: time inside ``__next__`` and the yield count."""

    __slots__ = ("_inner", "_span", "_tracer")

    def __init__(self, inner, span, tracer):
        self._inner = inner
        self._span = span
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        start = time.perf_counter()
        try:
            item = next(self._inner)
        finally:
            end = time.perf_counter()
            span = self._span
            span[CHILD_TIME] += end - start  # a stream span's busy time
            span[END] = end
            if tracer.stack:
                tracer.spans[tracer.stack[-1]][CHILD_TIME] += end - start
        span[EXTRA]["yielded"] += 1
        tracer.yielded += 1
        return item


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.yielded = 0
        self.absent: list[str] = []
        self._building_stream = False
        self._undo: list = []
        self.origin = 0.0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        self.origin = time.perf_counter()
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "annular" or name.startswith("annular."))
        ]
        for layer, names in ENTRY_POINTS.items():
            try:
                module = importlib.import_module(f"annular.{layer}")
            except ImportError:
                self.absent += [f"{layer}.{n}" for n in names]
                continue
            for name in names:
                if "." in name:
                    self._wrap_method(module, layer, name)
                    continue
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                if layer == "streams":
                    wrapper = self._stream_wrapper(f"{layer}.{name}", original)
                else:
                    wrapper = self._span_wrapper(f"{layer}.{name}", layer, original)
                self._rebind(modules, original, wrapper)

    def _wrap_method(self, module, layer, dotted) -> None:
        cls_name, meth = dotted.split(".")
        cls = getattr(module, cls_name, None)
        original = cls.__dict__.get(meth) if cls is not None else None
        if not callable(original):
            self.absent.append(f"{layer}.{dotted}")
            return
        setattr(cls, meth, self._span_wrapper(f"{layer}.{dotted}", layer, original))
        self._undo.append((setattr, cls, meth, original))

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))
                        elif isinstance(item, tuple) and any(x is original for x in item):
                            value[key] = tuple(wrapper if x is original else x for x in item)
                            self._undo.append((dict.__setitem__, value, key, item))

    def uninstall(self) -> None:
        for setter, target, key, original in reversed(self._undo):
            setter(target, key, original)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------

    def _open(self, name, layer, extra=None) -> tuple[int, list]:
        parent = self.stack[-1] if self.stack else -1
        span = [name, layer, time.perf_counter(), 0.0, parent, 0.0, extra]
        self.spans.append(span)
        return len(self.spans) - 1, span

    def _span_wrapper(self, name, layer, original):
        tracer = self
        counts_kept = layer in FILTER_LAYERS

        def wrapper(*args, **kwargs):
            index, span = tracer._open(name, layer)
            yielded_before = tracer.yielded
            tracer.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[END] = time.perf_counter()
                if span[PARENT] >= 0:
                    tracer.spans[span[PARENT]][CHILD_TIME] += span[END] - span[START]
            if counts_kept:
                span[EXTRA] = {
                    "kept": _kept(result),
                    "scanned": tracer.yielded - yielded_before,
                }
            elif layer == REPORT_LAYER:
                span[EXTRA] = {"reports": len(result) if isinstance(result, tuple) else 1}
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _stream_wrapper(self, name, original):
        tracer = self

        def wrapper(*args, **kwargs):
            # A stream built from another stream is traced once, outermost.
            if tracer._building_stream:
                return original(*args, **kwargs)
            tracer._building_stream = True
            try:
                inner = original(*args, **kwargs)
            finally:
                tracer._building_stream = False
            _, span = tracer._open(name, "streams", {"yielded": 0})
            span[END] = span[START]
            return _TracedStream(iter(inner), span, tracer)

        wrapper.__wrapped__ = original
        return wrapper

    # -- summaries -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent outside its traced children."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[LAYER] == "streams":
                own = span[CHILD_TIME]
            else:
                own = span[END] - span[START] - span[CHILD_TIME]
            out[span[LAYER]] = out.get(span[LAYER], 0.0) + own
        return out

    def top_level_time(self) -> float:
        total = 0.0
        for span in self.spans:
            if span[PARENT] != -1:
                continue
            if span[LAYER] == "streams":
                total += span[CHILD_TIME]
            else:
                total += span[END] - span[START]
        return total

    def yielded_by_stream(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for span in self.spans:
            if span[LAYER] == "streams":
                out[span[NAME]] = out.get(span[NAME], 0) + span[EXTRA]["yielded"]
        return out

    def kept_scanned(self) -> dict[str, tuple[int, int]]:
        out: dict[str, tuple[int, int]] = {}
        for span in self.spans:
            if span[LAYER] in FILTER_LAYERS and span[EXTRA] is not None:
                kept, scanned = out.get(span[NAME], (0, 0))
                out[span[NAME]] = (
                    kept + span[EXTRA]["kept"],
                    scanned + span[EXTRA]["scanned"],
                )
        return out

    def reports(self) -> int:
        """Reports (or table rows) returned by the outermost bijection drivers."""
        return sum(
            span[EXTRA]["reports"]
            for span in self.spans
            if span[LAYER] == REPORT_LAYER
            and (span[PARENT] < 0 or self.spans[span[PARENT]][LAYER] != REPORT_LAYER)
        )

    def dump(self) -> list[dict]:
        origin = self.origin
        return [
            {
                "name": s[NAME],
                "layer": s[LAYER],
                "start": s[START] - origin,
                "end": s[END] - origin,
                "parent": s[PARENT],
                "child_or_busy_s": s[CHILD_TIME],
                **(s[EXTRA] or {}),
            }
            for s in self.spans
        ]
