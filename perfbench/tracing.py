"""Spans around kgcqr's public functions, recorded from outside the program.

``install`` replaces the public entry points of the runtime, graph,
vindex, pipeline, retrieval, providers, construction and metrics layers
with timing wrappers, everywhere a kgcqr module holds a reference to
them. Each call records one span: name, start, end, the span that caused
it (per thread) and a few attributes read from its arguments or result.
Spans stay in memory until ``dump``. Nothing here changes what the wrapped
functions return.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._inflight = 0
        self.provider_peak = 0

    def wrap(self, name, fn, attrs=None, provider=False):
        """A wrapper around ``fn`` that records a span per call. ``attrs``
        maps (args, kwargs, result) to a dict stored with the span; a
        ``provider`` wrapper also counts calls in flight for
        ``provider_peak``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
                if provider:
                    self._inflight += 1
                    self.provider_peak = max(self.provider_peak, self._inflight)
            stack.append(idx)
            t0 = time.perf_counter()
            extra = {"error": True}
            try:
                result = fn(*args, **kwargs)
                extra = attrs(args, kwargs, result) if attrs else {}
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if provider:
                    with self._lock:
                        self._inflight -= 1
                self.spans[idx] = (name, t0, t1, parent, extra)

        return traced

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "provider_peak": self.provider_peak}), encoding="utf-8"
        )


def _replace_everywhere(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "kgcqr" or name.startswith("kgcqr."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _wrap_method(tracer: Tracer, cls, meth: str, name: str, attrs=None) -> None:
    raw = cls.__dict__[meth]
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__, attrs)))
    else:
        setattr(cls, meth, tracer.wrap(name, raw, attrs))


def _stage_attrs(args, kwargs, result) -> dict:
    stages = {k: v.get("wall_ms", 0.0) for k, v in result.trace.items()}
    done = result.trace.get("complete", {})
    return {"stages": stages, "expansions": done.get("expansions", 0), "paths": done.get("paths", 0)}


def install(tracer: Tracer) -> None:
    import kgcqr.cli  # noqa: F401  (imports every layer, so every alias exists)
    from kgcqr import construction, graph, metrics, pipeline, retrieval, runtime, vindex

    for mod, fn_name, attrs in (
        (pipeline, "contextualize", _stage_attrs),
        (pipeline, "extract_subgraph", None),
        (pipeline, "filter_subgraph", None),
        (pipeline, "complete_subgraph", None),
        (pipeline, "generate_context", None),
        (pipeline, "fuse", None),
        (retrieval, "bm25_build", None),
        (retrieval, "dense_retrieve", None),
        (construction, "build_kg", None),
        (construction, "extract_triples", None),
        (metrics, "evaluate", None),
        (graph, "load_corpus", None),
    ):
        original = getattr(mod, fn_name)
        short = mod.__name__.rsplit(".", 1)[-1]
        _replace_everywhere(original, tracer.wrap(f"{short}.{fn_name}", original, attrs))

    _wrap_method(tracer, runtime.Runtime, "load", "runtime.load")
    _wrap_method(tracer, runtime.Runtime, "retrieve", "runtime.retrieve")
    _wrap_method(tracer, graph.KnowledgeGraph, "load", "graph.load")
    _wrap_method(tracer, graph.KnowledgeGraph, "save", "graph.save")
    _wrap_method(tracer, vindex.VectorIndex, "load", "vindex.load")
    _wrap_method(tracer, vindex.VectorIndex, "save", "vindex.save")
    _wrap_method(tracer, vindex.VectorIndex, "search", "vindex.search")

    make_providers = runtime.make_providers

    def traced_providers(cfg, mock):
        bundle = make_providers(cfg, mock)
        bundle.chat = tracer.wrap(
            "providers.chat", bundle.chat, lambda a, k, r: {"template": a[0].meta.get("template", "")}, True
        )
        bundle.embed = tracer.wrap("providers.embed", bundle.embed, lambda a, k, r: {"texts": len(r)}, True)
        return bundle

    _replace_everywhere(make_providers, traced_providers)
