"""Outside-in tracing: spans around the module-level names the CLI and engine call.

Nothing in the program is edited.  ``install`` replaces each traced name
in its module with a wrapper that records a span (name, start, end,
parent, request id) and ``uninstall`` puts the originals back, so an
untraced run executes exactly the program's own code.  Each layer's self
time is its spans' time minus the time of their direct child spans.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter

LAYERS = (
    "cli",
    "presentation.parse",
    "presentation.serialize",
    "presentation.dedup",
    "words.canonical",
    "engine",
    "engine.short_elim",
    "engine.long_elim",
    "engine.rewrite",
    "skip",
    "match.search",
    "fingerprint.index_build",
    "automaton.build",
    "verify.check",
)

# (module attribute of the tietze namespace, name in that module, layer)
TRACED_NAMES = (
    ("cli", "main", "cli"),
    ("cli", "parse_presentation", "presentation.parse"),
    ("cli", "serialize_presentation", "presentation.serialize"),
    ("cli", "simplify", "engine"),
    ("engine", "sort_rel", "presentation.dedup"),
    ("engine", "remove_duplicates", "presentation.dedup"),
    ("presentation", "canonical_rep", "words.canonical"),
    ("engine", "short_eliminate", "engine.short_elim"),
    ("engine", "long_eliminate", "engine.long_elim"),
    ("engine", "apply_replacement", "engine.rewrite"),
    ("engine", "run_pass", "skip"),
    ("strategies", "PatternIndex", "fingerprint.index_build"),
    ("strategies", "build_ls_automaton", "automaton.build"),
)


class _StrategyProxy:
    """Stands in for the strategy ``engine.make_strategy`` returns; times ``search``."""

    def __init__(self, inner, search):
        self._inner = inner
        self.search = search

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self._layer = {name: i for i, name in enumerate(LAYERS)}
        self._saved: list[tuple[object, str, object]] = []
        self.request = -1
        self.reset()

    def reset(self) -> None:
        """Forget all spans and totals (one call per traced round)."""
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.duplicates_removed = 0
        self.reorders: list[int] = []   # EngineStats.reorders, one per simplify call
        self._stack: list[list] = []    # [span index, time covered by children]
        self.span_layer = array("H")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def wrap(self, layer: str, fn):
        k = self._layer[layer]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_layer.append(k)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.self_s[k] += (t1 - t0) - frame[1]
                self.calls[k] += 1
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def install(self, tietze) -> None:
        """Wrap every traced name; ``tietze`` maps short module names to modules."""
        for mod_name, attr, layer in TRACED_NAMES:
            module = tietze[mod_name]
            self._replace(module, attr, self.wrap(layer, getattr(module, attr)))

        engine = tietze["engine"]
        remove_duplicates = engine.remove_duplicates

        def counting_remove_duplicates(pres):
            removed = remove_duplicates(pres)
            self.duplicates_removed += len(removed)
            return removed

        engine.remove_duplicates = counting_remove_duplicates

        cli = tietze["cli"]
        simplify = cli.simplify

        def capturing_simplify(pres, cfg=None):
            result = simplify(pres, cfg)
            self.reorders.append(result[1].reorders)
            return result

        cli.simplify = capturing_simplify

        make_strategy = engine.make_strategy

        def proxy_make_strategy(*args, **kwargs):
            inner = make_strategy(*args, **kwargs)
            return _StrategyProxy(inner, self.wrap("match.search", inner.search))

        self._replace(engine, "make_strategy", proxy_make_strategy)

    def _replace(self, module, attr, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        # restoring the saved originals also drops the counting shims
        # installed on top of remove_duplicates and simplify
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_self_s(self, layer: str) -> float:
        return self.self_s[self._layer[layer]]

    def layer_calls(self, layer: str) -> int:
        return self.calls[self._layer[layer]]

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as gzipped CSV; returns the span count.

        Columns: request, span, parent span (-1 for a root), layer, start
        and end in seconds of ``time.perf_counter``.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("request,span,parent,layer,start_s,end_s\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.span_request[i]},{i},{self.span_parent[i]},"
                        f"{LAYERS[self.span_layer[i]]},{self.span_start[i]!r},{self.span_end[i]!r}\n")
        return len(self.span_start)
