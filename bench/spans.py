"""Spans around the public functions of each capmatch layer.

The wrappers live here, outside the package: ``src/`` carries no tracing of
its own yet.  A function is wrapped at every binding site, i.e. every module
attribute that *is* the original function object is replaced, because the
package imports its functions by name (``gale_shapley`` is called through
``capmatch.minmax`` and ``capmatch.minsum``, ``build_solution`` through
``minmax``, ``minsum`` and ``twocost``, and so on).  Patching only the
defining module would miss those calls.

``twocost.edge_lhs`` is deliberately not wrapped: it runs once per edge per
``z`` entry, and a span there would swamp the trace.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Layer (module under src/capmatch/) -> public functions that get a span.
LAYER_FUNCTIONS = {
    "model": ("parse_instance", "solution_to_json"),
    "stability": ("gale_shapley", "envy_free_to_stable", "is_stable_augmented",
                  "build_solution"),
    "minmax": ("solve_minmax", "feasible_at", "candidate_costs", "budget_quotas"),
    "minsum": ("lp_approx_run", "classify_programs"),
    "twocost": ("solve_two_cost", "check_dual_feasible"),
    "cli": ("run_solve", "run_verify"),
}
# Instance validation and the two lazily built rank tables (cached properties).
VALIDATE_SPAN = "model.validate"
RANK_SPAN = "model.rank_tables"
RANK_PROPERTIES = ("agent_rank", "program_rank")

SPAN_NAMES = tuple(
    [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]
    + [VALIDATE_SPAN, RANK_SPAN]
)


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def take(self) -> list[list]:
        """Hand over the recorded spans and start afresh."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer, modules: dict) -> list[tuple]:
    """Wrap every layer function at every binding site in ``modules``
    (``{"capmatch.minmax": <module>, ...}``).  Returns the patch list that
    :func:`uninstall` reverts.  A function missing from its layer raises
    AttributeError, so a rename fails loudly instead of zeroing a layer."""
    patches: list[tuple] = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = modules[f"capmatch.{layer}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            traced = tracer.wrap(f"{layer}.{fn_name}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, traced)

    instance = modules["capmatch.model"].Instance
    original = instance.__dict__["_validate"]
    patches.append((instance, "_validate", original))
    instance._validate = tracer.wrap(VALIDATE_SPAN, original)
    for prop in RANK_PROPERTIES:
        original = instance.__dict__[prop]
        traced = functools.cached_property(tracer.wrap(RANK_SPAN, original.func))
        traced.__set_name__(instance, prop)
        patches.append((instance, prop, original))
        setattr(instance, prop, traced)
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def root_gaps(spans: list[list]) -> list[float]:
    """Per root span: |root duration - sum of self times in its tree|.

    Zero up to rounding when every span closed and none overlapped its
    siblings, i.e. when the children plus the self time account for the
    whole root."""
    own = self_times(spans)
    root_of: list[int] = []
    totals: dict[int, float] = defaultdict(float)
    for i, (_, _, _, parent) in enumerate(spans):
        root = i if parent is None else root_of[parent]
        root_of.append(root)
        totals[root] += own[i]
    return [abs((spans[r][2] - spans[r][1]) - total) for r, total in totals.items()]


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Span name -> inclusive seconds ``s``, ``self_s`` and ``calls``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, (name, start, end, _) in enumerate(spans):
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += own[i]
        entry["calls"] += 1
    return dict(out)
