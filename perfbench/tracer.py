"""Spans and counters recorded around weylkit's public functions.

The tracer patches wrappers into every weylkit module that binds a traced
function (``divide_exact`` is bound in charring, demazure, selftest and the
package itself), and onto classes for methods, and restores every original
in ``restore()``. Nothing inside ``src/`` changes.

A span records its name, start, end, parent span and op id in flat arrays,
kept in memory until the run ends. Hot leaf functions get counts only. Self
time is a span's duration minus the durations of its direct children; the
inclusive ``.s`` time of a name counts only spans with no ancestor of the
same name, so recursion is not counted twice.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, function, True for a span or False for a count only); the metric
# name is module.function
FUNCTIONS = (
    ("rootdata", "build_root_datum", True),
    ("weyl", "weyl_group", True),
    ("weyl", "orbit", False),
    ("charring", "divide_exact", True),
    ("charring", "divide_exact_general", True),
    ("charring", "weyl_act_simple", True),
    ("charring", "antisymmetrize", True),
    ("demazure", "delta", False),
    ("demazure", "delta_prime", False),
    ("demazure", "top", True),
    ("demazure", "alternating_quotient", True),
    ("repring", "irreducible_character", True),
    ("repring", "decompose_into_irreducibles", True),
    ("repring", "steinberg_basis", True),
    ("repring", "decompose_over_invariants", True),
    ("hecke", "to_basis", True),
    ("hecke", "is_weyl_invariant", True),
    ("hecke", "is_ideal_invariant", True),
    ("intlinalg", "solve_rational_unique", True),
    ("intlinalg", "smith_normal_form", True),
    ("covers", "build_cover", True),
    ("covers", "decompose_cover", True),
    ("covers", "reconstruct_cover", True),
    ("parsing", "parse_char_expression", True),
    ("parsing", "parse_operator_expression", True),
)

# (module, class, method, metric name, span or count); aliases such as
# CharElt.__rmul__ = __mul__ share the wrapper
METHODS = (
    ("charring", "CharElt", "__mul__", "charring.mul", True),
    ("charring", "CharElt", "__add__", "charring.addsub", True),
    ("charring", "CharElt", "__sub__", "charring.addsub", True),
    ("rootdata", "RootDatum", "is_dominant", "rootdata.is_dominant", False),
    ("weyl", "WeylGroup", "all_reduced_words", "weyl.all_reduced_words", False),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.nested = array("b")
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.op_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _parent_name(self) -> str | None:
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def span(self, name: str, fn, before=None, after=None):
        """A wrapper around fn that records one span per call."""
        nid = self.name_id(name)
        start, end, parent, names, ops, nested = (
            self.start, self.end, self.parent, self.name, self.op, self.nested,
        )
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            nested.append(active[nid] > 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def timed(self, name: str):
        """A span opened by the benchmark itself, such as one CLI verb."""
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(self.name_id(name))
        self.op.append(self.op_id)
        self.nested.append(False)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    # -- hooks for the per-layer counts ---------------------------------------

    def _hooks(self, name: str):
        counts = self.counts
        from weylkit.charring import CharElt

        if name == "charring.mul":
            def before(args, kwargs):
                a, b = args
                counts["charring.mul.term_pairs"] += len(a) * (len(b) if isinstance(b, CharElt) else 1)
            return before, None
        if name == "charring.divide_exact":
            def before(args, kwargs):
                counts["charring.divide_exact.terms_in"] += len(args[0])
            return before, None
        if name == "repring.irreducible_character":
            def before(args, kwargs):
                if self._parent_name() == "repring.decompose_into_irreducibles":
                    counts["repring.decompose.peels"] += 1
            return before, None
        if name == "repring.decompose_into_irreducibles":
            def after(result):
                counts["repring.decompose.components"] += len(result)
            return None, after
        if name == "intlinalg.solve_rational_unique":
            def before(args, kwargs):
                rows = args[0] if args else kwargs["rows"]
                ncols = args[2] if len(args) > 2 else kwargs["ncols"]
                counts["intlinalg.solve_rational_unique.rows"] += len(rows)
                counts["intlinalg.solve_rational_unique.cols"] += ncols
                if self._parent_name() == "repring.decompose_over_invariants":
                    counts["repring.decompose_over_invariants.solves"] += 1
                    counts["repring.decompose_over_invariants.unknowns"] += ncols
            return before, None
        return None, None

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name that exists; a function a later version
        removes is skipped, and its metrics read 0."""
        import weylkit  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "weylkit" or n.startswith("weylkit.")]
        for mod_name, attr, is_span in FUNCTIONS:
            original = getattr(sys.modules.get(f"weylkit.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", is_span, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for mod_name, cls_name, attr, name, is_span in METHODS:
            cls = getattr(sys.modules.get(f"weylkit.{mod_name}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, is_span, original)
            for alias, value in list(vars(cls).items()):
                if value is original:
                    self._patch(cls, alias, wrapper)

    def _wrap(self, name: str, is_span: bool, fn):
        return self.span(name, fn, *self._hooks(name)) if is_span else self.counter(name, fn)

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-name call counts, inclusive and self seconds, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_s: Counter = Counter()
        names, nested = self.name, self.nested
        for i in range(n):
            nid = names[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if not nested[i]:
                incl[nid] += dur
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.s"] = incl[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out.update(self.counts)
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
