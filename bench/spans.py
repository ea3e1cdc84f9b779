"""Spans around the public functions of ``invsg``, recorded from outside.

The tracer replaces every public function of the layer modules, in every
``invsg`` namespace that binds it, with a wrapper that records a span
(name, start, end, parent) and the self time of the call: its duration
minus the time covered by its child spans.  Modules call each other
through their own namespaces (``algebra`` calls ``multiplication_tables``
through its import), so patching every binding is what makes nested
calls visible.  The public methods named in ``METHODS`` are wrapped on
their classes.

Counts come from hooks that look at a call's arguments and result, so
they repeat exactly; byte counts are computed from array sizes.
Exceptions are counted once, at the innermost span they pass through,
and warnings are attributed to the layer of the innermost active span.
No source file of the package is touched: ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from types import ModuleType
from typing import Any, Callable

LAYERS = ("groups", "semigroup", "actions", "reps", "algebra", "graded", "cli")

# public methods wrapped on their classes: the pair scans and the action table
METHODS = {
    "actions": {"InverseAction": ("table", "check_multiplicative")},
    "reps": {
        "SgRepresentation": (
            "max_multiplicative_deviation",
            "max_star_deviation",
            "max_partial_isometry_deviation",
        )
    },
}

Hook = Callable[["Tracer", tuple, dict, Any, float], None]


class Tracer:
    """Span recorder plus counters; install it around the traced code only."""

    def __init__(self, package: ModuleType, modules: dict[str, ModuleType]):
        self.package = package
        self.modules = modules
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.errors: Counter[tuple[str, str]] = Counter()
        self.warnings: Counter[tuple[str, str]] = Counter()
        self.top_level_s = 0.0
        self.spans: list[tuple] | None = None  # set to a list to keep every span
        self.trace_id = 0  # the op whose spans are being recorded
        self._stack: list[list] = []
        self._next_id = 0
        self._last_exc: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, Callable] = {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter
        hook = HOOKS.get(name)

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0, name]  # id, time covered by children, name
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                tracer.self_s[name] += own
                tracer.calls[name] += 1
                if parent is None:
                    tracer.top_level_s += duration
                else:
                    parent[1] += duration
                if tracer.spans is not None:
                    tracer.spans.append(
                        (tracer.trace_id, frame[0], parent[0] if parent else None, name, start, end)
                    )
            if hook is not None:
                hook(tracer, args, kwargs, result, own)
            return result

        span.__wrapped__ = fn
        return span

    def original(self, name: str) -> Callable:
        """The unwrapped callable behind span ``name``."""
        return self._originals[name]

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                wrappers[id(obj)] = self._wrap(name, obj)
        for ns in (self.package, *self.modules.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(self.modules[layer], cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._originals[name] = orig
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    def showwarning(self, message, category, filename, lineno, file=None, line=None) -> None:
        """``warnings.showwarning`` replacement: count instead of print."""
        layer = self._stack[-1][2].split(".", 1)[0] if self._stack else "untraced"
        self.warnings[(layer, category.__name__)] += 1

    def totals(self) -> dict[str, float]:
        """Flat totals keyed by per-layer metric name."""
        out: dict[str, float] = {}
        for name, s in self.self_s.items():
            out[f"{name}.s"] = s
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        out.update(self.counts)
        for (name, exc_type), n in self.errors.items():
            layer = name.split(".", 1)[0]
            out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + n
            out[f"{name}.errors"] = out.get(f"{name}.errors", 0) + n
            out[f"{name}.errors.{exc_type}"] = out.get(f"{name}.errors.{exc_type}", 0) + n
        for (layer, category), n in self.warnings.items():
            if category == "RuntimeWarning":
                key = f"{layer}.numpy_warnings"
                out[key] = out.get(key, 0) + n
        return out


# -- hooks: exact counts from arguments and results ----------------------


def _matmuls(tr: Tracer, count: int, dim: int, itemsize: int) -> None:
    # one d x d product reads two operands and writes one (computed bytes)
    tr.counts["reps.matmuls"] += count
    tr.counts["reps.matmul_bytes"] += count * 3 * dim * dim * itemsize


def _enumerate(tr, args, kwargs, result, own):
    tr.counts["semigroup.enumerate_semigroup.elements"] += len(result)


def _tables(tr, args, kwargs, result, own):
    mult, star, _ = result
    tr.counts["semigroup.multiplication_tables.bytes"] += mult.nbytes + star.nbytes


def _verify(tr, args, kwargs, report, own):
    tr.counts["semigroup.verify.cases"] += sum(c.checked for c in report.checks)
    tr.counts["semigroup.verify.sampled_checks"] += sum(c.mode == "sampled" for c in report.checks)


def _check_multiplicative(tr, args, kwargs, witness, own):
    # the table is cached on the action, so this lookup does no new work
    table = tr.original("actions.InverseAction.table")(*args, **kwargs)
    n = len(table)
    if witness is None:
        tr.counts["actions.check_multiplicative.pairs"] += n * n
    else:
        keys = list(table)
        tr.counts["actions.check_multiplicative.pairs"] += keys.index(witness[0]) * n + keys.index(witness[1]) + 1


def _validate_rep(tr, args, kwargs, report, own):
    rep = args[0]
    _matmuls(tr, 3 * rep.group.order**2, rep.dim, rep.matrices[0].dtype.itemsize)


def _extend_rep(tr, args, kwargs, sgrep, own):
    rep = args[0]
    count = rep.group.order + sum(bin(a.support).count("1") + 1 for a in sgrep.table)
    _matmuls(tr, count, rep.dim, rep.matrices[0].dtype.itemsize)


def _itemsize(sgrep) -> int:
    return next(iter(sgrep.table.values())).dtype.itemsize


def _multiplicative_dev(tr, args, kwargs, result, own):
    sgrep = args[0]
    _matmuls(tr, len(sgrep.table) ** 2, sgrep.dim, _itemsize(sgrep))


def _isometry_dev(tr, args, kwargs, result, own):
    sgrep = args[0]
    _matmuls(tr, 2 * len(sgrep.table), sgrep.dim, _itemsize(sgrep))


def _closure(tr, args, kwargs, found, own):
    pieces = args[0]
    gens = set(pieces.values()) if hasattr(pieces, "values") else set(pieces)
    tr.counts["graded.closure.new"] += len(found) - len(gens)


def _cli_run(tr, args, kwargs, code, own):
    argv = args[0] if args else kwargs.get("argv")
    tr.self_s[f"cli.{argv[0]}.{argv[1]}"] += own


HOOKS: dict[str, Hook] = {
    "semigroup.enumerate_semigroup": _enumerate,
    "semigroup.multiplication_tables": _tables,
    "semigroup.verify_inverse_semigroup": _verify,
    "actions.InverseAction.check_multiplicative": _check_multiplicative,
    "reps.validate_partial_rep": _validate_rep,
    "reps.extend_to_semigroup": _extend_rep,
    "reps.SgRepresentation.max_multiplicative_deviation": _multiplicative_dev,
    "reps.SgRepresentation.max_partial_isometry_deviation": _isometry_dev,
    "graded.generated_semigroup": _closure,
    "cli.run": _cli_run,
}
