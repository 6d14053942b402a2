"""In-memory span tracing of dcrit's public functions.

`Tracer.install()` replaces every public function of every `dcrit`
submodule, at every module binding that refers to it, with a wrapper that
records a span (name, start, end, parent).  Callers inside dcrit look their
callees up in their own module's namespace, so rebinding there is what
catches, say, `buchberger` as called from `dcrit.cohomology`.  `uninstall()`
puts the original objects back.  Nothing under `src/` is edited.

A few boundaries also record counts (rows and nonzeros handed to
`rank_rows`, distinct ideals handed to `buchberger`, ...), measured where
the work happens, as the layer metrics in README.md ask.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Per-term helpers that run millions of times inside polynomial arithmetic
# and sorting; a span costs more than their bodies, so tracing them would
# mostly measure the tracer.
UNTRACED = frozenset({
    "poly.degrevlex_key", "poly.exps_add", "poly.monomial_str",
    "exterior.merge_sign",
})


def self_times(names, starts, ends, parents):
    """Per-name (calls, total self seconds) from a list of nested spans.

    A span's self time is its duration minus the durations of its direct
    children; spans are strictly nested because dcrit runs in one thread.
    """
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls = Counter()
    selfs = defaultdict(float)
    for i, name in enumerate(names):
        calls[name] += 1
        selfs[name] += (ends[i] - starts[i]) - child[i]
    return {name: (calls[name], selfs[name]) for name in calls}


def _ideal_key(gens) -> tuple:
    return tuple(sorted((tuple(g.vars), tuple(sorted(g.terms.items()))) for g in gens))


class Tracer:
    """Spans and boundary counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.ideals: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- boundary hooks: (args, kwargs) -> (args, kwargs), and result hooks

    def _before_rank_rows(self, args, kwargs):
        rows = list(args[0])
        self.counts["linalg.rank_rows.rows"] += len(rows)
        self.counts["linalg.rank_rows.nnz"] += sum(1 for r in rows for v in r.values() if v)
        return (rows,) + args[1:], kwargs

    def _after_rank_rows(self, bound, result):
        self.counts["linalg.rank_rows.rank"] += result

    def _before_buchberger(self, args, kwargs):
        gens = list(args[0])
        self.ideals.add(_ideal_key(gens))
        return (gens,) + args[1:], kwargs

    def _after_buchberger(self, bound, result):
        key = "groebner.buchberger.basis_size_max"
        self.counts[key] = max(self.counts[key], len(result.gens))

    def _after_hilbert_table(self, bound, result):
        self.counts["cohomology.slices"] += bound.arguments["cutoff"] + 1

    def _after_slice_cohomology(self, bound, result):
        self.counts["cohomology.slices"] += 1

    def _hooks(self, name):
        before = {"linalg.rank_rows": self._before_rank_rows,
                  "groebner.buchberger": self._before_buchberger}.get(name)
        after = {"linalg.rank_rows": self._after_rank_rows,
                 "groebner.buchberger": self._after_buchberger,
                 "cohomology.hilbert_table": self._after_hilbert_table,
                 "cohomology.slice_cohomology": self._after_slice_cohomology}.get(name)
        return before, after

    def _wrap(self, name, fn):
        before, after = self._hooks(name)
        sig = inspect.signature(fn) if after else None
        names, starts, ends, parents, open_ = (self.names, self.starts, self.ends,
                                               self.parents, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                open_.pop()
            if after is not None:
                after(sig.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public dcrit function at every module binding that refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dcrit" or n.startswith("dcrit."))]
        wrappers: dict[int, tuple[object, object]] = {}
        for mod in modules:
            short = mod.__name__[len("dcrit."):]
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def layers(self, since: int) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over the spans recorded from `since` on.

        `since` must be the index of a span opened while no other was open.
        """
        parents = [p - since if p >= since else -1 for p in self.parents[since:]]
        return self_times(self.names[since:], self.starts[since:], self.ends[since:], parents)
