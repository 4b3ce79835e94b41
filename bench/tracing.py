"""In-memory span tracing of discretefit's layers, installed from outside.

Only the traced run (``--trace 1``) imports this module. It replaces the
public functions of each layer (and a few module attributes that the
Newton loop calls directly) with wrappers that record one span per call:
name, start, end, the index of the enclosing span and optional details
such as the number of elements a ``log_cdf`` call evaluated. Every module
namespace that bound the original function is patched, so calls through
``from .x import f`` imports are seen too. ``uninstall`` restores the
originals. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Link.log_cdf" is a method of the enum.
TARGETS = [
    ("data.parse_csv", "discretefit.data", "parse_csv"),
    ("data.build_dataset", "discretefit.data", "build_dataset"),
    ("likelihood.loglik", "discretefit.likelihood", "loglik"),
    ("likelihood.loglik", "discretefit.likelihood", "_loglik_clamped"),
    ("likelihood.score", "discretefit.likelihood", "grad_loglik"),
    ("likelihood.score", "discretefit.likelihood", "score_matrix"),
    ("likelihood.hess", "discretefit.likelihood", "hess_loglik"),
    ("distributions.log_cdf", "discretefit.distributions", "Link.log_cdf"),
    ("distributions.trunc_norm_draws", "discretefit.distributions", "trunc_norm_draws"),
    ("estimation.fit_ml", "discretefit.estimation", "fit_ml"),
    ("estimation.fit_intercept_only", "discretefit.estimation", "fit_intercept_only"),
    ("estimation.hit_rate", "discretefit.estimation", "hit_rate"),
    ("estimation.predict_prob", "discretefit.estimation", "predict_prob"),
    ("effects.effects_table", "discretefit.effects", "effects_table"),
    ("bayes.gibbs_ordinal_probit", "discretefit.bayes", "gibbs_ordinal_probit"),
    ("bayes.gibbs_binary_probit", "discretefit.bayes", "gibbs_binary_probit"),
    ("cli.main", "discretefit.cli", "main"),
]


def _details(name: str, args, result) -> dict | None:
    if name == "distributions.log_cdf":
        return {"elements": int(np.size(args[1]))}
    if name == "estimation.fit_ml":
        return {"iterations": int(result.iterations)}
    if name.startswith("bayes.gibbs_"):
        return {"sweeps": int(result.n_draws), "accept_rate": result.accept_rate}
    return None


class Tracer:
    """Records spans [name, start, end, parent, details] while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            record[4] = _details(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "discretefit" or key.startswith("discretefit.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "details"],
                       "spans": self.spans}, fh)


class SpanIndex:
    """Queries over recorded spans: totals, outermost calls, self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children = defaultdict(list)
        # a parent is always recorded before its children
        # names of the enclosing spans; a parent is recorded before its
        # children, and siblings share one set
        self.ancestors: list[frozenset] = []
        shared: dict[int, frozenset] = {-1: frozenset()}
        for i, span in enumerate(spans):
            parent = span[3]
            self.children[parent].append(i)
            if parent not in shared:
                shared[parent] = self.ancestors[parent] | {spans[parent][0]}
            self.ancestors.append(shared[parent])

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def ids(self, name: str, under: str | None = None) -> list[int]:
        """Spans called ``name`` that do not sit inside another span of the
        same name, optionally restricted to those inside a span ``under``."""
        return [
            i for i, span in enumerate(self.spans)
            if span[0] == name and name not in self.ancestors[i]
            and (under is None or under in self.ancestors[i])
        ]

    def total(self, ids: list[int]) -> float:
        return sum(self.duration(i) for i in ids)

    def self_time(self, ids: list[int]) -> float:
        return sum(
            self.duration(i) - sum(self.duration(c) for c in self.children[i])
            for i in ids
        )

    def named(self, name: str) -> list[int]:
        """Every span called ``name``, nested ones included."""
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def detail_sum(self, ids: list[int], key: str) -> float:
        return sum(self.spans[i][4][key] for i in ids)
