"""In-memory span recorder that wraps the public functions of ``smoothcure``.

Tracing is done from the outside: while a :class:`Tracer` is installed, every
module global (and the ``SurvivalDataset.take`` method) bound to one of the
traced functions is replaced by a wrapper that records a span (name, parent,
start, end) and reads iteration counts and convergence flags from the value
the function returns.  Functions imported by name into several modules (for
example ``weighted_partial_fit`` in both ``latency_cox`` and
``mle_baseline``) are replaced in every namespace that holds them, so calls
made through any of those names are recorded.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Criterion 5's bound on a decrease of the EM's observed log-likelihood.
LOGLIK_DROP_TOL = 1e-10

# (module, attribute) pairs that are traced; the span name is
# "<module>.<attribute>", with SurvivalDataset.take recorded as "data.take".
TRACED = (
    ("data", "standardize_continuous"),
    ("kernels", "cv_bandwidth"),
    ("kernels", "cv_criterion"),
    ("kernels", "kernel_weight_matrix"),
    ("presmoother", "presmooth_all"),
    ("incidence", "fit_incidence"),
    ("latency_cox", "fit_latency"),
    ("latency_cox", "weighted_partial_fit"),
    ("latency_cox", "breslow_update"),
    ("latency_cox", "compute_weights"),
    ("mle_baseline", "fit_mle_em"),
    ("mle_baseline", "observed_loglik"),
    ("pipeline", "fit_presmoothing"),
    ("pipeline", "fit_cure_model"),
    ("inference", "bootstrap_se"),
    ("simulate", "generate"),
    ("simulate", "run_study"),
)


class Tracer:
    """Records spans and counters for the calls made while it is installed.

    Use as a context manager around the calls to trace; the original
    functions are restored on exit.  Spans are ``[name, parent, start, end]``
    lists, ``parent`` being the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            count(name, signature, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, signature, args, kwargs, out) -> None:
        c = self.counters
        if name == "kernels.cv_criterion":
            c["kernels.cv_criterion.pairs"] += float(signature.bind(*args, **kwargs).arguments["ds"].n) ** 2
        elif name == "incidence.fit_incidence":
            c["incidence.newton_iters"] += out.iterations
            c["incidence.nonconverged"] += not out.converged
        elif name == "latency_cox.weighted_partial_fit":
            c["latency_cox.pl_newton_iters"] += out.iterations
        elif name == "latency_cox.fit_latency":
            c["latency_cox.em_iters"] += out.iterations
        elif name == "mle_baseline.fit_mle_em":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            c["mle_baseline.em_iters"] += out.iterations
            c["mle_baseline.em_capped"] += out.iterations >= bound.arguments["max_iter"] and not out.converged
            c["mle_baseline.loglik_drops"] += bool(np.any(np.diff(out.loglik_path) < -LOGLIK_DROP_TOL))
        elif name == "inference.bootstrap_se":
            c["inference.refits_attempted"] += out.B
            c["inference.refits_kept"] += out.B - out.failures

    def __enter__(self) -> "Tracer":
        from smoothcure.data import SurvivalDataset

        modules = [m for k, m in sys.modules.items() if k == "smoothcure" or k.startswith("smoothcure.")]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"smoothcure.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        take = SurvivalDataset.take
        self._patches.append((SurvivalDataset, "take", take))
        SurvivalDataset.take = self._wrap("data.take", take)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, _, start, end), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def coverage(self) -> float:
        """Share of top-level span time covered by their direct children."""
        total = 0.0
        covered = 0.0
        for _, parent, start, end in self.spans:
            if parent == -1:
                total += end - start
        for name, parent, start, end in self.spans:
            if parent >= 0 and self.spans[parent][1] == -1:
                covered += end - start
        return covered / total if total > 0 else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh)
