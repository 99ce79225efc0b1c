"""Spans and work counters recorded from outside the ssofr package.

While a `Tracer` is installed, every public function of the ten ssofr layer
modules is wrapped at each namespace where a caller looks its name up: the
package itself (`ssofr.fit`), and every module that imported it
(`ssofr.pipeline.rfpc`, `ssofr.fpca.m_scale_columns`, `ssofr.cli.fit`, ...).
Each call records a span: name, layer, start, end and the span that was open
when it started. The hot methods of `ResolventCache` and the dense
eigendecompositions of numpy/scipy only bump counters, because they run
thousands of times per fit and a span each would distort the self times.

Nothing in the package is edited; uninstalling puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "simulation", "weights", "functional", "fpca", "fpls",
    "mscale", "sar", "pipeline", "io", "cli",
)

# Elementwise kernels called inside the iterations of their callers. Their
# time stays in the caller's span.
HOT_KERNELS = frozenset({
    "tukey_loss", "tukey_loss_norm", "tukey_weight", "m_location",
    "huber_psi", "huber_weight", "rho_tilde", "hampel_weight",
    "trapezoid_weights", "inner_product",
})


def _arg(args, kwargs, index, name):
    """Argument `name` of a call, passed by position `index` or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


# ResolventCache methods -> (counter, how many units one call does). The
# arguments include self.
_RESOLVENT_COUNTERS = {
    "solve": ("sar.solves", lambda a, k: 1),
    "g_dot_grid": ("sar.solves", lambda a, k: len(_arg(a, k, 1, "rhos"))),
    "trace_g": ("sar.trace_evals", lambda a, k: 1),
    "trace_g_grid": ("sar.trace_evals", lambda a, k: len(_arg(a, k, 1, "rhos"))),
    "logdet": ("sar.logdet_evals", lambda a, k: 1),
}

_EIG_FUNCTIONS = ("eig", "eigvals", "eigh", "eigvalsh")


def _on_m_scale_columns(counts, args, kwargs, result):
    counts["mscale.columns_calls"] += 1
    counts["mscale.columns_scored"] += _arg(args, kwargs, 0, "x").shape[1]


def _on_m_scale_info(counts, args, kwargs, result):
    counts["mscale.info_calls"] += 1


def _on_m_fit(counts, args, kwargs, result):
    counts["sar.m_iters"] += int(result.iterations)
    counts["sar.m_converged"] += int(bool(result.converged))


def _on_rfpls(counts, args, kwargs, result):
    state = getattr(result, "pls_state", None)
    counts["fpls.rfpls_iters"] += int(getattr(state, "iterations", 0))


def _on_atomic_write(counts, args, kwargs, result):
    counts["io.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


_HOOKS = {
    "mscale.m_scale_columns": _on_m_scale_columns,
    "mscale.m_scale_info": _on_m_scale_info,
    "sar.m_fit": _on_m_fit,
    "fpls.rfpls": _on_rfpls,
    "io.atomic_write_text": _on_atomic_write,
}


class Tracer:
    """In-memory spans `[name, layer, start, end, parent]` plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def current_layer(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else "other"

    @contextmanager
    def root(self, name: str):
        """A span that groups one benchmark operation (setup, fit, predict)."""
        idx = self._open(name, "other")
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, layer) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][3] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, f, name, layer):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                result = f(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = f
        return wrapper

    def _count_wrapper(self, f, key, amount):
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            self.counts[key] += amount(args, kwargs)
            return result

        return wrapper

    def _eig_wrapper(self, f):
        def wrapper(*args, **kwargs):
            self.counts[f"{self.current_layer()}.eig_calls"] += 1
            return f(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self):
        """Wrap the package's lookup sites; restore them on exit."""
        import numpy.linalg
        import scipy.linalg

        package = importlib.import_module("ssofr")
        layer_modules = {f"ssofr.{name}" for name in LAYERS}
        namespaces = [package] + [
            importlib.import_module(m) for m in sorted(layer_modules)
        ]
        try:
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ in layer_modules
                        and not attr.startswith("_")
                        and attr not in HOT_KERNELS
                    ):
                        layer = obj.__module__.rsplit(".", 1)[1]
                        name = f"{layer}.{obj.__name__}"
                        self._patch(ns, attr, self._span_wrapper(obj, name, layer))
            cache_cls = getattr(importlib.import_module("ssofr.sar"), "ResolventCache", None)
            if cache_cls is not None:
                self._patch(cache_cls, "__init__", self._span_wrapper(
                    cache_cls.__init__, "sar.ResolventCache", "sar"))
                for method, (key, amount) in _RESOLVENT_COUNTERS.items():
                    if hasattr(cache_cls, method):
                        self._patch(cache_cls, method, self._count_wrapper(
                            getattr(cache_cls, method), key, amount))
            for lib in (numpy.linalg, scipy.linalg):
                for fname in _EIG_FUNCTIONS:
                    if hasattr(lib, fname):
                        self._patch(lib, fname, self._eig_wrapper(getattr(lib, fname)))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def roots(self) -> list:
        """Root index of every span."""
        root = []
        for i, span in enumerate(self.spans):
            root.append(i if span[4] < 0 else root[span[4]])
        return root

    def self_times(self) -> list:
        """Duration of each span minus the duration of its direct children."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own
