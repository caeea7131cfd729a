"""Layer tracing installed from outside the program.

Every public function of a ``rectcrys`` module, every public method of a
class defined there, and those classes' ``__init__`` is replaced by a timing
wrapper, in every ``rectcrys`` module namespace that holds it.  A call that
crosses from one layer (module) into another opens a span; a call that stays
inside the caller's layer is only counted.  Spans are folded into totals as
they close rather than kept one by one, so a long run does not grow memory:
per layer, the call count and the self time (span time minus the time of the
spans it opened).

Memos are found by their ``cache_clear`` attribute, never by name.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "rectcrys"
# Modules that do work; ``errors`` only defines exception types.
LAYERS = (
    "tableaux",
    "crystal",
    "rsk",
    "affine",
    "rmatrix",
    "energy",
    "kpoly",
    "demazure",
    "verify",
    "cache",
    "cli",
)
ROOT = "bench"


def layer_modules() -> dict:
    """The imported ``rectcrys`` layer modules, by layer name."""
    import importlib

    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}


def find_memos(modules: dict) -> list[tuple[str, object]]:
    """Every functools memo reachable from the module namespaces, with the
    layer that defines it, each memo once."""
    seen: dict[int, tuple[str, object]] = {}
    for mod in modules.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                owner = getattr(obj, "__module__", "") or ""
                layer = owner.rpartition(".")[2]
                if layer in LAYERS:
                    seen.setdefault(id(obj), (layer, obj))
    return list(seen.values())


def clear_memos(memos) -> None:
    for _, memo in memos:
        memo.cache_clear()


def memo_stats(memos) -> dict:
    """Per layer: hits, misses and current entries summed over its memos."""
    out: dict[str, list[int]] = {}
    for layer, memo in memos:
        info = memo.cache_info()
        acc = out.setdefault(layer, [0, 0, 0])
        acc[0] += info.hits
        acc[1] += info.misses
        acc[2] += info.currsize
    return out


class Tracer:
    """Span accounting for wrapped calls; one per process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.observed: Counter = Counter()
        # Open spans: [layer, start_ns, ns covered by child spans].
        self.stack: list[list] = [[ROOT, time.perf_counter_ns(), 0]]
        self.active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter_ns(), 0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        dur = end - frame[1]
        layer = frame[0]
        self.self_ns[layer] += dur - frame[2]
        self.stack[-1][2] += dur

    def _wrap_function(self, fn, layer: str, qualname: str):
        pre, post = OBSERVERS.get(qualname, (None, None))
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                it = fn(*args, **kwargs)
                while True:
                    if tracer.stack[-1][0] == layer:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        frame = tracer._enter(layer)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            if tracer.stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        if pre is None and post is None and qualname not in TRACK_ACTIVE:
            return wrapper

        @functools.wraps(fn)
        def observed_wrapper(*args, **kwargs):
            token = None if pre is None else pre(args)
            tracer.active[qualname] += 1
            try:
                result = wrapper(*args, **kwargs)
            finally:
                tracer.active[qualname] -= 1
            if post is not None:
                post(tracer, args, result, token)
            return result

        return observed_wrapper

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public callables of every layer module, everywhere the
        package refers to them."""
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_methods(obj, layer)
                elif callable(obj):
                    replace[id(obj)] = self._wrap_function(obj, layer, name)
        targets = list(modules.values()) + [sys.modules[PACKAGE]]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, new)

    def _install_methods(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                inner = self._wrap_function(
                    attr.__func__, layer, f"{cls.__name__}.{name}"
                )
                new = classmethod(inner)
            elif inspect.isfunction(attr):
                new = self._wrap_function(attr, layer, f"{cls.__name__}.{name}")
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, new)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        return {
            layer: {
                "calls": self.calls[layer],
                "self_s": self.self_ns[layer] / 1e9,
            }
            for layer in LAYERS
        }

    def to_json(self) -> dict:
        return {
            "layers": self.layer_totals(),
            "observed": dict(self.observed),
        }


# ---------------------------------------------------------------------------
# Counters read off particular public calls.

def _observe_lrt(tracer: Tracer, args, result, token) -> None:
    tracer.observed["lrt_produced"] += len(result)


def _observe_is_r_lr(tracer: Tracer, args, result, token) -> None:
    # Counts enumerate_lrt's candidate tests, not the check each LRTableau it
    # builds makes of itself.
    if tracer.active["enumerate_lrt"] and not tracer.active["LRTableau.__init__"]:
        tracer.observed["lrt_tested"] += 1


def _observe_demazure_op(tracer: Tracer, args, result, token) -> None:
    tracer.observed["demazure_ops"] += 1
    tracer.observed["demazure_terms"] += len(result.terms)


def _observe_cache_get(tracer: Tracer, args, result, token) -> None:
    tracer.observed["cache_misses" if result is None else "cache_hits"] += 1


def _file_state(args):
    try:
        st = os.stat(args[0].path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def _observe_cache_put(tracer: Tracer, args, result, before) -> None:
    after = _file_state(args)
    if after is not None and after != before:
        tracer.observed["cache_writes"] += 1
        tracer.observed["cache_bytes_written"] += after[2]


# Calls under way of these are counted in Tracer.active.
TRACK_ACTIVE = {"enumerate_lrt", "LRTableau.__init__"}
# qualified name -> (before the call: args -> token, after the call)
OBSERVERS = {
    "enumerate_lrt": (None, _observe_lrt),
    "is_r_lr": (None, _observe_is_r_lr),
    "FormalCharacter.demazure_op": (None, _observe_demazure_op),
    "PolynomialCache.get": (None, _observe_cache_get),
    "PolynomialCache.put": (_file_state, _observe_cache_put),
}
