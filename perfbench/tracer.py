"""Traced CLI run: ``python perfbench/tracer.py TRACE_OUT -- run CONFIG [flags]``.

Imports every ``lenequiv`` module, wraps its public functions from the
outside (the package itself is not edited) and then calls
``lenequiv.cli.main`` with the arguments after ``--``, exactly as
``python -m lenequiv.cli`` would.  When the CLI returns, the collected
counts, per-layer self times and spans are written to TRACE_OUT as JSON and
the process exits with the CLI's exit code.

A function is wrapped once under every name a ``lenequiv`` module bound it
to, so ``intersections.compose`` and ``word_algebra.compose`` are both
counted, and every call knows the module it was made from.  Self time of a
layer is the time spent inside its wrapped functions minus the time spent
in wrapped functions they called; code that is not wrapped (private
helpers, ``Mat2`` arithmetic) is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
import types

# Layers in dependency order; each is a module of the lenequiv package.
LAYERS = (
    "word_algebra", "sl2", "trace_poly", "fuchsian", "intersections",
    "bracket", "pipeline", "reports", "cli",
)
# Methods are wrapped only where a layer's work happens behind them.
METHODS = {"fuchsian": {"Representation": ("ball", "evaluate")}}
# Word algebra and SL2 calls number in the millions: they are counted and
# timed in aggregate, but kept out of the span list.
NO_SPAN_LAYERS = frozenset({"word_algebra", "sl2"})
MAX_SPANS = 20000


class Stat:
    __slots__ = ("calls", "seconds", "active", "raised")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0  # outermost calls only, so recursion is not double counted
        self.active = 0
        self.raised = {}


class Tracer:
    def __init__(self):
        # frames: [seconds in wrapped callees, span id, qualname]
        self.stack = [[0.0, -1, "<outside>"]]
        self.stats = {}  # "layer.name" -> Stat
        # (caller module, "layer.name") -> {enclosing wrapped function: [calls, {exception: count}]}
        self.edges = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counters = {}
        self.spans = []  # (name, caller, start, end, parent span id)
        self.spans_dropped = 0
        self.origin = time.perf_counter()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, fn, qualname, layer, caller, hook=None):
        """Wrapper for ``fn`` as called from module ``caller``."""
        stat = self.stats.setdefault(qualname, Stat())
        stack = self.stack
        layer_self = self.layer_self
        spans = self.spans
        edges = self.edges[(caller, qualname)] = {}
        record = layer not in NO_SPAN_LAYERS
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], qualname]
            edge = edges.get(parent[2])
            if edge is None:
                edge = edges[parent[2]] = [0, {}]
            if record:
                if len(spans) < MAX_SPANS:
                    frame[1] = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
            stack.append(frame)
            stat.active += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                name = type(exc).__name__
                stat.raised[name] = stat.raised.get(name, 0) + 1
                edge[1][name] = edge[1].get(name, 0) + 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                layer_self[layer] += dt - frame[0]
                stat.calls += 1
                edge[0] += 1
                stat.active -= 1
                if not stat.active:
                    stat.seconds += dt
                if record and frame[1] != parent[1]:
                    spans[frame[1]] = (qualname, caller, t0, t1, parent[1])
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self, package):
        """Wrap every public function of every layer under each name the
        package's modules bound it to."""
        modules = {"": package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(package.__name__ + "." + info.name)
        owner = {}  # original function -> (qualname, layer)
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    owner[obj] = ("%s.%s" % (layer, name), layer)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for method in methods:
                    fn = getattr(cls, method, None) if cls is not None else None
                    if isinstance(fn, types.FunctionType):
                        setattr(cls, method, self.wrap(
                            fn, "%s.%s.%s" % (layer, cls_name, method), layer, layer,
                            HOOKS.get("%s.%s.%s" % (layer, cls_name, method))))
        for caller, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in owner:
                    qualname, layer = owner[obj]
                    setattr(mod, name, self.wrap(obj, qualname, layer, caller or "lenequiv",
                                                 HOOKS.get(qualname)))
        return modules

    def dump(self):
        end = time.perf_counter()
        return {
            "wall_s": end - self.origin,
            "layer_self_s": self.layer_self,
            "functions": {
                name: {"calls": s.calls, "s": s.seconds, "raised": s.raised}
                for name, s in sorted(self.stats.items()) if s.calls
            },
            "edges": [
                {"module": caller, "parent": parent, "callee": callee, "calls": calls,
                 "raised": raised}
                for (caller, callee), by_parent in sorted(self.edges.items())
                for parent, (calls, raised) in sorted(by_parent.items())
            ],
            "counters": self.counters,
            "spans": [
                {"name": n, "caller": c, "start": t0 - self.origin, "end": t1 - self.origin,
                 "parent": p}
                for n, c, t0, t1, p in self.spans
            ],
            "spans_dropped": self.spans_dropped,
        }


# Counters read from arguments and results, keyed by wrapped function.
def _letters_of_first_arg(counter):
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, len(args[0].letters))
    return hook


def _ball(tracer, args, kwargs, result):
    rep, bound = args[0], (args[1] if len(args) > 1 else kwargs["bound"])
    include_identity = args[2] if len(args) > 2 else kwargs.get("include_identity", False)
    # reduced words of length 1..bound over 2r letters: 2r(2r-1)^(k-1) of length k
    r = 2 * rep.rank
    words = sum(r * (r - 1) ** (k - 1) for k in range(1, bound + 1))
    tracer.count("fuchsian.ball.words", words + (1 if include_identity else 0))
    tracer.maximum("fuchsian.ball.max_bound", bound)


def _certify(tracer, args, kwargs, result):
    scales = getattr(sys.modules.get("lenequiv.fuchsian"), "_K_SCALES", ())
    if result.k_scale in scales:
        tracer.count("fuchsian.certify.k_scale_index", scales.index(result.k_scale))


def _records(tracer, args, kwargs, result):
    # mutual_intersections hands beta ~ alpha to self_intersections: count once
    if tracer.stack[-1][2] != "intersections.mutual_intersections":
        tracer.count("intersections.records", len(result))


def _trace_polynomial(tracer, args, kwargs, result):
    tracer.count("trace_poly.terms", len(result.terms))
    memo = getattr(sys.modules.get("lenequiv.trace_poly"), "_memo", None)
    if memo is not None:
        tracer.maximum("trace_poly.memo_size", len(memo))


HOOKS = {
    "word_algebra.cyclic_normal_form": _letters_of_first_arg("word_algebra.cyclic_normal_form.letters"),
    "sl2.evaluate": _letters_of_first_arg("sl2.evaluate.letters"),
    "fuchsian.Representation.ball": _ball,
    "fuchsian.certify_ping_pong": _certify,
    "intersections.self_intersections": _records,
    "intersections.mutual_intersections": _records,
    "trace_poly.trace_polynomial": _trace_polynomial,
}


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_OUT -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    import lenequiv

    tracer = Tracer()
    modules = tracer.install(lenequiv)
    try:
        code = modules["cli"].main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
