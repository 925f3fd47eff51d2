"""Layer tracer for hallchar, installed from outside the package.

`Tracer.install()` replaces every public function of each hallchar module
(and the public methods of `Quiver` and `CharTable`, on the class) with a
wrapper that records a span: name, start, end and the span that caused it.
A layer is the module that defines the function.  Self time is a span's
duration minus the time its child spans cover, so the per-layer self times
of one run add up to the traced time of its root spans.

Generators (`subspace_bases`, `subrep_bases`) are timed per `next()`, not
when they are created, because their work happens while they are consumed.

Names bound by `from .x import y` are copies of the module attribute, so
patching `x.y` does not reach calls made through them.  `install()` finds
every such alias, rebinds it to the same wrapper (its time goes to the
defining layer) and lists it in `aliases`.  References captured at import
time in containers or default arguments (for example `cli._COMMANDS`) are
not rebound; their time stays with the traced caller.
"""

import importlib
import inspect
import time

import numpy as np

LAYERS = (
    "linalg",
    "rep",
    "strata",
    "catalog",
    "quiver",
    "subspaces",
    "qpoly",
    "cluster",
    "verify",
    "symspace",
    "cli",
)

# classes whose methods are patched on the class, with the layer they belong to
CLASSES = (("quiver", "Quiver"), ("cluster", "CharTable"))

# qpoly functions whose first argument is the per-prime count callback
COUNT_FN_TAKERS = ("counting_polynomial", "counting_table")

SMALL_CELLS = 64
KEEP_SPANS = 100_000


class Tracer:
    """In-memory span recorder with per-function call, self-time and count
    tables.  Spans beyond KEEP_SPANS are aggregated but not stored.

    A layer's calls are the spans entered from outside the layer (from
    another layer, or with no traced caller), so a kernel that calls
    another kernel of its own layer counts once."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (span id, parent id, name, start, end)
        self.calls = {}  # name -> spans recorded
        self.entries = {}  # layer -> spans entered from outside the layer
        self.self_s = {}  # name -> summed self time
        self.layer_of = {}  # name -> layer
        self.counts = {}  # named event counts
        self.aliases = []  # "module.name -> layer.name" rebound aliases
        self.root_s = 0.0  # summed duration of spans without a parent
        self._stack = []  # [span id, name, start, child time]
        self._next_id = 0
        self._undo = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def _exit(self):
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        layer = self.layer_of[name]
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            parent_id = parent[0]
            entered = self.layer_of[parent[1]] != layer
        else:
            parent_id = 0
            self.root_s += dur
            entered = True
        if entered:
            self.entries[layer] = self.entries.get(layer, 0) + 1
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent_id, name, start, end))

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ---------------------------------------------------------

    def wrap_function(self, name, layer, fn, before=None):
        """Span-recording wrapper; `before(args)` may rewrite the
        positional arguments (it runs inside the span)."""
        self.layer_of[name] = layer
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                if before is not None:
                    args = before(args)
                return fn(*args, **kwargs)
            finally:
                leave()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, layer, fn):
        """Wrapper that times each `next()` of the generator as one span
        and counts its yields and its starts under the caller's name."""
        self.layer_of[name] = layer
        enter, leave, count = self._enter, self._exit, self.count

        def traced(*args, **kwargs):
            count(f"{name}.started_in.{self.parent_name()}")
            gen = fn(*args, **kwargs)
            try:
                while True:
                    enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    count(f"{name}.yields")
                    yield item
            finally:
                gen.close()

        traced.__wrapped__ = fn
        return traced

    def _linalg_before(self, args):
        """Counts the cells of an outermost linalg call only (this runs
        inside the call's own span, so its caller is the span below)."""
        caller = self._stack[-2][1] if len(self._stack) > 1 else None
        if caller is not None and self.layer_of[caller] == "linalg":
            return args
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if arrays:
            cells = sum(a.size for a in arrays)
            self.count("linalg.matrix_calls")
            self.count("linalg.cells", cells)
            self.count("linalg.small_calls", cells <= SMALL_CELLS)
        return args

    def _count_fn_before(self, args):
        """Wrap the count callback so each evaluation is counted and its
        own code is charged to the module that defined it."""
        fn = args[0]
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        self.layer_of[name] = layer
        enter, leave, count = self._enter, self._exit, self.count

        def counted(p):
            count("qpoly.primes_counted")
            enter(name)
            try:
                return fn(p)
            finally:
                leave()

        return (counted,) + tuple(args[1:])

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, layer, fn):
        if inspect.isgeneratorfunction(fn):
            return self.wrap_generator(name, layer, fn)
        before = None
        if layer == "linalg":
            before = self._linalg_before
        elif layer == "qpoly" and fn.__name__ in COUNT_FN_TAKERS:
            before = self._count_fn_before
        return self.wrap_function(name, layer, fn, before)

    def install(self):
        """Patch every layer; returns self.  Undo with `uninstall()`."""
        modules = {
            layer: importlib.import_module(f"hallchar.{layer}") for layer in LAYERS
        }
        wrapped = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, fn)
                wrapped[id(fn)] = wrapper
                self._patch(mod, attr, wrapper)
        for layer, cls_name in CLASSES:
            cls = getattr(modules[layer], cls_name)
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                self._patch(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", layer, fn))
        package = importlib.import_module("hallchar")
        for owner in (package, *modules.values()):
            for attr, fn in list(vars(owner).items()):
                if id(fn) in wrapped and getattr(fn, "__module__", None) != owner.__name__:
                    self._patch(owner, attr, wrapped[id(fn)])
                    home = fn.__module__.rsplit(".", 1)[-1]
                    self.aliases.append(f"{owner.__name__}.{attr} -> {home}.{fn.__name__}")
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_table(self):
        """{layer: (self seconds, calls into the layer)}, with every layer
        in LAYERS."""
        layers = (*LAYERS, *self.layer_of.values())
        out = {layer: [0.0, self.entries.get(layer, 0)] for layer in layers}
        for name, self_s in self.self_s.items():
            out[self.layer_of[name]][0] += self_s
        return {layer: tuple(row) for layer, row in out.items()}
