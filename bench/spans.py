"""In-memory span recorder for the traced benchmark run.

``Recorder.install`` wraps every public function of the dedsums layer modules,
in every module namespace that binds it (``scaled_int_poly`` is bound in both
``bernoulli`` and ``dedekind``, ``rational_gcd_set`` in both ``exactnum`` and
``analysis``), and patches the ``CyclotomicElement`` operators and
constructors on the class.  Each call becomes a span: name, parent span,
start and end, all ``perf_counter``.  Spans stay in lists until the run ends;
``summary`` derives self times from the parent links, and ``dump`` writes
them out.

The work counters are computed from call arguments only, so they repeat
exactly for one input set however fast the code runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

LAYERS = ("analysis", "dedekind", "bernoulli", "characters", "exactnum", "modgroup", "oracle", "fricke")

# Entry points that evaluate the double sum; nested calls among them count once.
KERNEL_ENTRIES = ("sum_S", "sum_S_rational", "sweep_S_tilde_rational")
CONTEXT_SPANS = frozenset(
    ("characters.named_character", "characters.parse_character", "characters.conductor")
)
CYCLOTOMIC_CLASS_ATTRS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__", "__eq__", "conj", "embed", "to_complex",
    "rational_value", "is_zero", "is_rational", "from_rational", "zero", "one",
    "root_of_unity", "from_json", "to_json",
)


def _units(q: int) -> int:
    return sum(1 for n in range(q) if math.gcd(n, q) == 1)


def _is_dedsums_callable(obj) -> bool:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith("dedsums."):
        return False
    # plain functions and functools.lru_cache wrappers; classes are left alone
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.kernel_depth = 0
        self.counters = {
            "dedekind.kernel_steps": 0,
            "dedekind.sums": 0,
            "dedekind.ptable_entries": 0,
            "exactnum.cyc_mults": 0,
            "exactnum.max_order": 0,
            "exactnum.gcd_values": 0,
            "oracle.series_terms": 0,
            "oracle.truncation_errors": 0,
        }
        self.scaled_int_poly = None  # the unwrapped lru_cache object
        self._oracle = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"dedsums.{name}") for name in LAYERS]
        package = importlib.import_module("dedsums")
        self._oracle = importlib.import_module("dedsums.oracle")
        self.scaled_int_poly = importlib.import_module("dedsums.bernoulli").scaled_int_poly
        wrapped: dict[int, object] = {}
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _is_dedsums_callable(obj):
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.split(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(module, attr, wrapped[id(obj)])
        cyc = importlib.import_module("dedsums.exactnum").CyclotomicElement
        for attr in CYCLOTOMIC_CLASS_ATTRS:
            raw = cyc.__dict__[attr]
            if isinstance(raw, classmethod):
                fn = raw.__func__
                new = classmethod(wrapped.setdefault(id(fn), self._wrap(f"exactnum.CyclotomicElement.{fn.__name__}", fn)))
            else:
                new = wrapped.setdefault(id(raw), self._wrap(f"exactnum.CyclotomicElement.{raw.__name__}", raw))
            self._patch(cyc, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        hook = self._hook_for(name, fn)
        kernel = name.split(".")[-1] in KERNEL_ENTRIES and name.startswith("dedekind.")
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self.stack
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(args, kwargs) or args
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if kernel:
                rec.kernel_depth += 1
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # count each truncation failure once, where it leaves the oracle
                parent = stack[-2]
                if type(exc).__name__ == "TruncationError" and (
                    parent < 0 or not names[parent].startswith("oracle.")
                ):
                    rec.counters["oracle.truncation_errors"] += 1
                raise
            finally:
                ends[idx] = perf()
                stack.pop()
                if kernel:
                    rec.kernel_depth -= 1

        return wrapper

    # -- work counters from call arguments ----------------------------------

    def _hook_for(self, name: str, fn):
        c = self.counters

        def kernel_pair(args, kwargs):
            if self.kernel_depth:
                return None
            ctx, c_val = args[0], args[2] if len(args) > 2 else kwargs["c"]
            c["dedekind.sums"] += 1
            c["dedekind.kernel_steps"] += _units(ctx.q1) * ((c_val - 1) // 2)
            return None

        def kernel_sweep(args, kwargs):
            ctx = args[0]
            pairs = args[1] if len(args) > 1 else kwargs["pairs"]
            if not isinstance(pairs, (list, tuple)):
                pairs = list(pairs)
                args = (ctx, pairs, *args[2:])
            if self.kernel_depth:
                return args
            units = _units(ctx.q1)
            c["dedekind.sums"] += len(pairs)
            c["dedekind.kernel_steps"] += sum(units * ((cv - 1) // 2) for _, cv in pairs)
            c["dedekind.ptable_entries"] += sum(cv * ctx.q1 for cv in {cv for _, cv in pairs})
            return args

        def gcd_values(args, kwargs):
            values = args[0] if args else kwargs["values"]
            if not isinstance(values, (list, tuple)):
                values = list(values)
                args = (values, *args[1:])
            c["exactnum.gcd_values"] += len(values)
            return args

        def cyc_method(args, kwargs):
            order = getattr(args[0], "order", None) if args else None
            if isinstance(order, int) and order > c["exactnum.max_order"]:
                c["exactnum.max_order"] = order
            return None

        def cyc_mul(args, kwargs):
            cyc_method(args, kwargs)
            if len(args) > 1 and type(args[1]) is type(args[0]):
                c["exactnum.cyc_mults"] += 1
            return None

        def cyc_ctor(order_pos):
            def hook(args, kwargs):
                order = args[order_pos] if len(args) > order_pos else kwargs.get("order", 1)
                if order > c["exactnum.max_order"]:
                    c["exactnum.max_order"] = order
                return None
            return hook

        def series(tol_share, weighted):
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                p = bound.arguments
                nctx, z, policy = p["nctx"], complex(p["z"]), p["policy"]
                weight = (
                    self._oracle._poly_weight(nctx.k, z, complex(p["x"]), complex(p["y"]))
                    if weighted
                    else 1.0
                )
                try:
                    terms, _ = self._oracle._tail_terms(
                        z.imag, nctx.k, policy.tol * tol_share, weight, policy.n_cap
                    )
                except Exception:  # the call itself raises and is counted there
                    return None
                c["oracle.series_terms"] += terms
                return None
            return hook

        short = name.split(".", 1)[1]
        if short in ("sum_S", "sum_S_rational"):
            return kernel_pair
        if short == "sweep_S_tilde_rational":
            return kernel_sweep
        if short == "rational_gcd_set":
            return gcd_values
        # the tolerance shares are the ones the oracle passes to _tail_terms
        if short == "antiderivative_at":
            return series(0.25, True)
        if short == "eisenstein_eval":
            return series(0.5, False)
        if short == "CyclotomicElement.__mul__":
            return cyc_mul
        if short == "CyclotomicElement.from_rational":
            return cyc_ctor(2)
        if short in ("CyclotomicElement.__init__", "CyclotomicElement.zero",
                     "CyclotomicElement.one", "CyclotomicElement.root_of_unity"):
            return cyc_ctor(1)
        return cyc_method if short.startswith("CyclotomicElement.") else None

    # -- results ------------------------------------------------------------

    def summary(self, traced_wall: float) -> dict[str, float]:
        """Per-layer calls, self time and share, plus the named counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        per_name_self: dict[str, float] = {}
        per_name_calls: dict[str, int] = {}
        context_s = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            per_name_self[name] = per_name_self.get(name, 0.0) + own
            per_name_calls[name] = per_name_calls.get(name, 0) + 1
            if name in CONTEXT_SPANS and not self._has_ancestor_in(i, CONTEXT_SPANS):
                context_s += dur
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / traced_wall
        info = getattr(self.scaled_int_poly, "cache_info", None)
        hit_ratio = 0.0
        if info is not None:
            ci = info()
            hit_ratio = ci.hits / (ci.hits + ci.misses) if ci.hits + ci.misses else 0.0
        out.update(self.counters)
        out.update({
            "dedekind.sweep_S_tilde_rational.self_s": per_name_self.get("dedekind.sweep_S_tilde_rational", 0.0),
            "dedekind.h_interpolate.self_s": per_name_self.get("dedekind.h_interpolate", 0.0),
            "bernoulli.scaled_int_poly.hit_ratio": hit_ratio,
            "characters.gauss_sums": per_name_calls.get("characters.gauss_sum", 0),
            "characters.context_s": context_s,
            "modgroup.coset_table_builds": per_name_calls.get("modgroup.gamma1_coset_table", 0),
            "modgroup.generators": per_name_calls.get("modgroup.gamma1_generators", 0),
            "oracle.antiderivative_calls": per_name_calls.get("oracle.antiderivative_at", 0),
        })
        return out

    def _has_ancestor_in(self, i: int, names) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return True
            p = self.parents[p]
        return False

    def dump(self, path):
        """Write the spans as JSON: [name, parent index, start, end] per call."""
        rows = [
            [self.names[i], self.parents[i], round(self.starts[i], 9), round(self.ends[i], 9)]
            for i in range(len(self.names))
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"))

