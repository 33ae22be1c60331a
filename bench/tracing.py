"""Spans and counts around the deflator package's public functions.

A Tracer replaces each traced function with a wrapper, in every module
of the package that binds it, so calls between modules are seen as well
as calls from the benchmark.  Each call records a span: its name, start,
end, the span that was open when it began (its parent) and the
operation it belongs to.  `KolmogorovLaw.char_exponent`, called tens of
thousands of times per operation, is only counted: calls, and points of
u evaluated.  Everything stays in memory until `dump` writes it out.

Only the benchmark's own files change; the package is patched at run
time in the process that is traced and nowhere else.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# module -> public functions whose calls become spans
FUNCTIONS = {
    "market_files": ("load_market_spec", "render_document"),
    "cone": ("nnls", "find_arbitrage", "project_to_cone", "verify_position"),
    "one_period": ("price_payoff", "least_squares_hedge"),
    "multi_period": ("find_tree_deflator", "check_deflator"),
    "filtration": ("restrict",),
    "models": ("cdf_from_charfn", "levy_put"),
    "rates": ("load_discount_curve", "par_coupon", "swap_par", "forward_rate",
              "bond_price"),
}
# (module, class, method) whose calls become spans
METHODS = (("filtration", "Algebra", "refines"),
           ("filtration", "Algebra", "coarse_block_map"))

# per-layer metrics, in the order of BENCHMARK.json: name -> unit
LAYER_METRICS = {
    "cli.python_start_s": "s", "cli.import_s": "s", "cli.main_self_s": "s",
    "market_files.load_market_spec_s": "s", "market_files.render_document_s": "s",
    "cone.nnls_calls": "count", "cone.nnls_s": "s", "cone.find_arbitrage_s": "s",
    "cone.project_to_cone_s": "s", "cone.verify_position_s": "s",
    "one_period.price_payoff_s": "s", "one_period.least_squares_hedge_s": "s",
    "multi_period.find_tree_deflator_s": "s",
    "multi_period.find_tree_deflator_self_s": "s", "multi_period.node_solves": "count",
    "multi_period.check_deflator_s": "s",
    "filtration.refines_calls": "count", "filtration.refines_s": "s",
    "filtration.coarse_block_map_calls": "count", "filtration.coarse_block_map_s": "s",
    "filtration.restrict_s": "s",
    "models.cdf_from_charfn_calls": "count", "models.cdf_from_charfn_s": "s",
    "models.char_exponent_calls": "count", "models.char_exponent_points": "count",
    "models.levy_put_s": "s", "rates.s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack = [-1]
        self.op_id = -1                 # operation in progress, -1 outside one
        self.counts: Counter = Counter()  # (op, name) -> count

    # -- recording

    def wrap(self, name, fn):
        names, start, end, parent, op, stack = (
            self.names, self.start, self.end, self.parent, self.op, self.stack)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count_points(self, prefix, fn):
        counts, tracer = self.counts, self

        def counted(obj, u):
            counts[tracer.op_id, prefix + "_calls"] += 1
            counts[tracer.op_id, prefix + "_points"] += int(np.size(u))
            return fn(obj, u)

        counted.__wrapped__ = fn
        return counted

    def install(self, package, extra=()):
        """Wrap FUNCTIONS, METHODS and char_exponent, plus `extra`
        (module, function) pairs, in every loaded module of package."""
        modules = [package] + [m for k, m in sorted(sys.modules.items())
                               if k.startswith(package.__name__ + ".")]
        for module, fn in [(m, f) for m, fns in FUNCTIONS.items() for f in fns] + list(extra):
            original = getattr(sys.modules[f"{package.__name__}.{module}"], fn)
            wrapper = self.wrap(f"{module}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        for module, cls, method in METHODS:
            klass = getattr(sys.modules[f"{package.__name__}.{module}"], cls)
            setattr(klass, method, self.wrap(f"{module}.{method}", getattr(klass, method)))
        law = package.models.KolmogorovLaw
        law.char_exponent = self.count_points("models.char_exponent", law.char_exponent)

    def add(self, spans, counts, op_id):
        """Merge spans [name, start, end, parent] and counts recorded by
        another process, as part of operation op_id."""
        base = len(self.names)
        for name, t0, t1, parent in spans:
            self.names.append(name)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(op_id)
        for name, n in counts.items():
            self.counts[op_id, name] += n

    def export(self):
        """Spans of this process as lists, and its counts, for `add`."""
        spans = [[n, a, b, p] for n, a, b, p in
                 zip(self.names, self.start, self.end, self.parent)]
        return spans, {name: n for (_, name), n in self.counts.items()}

    # -- reporting

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation totals of every layer metric that spans and
        counts give (all but cli.python_start_s and cli.import_s)."""
        names = np.array(self.names, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        inside = np.array(self.op, dtype=int) >= 0
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], "")

        def select(name):
            return inside & (names == name)

        def total(name):
            return float(dur[select(name)].sum()) / n_ops

        def self_time(name):
            sel = select(name)
            return float((dur[sel] - covered[sel]).sum()) / n_ops

        def calls(name):
            return float(select(name).sum()) / n_ops

        def counted(name):
            return sum(n for (op, key), n in self.counts.items()
                       if key == name and op >= 0) / n_ops

        rates = np.array([str(n).startswith("rates.") for n in names], dtype=bool)
        rates_parent = np.array([str(n).startswith("rates.") for n in parent_name], dtype=bool)
        return {
            "cli.main_self_s": self_time("cli.main"),
            "market_files.load_market_spec_s": total("market_files.load_market_spec"),
            "market_files.render_document_s": total("market_files.render_document"),
            "cone.nnls_calls": calls("cone.nnls"),
            "cone.nnls_s": total("cone.nnls"),
            "cone.find_arbitrage_s": total("cone.find_arbitrage"),
            "cone.project_to_cone_s": total("cone.project_to_cone"),
            "cone.verify_position_s": total("cone.verify_position"),
            "one_period.price_payoff_s": total("one_period.price_payoff"),
            "one_period.least_squares_hedge_s": total("one_period.least_squares_hedge"),
            "multi_period.find_tree_deflator_s": total("multi_period.find_tree_deflator"),
            "multi_period.find_tree_deflator_self_s": self_time("multi_period.find_tree_deflator"),
            "multi_period.node_solves": float((select("cone.project_to_cone")
                                               & (parent_name == "multi_period.find_tree_deflator")
                                               ).sum()) / n_ops,
            "multi_period.check_deflator_s": total("multi_period.check_deflator"),
            "filtration.refines_calls": calls("filtration.refines"),
            "filtration.refines_s": total("filtration.refines"),
            "filtration.coarse_block_map_calls": calls("filtration.coarse_block_map"),
            "filtration.coarse_block_map_s": total("filtration.coarse_block_map"),
            "filtration.restrict_s": total("filtration.restrict"),
            "models.cdf_from_charfn_calls": calls("models.cdf_from_charfn"),
            "models.cdf_from_charfn_s": total("models.cdf_from_charfn"),
            "models.char_exponent_calls": counted("models.char_exponent_calls"),
            "models.char_exponent_points": counted("models.char_exponent_points"),
            "models.levy_put_s": total("models.levy_put"),
            "rates.s": float(dur[inside & rates & ~rates_parent].sum()) / n_ops,
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span and count, gzip-compressed JSON, to path."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        doc = dict(extra, span_names=table,
                   spans={"name": [index[n] for n in self.names], "start": self.start,
                          "end": self.end, "parent": self.parent, "op": self.op},
                   counts=[[op, name, n] for (op, name), n in sorted(self.counts.items())])
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle)
