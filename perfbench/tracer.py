"""Span tracer that wraps percmix's public functions from outside the package.

Each layer function is replaced, at the module attribute the pipeline calls
it through, by a wrapper that records a span (name, start, end, parent) and
the layer's work counts. Spans stay in memory; `self_times` turns them into
per-layer self times, where a span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.instance = None  # (n, seed) of the run_instance call in progress
        # instance -> count name -> value; exact counts are compared per instance
        self.counts = defaultdict(lambda: defaultdict(int))
        self.residual_max = 0.0

    def wrap(self, module, attr: str, name: str, on_result=None, on_enter=None):
        """Replace ``module.attr`` by a span-recording wrapper."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, wrapper)

    def count(self, key: str, amount) -> None:
        self.counts[self.instance][key] += int(amount)

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[name] += (end - start) - children
        return dict(totals)


def install_percmix(tracer: Tracer) -> None:
    """Wrap every pipeline layer at the name `run_scaling` reaches it through."""
    from percmix import conductance as cond
    from percmix import experiments as exp
    from percmix import geometry, percolation
    from percmix import spectral as spec

    def enter_instance(args):
        tracer.instance = (int(args[1]), int(args[2]))

    def spectral_result(res):
        tracer.count("spectral.spectral_gap.iterative_calls", res.method != "dense")
        tracer.residual_max = max(tracer.residual_max, float(res.residual))

    w = tracer.wrap
    w(exp, "run_scaling", "experiments.run_scaling")
    w(exp, "run_instance", "experiments.run_instance", on_enter=enter_instance)
    w(exp, "emit_report", "experiments.emit_report")
    w(exp, "sample_bond_config", "percolation.sample_bond_config")
    w(exp, "largest_cluster", "percolation.largest_cluster",
      on_result=lambda c: tracer.count("percolation.cluster_vertices", c.num_vertices))
    w(exp, "cluster_census", "percolation.cluster_census")
    w(percolation, "build_box", "lattice.build_box")
    w(geometry, "build_box", "lattice.build_box")
    w(exp, "build_chain", "chain.build_chain")
    w(exp, "mixing_time", "chain.mixing_time",
      on_result=lambda r: tracer.count("chain.mixing_time.probes", len(r.trace)))
    w(spec, "spectral_gap", "spectral.spectral_gap", on_result=spectral_result)
    w(spec, "distance_variance_lower_bound", "spectral.distance_variance_lower_bound")
    w(cond, "profile_upper_box", "conductance.profile_upper_box",
      on_result=lambda p: tracer.count("conductance.profile_upper_box.points",
                                       len(p.points)))
    w(cond, "sweep_cut", "conductance.sweep_cut")
    w(cond, "lk_bound", "conductance.lk_bound")
    w(exp, "fpp_regression", "geometry.fpp_regression",
      on_result=lambda r: tracer.count("geometry.fpp_regression.pairs", r.n_pairs))
    w(exp, "classify_good_vertices", "geometry.classify_good_vertices",
      on_result=lambda f: tracer.count("geometry.classify_good_vertices.classified",
                                       f.num_classified))
