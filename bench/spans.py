"""Spans and counters around the calls into each sibdep layer.

The tracer wraps layer functions from outside the program: every module
attribute that is bound to a wrapped function (``run_chunked`` lives in
``rng``, ``simulator`` and ``spectral``; ``perron`` in ``moments``, ``cli``
and the package) is replaced while the tracer is installed and restored by
``uninstall``.  Spans (name, start, end, parent) are kept in memory; a
layer's self time is its span minus the spans of its direct children.

Single-threaded only: the span stack is one list, so the traced round runs
with one worker.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "env_model.phi_map.calls": "count",
    "env_model.phi_map.rows": "count",
    "env_model.phi_map.self_s": "s",
    "env_model.phi_map.rows_per_s": "1/s",
    "simulator.quenched_rows.self_s": "s",
    "simulator.advance_batch.calls": "count",
    "simulator.advance_batch.replica_steps": "count",
    "simulator.advance_batch.self_s": "s",
    "simulator.advance_batch.replica_steps_per_s": "1/s",
    "simulator.coupled.trajectories": "count",
    "simulator.coupled.self_s": "s",
    "simulator.macro_state.constructions": "count",
    "simulator.macro_state.self_s": "s",
    "spectral.log_norms.calls": "count",
    "spectral.log_norms.factor_steps": "count",
    "spectral.log_norms.self_s": "s",
    "spectral.log_norms.factor_steps_per_s": "1/s",
    "spectral.calibrate.iterations": "count",
    "moments.perron.calls": "count",
    "moments.perron.iterations": "count",
    "moments.perron.self_s": "s",
    "env_model.sample_index_array.draws": "count",
    "env_model.sample_index_array.self_s": "s",
    "rng.run_chunked.chunks": "count",
    "rng.run_chunked.self_s": "s",
    "rng.run_chunked.speedup_2w": "ratio",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, count=None, span=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
                count(tracer.counts, args, result)
                return result
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` inside a root span of the benchmark's own."""
        return self._wrap(name, fn)(*args)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper):
        """Rebind every sibdep module attribute that holds ``fn``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sibdep" or mod_name.startswith("sibdep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def install(self):
        from sibdep import cli, env_model, moments, rng, simulator, spectral

        def add(key, amount):
            def count(counts, args, result):
                counts[key] += amount(args, result)
            return count

        env, ens = env_model.Environment, env_model.EnvironmentEnsemble
        self._patch(env, "phi_map", self._wrap(
            "env_model.phi_map", env.phi_map,
            add("env_model.phi_map.rows", lambda a, r: a[1].shape[0])))
        self._patch(ens, "sample_index_array", self._wrap(
            "env_model.sample_index_array", ens.sample_index_array,
            add("env_model.sample_index_array.draws",
                lambda a, r: math.prod(a[1]) if isinstance(a[1], tuple) else int(a[1]))))
        self._patch(simulator.MacroState, "__post_init__", self._wrap(
            "simulator.macro_state", simulator.MacroState.__post_init__))

        layer_functions = [
            (simulator._quenched_survival_rows, "simulator.quenched_rows", None),
            (simulator._advance_batch, "simulator.advance_batch",
             add("simulator.advance_batch.replica_steps", lambda a, r: a[0].shape[0])),
            (simulator.simulate_macro_coupled, "simulator.coupled", None),
            (spectral._indexed_log_norms, "spectral.log_norms",
             add("spectral.log_norms.factor_steps", lambda a, r: a[1].size)),
            (moments.perron, "moments.perron", None),
            (cli.write_json, "cli.write", add("cli.bytes_written",
                                              lambda a, r: Path(a[0]).stat().st_size)),
            (cli.write_csv, "cli.write", add("cli.bytes_written",
                                             lambda a, r: Path(a[0]).stat().st_size)),
        ]
        for fn, name, count in layer_functions:
            self._patch_everywhere(fn, self._wrap(name, fn, count))

        # counters without a span of their own
        self._patch_everywhere(spectral.calibrate_critical_pair, self._wrap(
            "", spectral.calibrate_critical_pair,
            add("spectral.calibrate.iterations", lambda a, r: r.iterations), span=False))
        self._patch_everywhere(moments._power_iterate, self._wrap(
            "", moments._power_iterate,
            add("moments.perron.iterations", lambda a, r: r[2]), span=False))

        run_chunked = rng.run_chunked
        counts = self.counts

        def counted_run_chunked(task, *args, **kwargs):
            def counted_task(gen, size):
                counts["rng.run_chunked.chunks"] += 1
                return task(gen, size)
            return run_chunked(counted_task, *args, **kwargs)

        self._patch_everywhere(run_chunked, self._wrap(
            "rng.run_chunked", functools.wraps(run_chunked)(counted_run_chunked)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per span name: (number of spans, summed self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def layer_metrics(self) -> dict:
        """Every layer metric except the two the worker measures by timing."""
        calls, self_s = self.self_times()
        c = self.counts
        out = {
            "env_model.phi_map.calls": calls["env_model.phi_map"],
            "env_model.phi_map.rows": c["env_model.phi_map.rows"],
            "env_model.phi_map.self_s": self_s["env_model.phi_map"],
            "simulator.quenched_rows.self_s": self_s["simulator.quenched_rows"],
            "simulator.advance_batch.calls": calls["simulator.advance_batch"],
            "simulator.advance_batch.replica_steps": c["simulator.advance_batch.replica_steps"],
            "simulator.advance_batch.self_s": self_s["simulator.advance_batch"],
            "simulator.coupled.trajectories": calls["simulator.coupled"],
            "simulator.coupled.self_s": self_s["simulator.coupled"],
            "simulator.macro_state.constructions": calls["simulator.macro_state"],
            "simulator.macro_state.self_s": self_s["simulator.macro_state"],
            "spectral.log_norms.calls": calls["spectral.log_norms"],
            "spectral.log_norms.factor_steps": c["spectral.log_norms.factor_steps"],
            "spectral.log_norms.self_s": self_s["spectral.log_norms"],
            "spectral.calibrate.iterations": c["spectral.calibrate.iterations"],
            "moments.perron.calls": calls["moments.perron"],
            "moments.perron.iterations": c["moments.perron.iterations"],
            "moments.perron.self_s": self_s["moments.perron"],
            "env_model.sample_index_array.draws": c["env_model.sample_index_array.draws"],
            "env_model.sample_index_array.self_s": self_s["env_model.sample_index_array"],
            "rng.run_chunked.chunks": c["rng.run_chunked.chunks"],
            "rng.run_chunked.self_s": self_s["rng.run_chunked"],
            "cli.write_s": self_s["cli.write"],
            "cli.bytes_written": c["cli.bytes_written"],
        }
        for layer, work in (("env_model.phi_map", "rows"),
                            ("simulator.advance_batch", "replica_steps"),
                            ("spectral.log_norms", "factor_steps")):
            busy = out[f"{layer}.self_s"]
            out[f"{layer}.{work}_per_s"] = out[f"{layer}.{work}"] / busy if busy > 0 else 0.0
        return out

    def span_records(self) -> dict:
        """The spans in a compact form: names listed once, then rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "columns": ["name", "start", "end", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}
