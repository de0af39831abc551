"""Span and counter tracing of di_toolkit, installed from outside the package.

The tracer replaces module attributes with wrappers, so every call that goes
through a module's global namespace (``keyrates._eval_point`` calling
``key_length_block``, ``cli`` calling ``nslp.dual_kappa``) is seen without
editing the library.  Spans (name, start, end, parent, run id) are kept in
memory and written out once, at the end of the run; the per-layer metrics
are derived from the spans and from plain call counters.

Counted-only wrappers sit on the hot inner functions (the cut objectives
and the entropy bounds they call), where a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, function, metric prefix): one span per call
SPANNED = [
    ("keyrates", "optimize_rate", "keyrates.optimize_rate"),
    ("keyrates", "key_length_block", "keyrates.key_length_block"),
    ("keyrates", "key_length", "keyrates.key_length"),
    ("eat", "mu_block_opt", "eat.mu_block_opt"),
    ("eat", "mu_opt", "eat.mu_opt"),
    ("nslp", "build_ns_lp", "nslp.build_ns_lp"),
    ("nslp", "solve", "nslp.solve"),
    ("nslp", "dual_kappa", "nslp.dual_kappa"),
    ("signalling", "run_signalling_test", "signalling.run_signalling_test"),
    ("definetti", "tau_table_exact", "definetti.tau_table_exact"),
    ("definetti", "random_symmetrized_table",
     "definetti.random_symmetrized_table"),
    ("definetti", "symmetrize_exact", "definetti.symmetrize_exact"),
    ("definetti", "verify_reduction_exact", "definetti.verify_reduction_exact"),
    ("simulate", "run_protocol", "simulate.run_protocol"),
    ("simulate", "run_protocol_blocks", "simulate.run_protocol_blocks"),
    ("cli", "main", "cli.main"),
]

# (module, attribute, counter): calls counted, no span.  The entropy bounds
# are counted where eat looks them up, which is where the hot calls come from.
COUNTED = [
    ("eat", "mu_block", "eat.mu_block.calls"),
    ("eat", "mu", "eat.mu.calls"),
    ("eat", "secrecy_bound", "entropy.secrecy_bound.calls"),
    ("eat", "secrecy_bound_slope", "entropy.secrecy_bound_slope.calls"),
    ("signalling", "frequency_box", "boxes.frequency_box.calls"),
    ("boxes", "frequency_box", "boxes.frequency_box.calls"),
]

CACHED = [("eat", "mu_block_opt"), ("eat", "mu_opt")]

KEY_LENGTH = ("keyrates.key_length", "keyrates.key_length_block")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for _, _, prefix in SPANNED:
        names += [prefix + ".calls", prefix + ".self_s"]
    names += sorted({c for _, _, c in COUNTED})
    names += [f"eat.{fn}.cache_hit_ratio" for _, fn in CACHED]
    names += ["keyrates.evals_per_opt", "keyrates.infeasible_frac",
              "nslp.lp_rows", "nslp.lp_vars", "nslp.solve.fail_frac",
              "definetti.entries_checked", "simulate.rounds",
              "simulate.rounds_per_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "fraction"
    return "count"


class Tracer:
    """In-memory spans and counters for one worker process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id, ok)
        self.stack = []
        self.counts = defaultdict(int)
        self.run_id = 0
        self._cached = {}

    # -- installation -----------------------------------------------------

    def install(self, modules: dict):
        """Wrap the traced functions of ``modules`` (name -> module)."""
        for mod, fn in CACHED:
            self._cached[fn] = getattr(modules[mod], fn, None)
        for mod, fn, prefix in SPANNED:
            _patch(modules[mod], fn, lambda f, p=prefix: self._span(p, f))
        for mod, fn, counter in COUNTED:
            _patch(modules[mod], fn, lambda f, c=counter: self._counted(c, f))

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        on_result = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            start = time.perf_counter()
            # a deadline can interrupt even the finally clause below: the
            # placeholder then stays as a zero-length failed span
            spans.append((name, start, start, parent, self.run_id, False))
            stack.append(index)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            except ValueError:
                if name in KEY_LENGTH:
                    counts["keyrates.infeasible"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, ok)
            if on_result is not None:
                on_result(counts, args, result)
            return result
        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run,ok\n")
            for name, start, end, parent, run, ok in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run},"
                         f"{int(ok)}\n")

    def metrics(self) -> dict:
        """Per-layer metrics derived from the recorded spans and counters."""
        calls = defaultdict(int)
        failed = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, ok in self.spans:
            calls[name] += 1
            failed[name] += not ok
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _, _), covered in zip(self.spans, child):
            total[name] += (end - start) - covered

        out = {}
        for _, _, prefix in SPANNED:
            out[prefix + ".calls"] = calls[prefix]
            out[prefix + ".self_s"] = total[prefix]
        for _, _, counter in COUNTED:
            out[counter] = self.counts[counter]
        for fn, original in self._cached.items():
            info = getattr(original, "cache_info", None)
            ratio = 0.0
            if info is not None:
                hits, misses = info().hits, info().misses
                ratio = hits / (hits + misses) if hits + misses else 0.0
            out[f"eat.{fn}.cache_hit_ratio"] = ratio
        key_calls = sum(calls[k] for k in KEY_LENGTH)
        opts = calls["keyrates.optimize_rate"]
        out["keyrates.evals_per_opt"] = key_calls / opts if opts else 0.0
        out["keyrates.infeasible_frac"] = (
            self.counts["keyrates.infeasible"] / key_calls if key_calls else 0.0)
        out["nslp.lp_rows"] = self.counts["nslp.lp_rows"]
        out["nslp.lp_vars"] = self.counts["nslp.lp_vars"]
        solves = calls["nslp.solve"]
        bad = failed["nslp.solve"] + self.counts["nslp.solve.not_optimal"]
        out["nslp.solve.fail_frac"] = bad / solves if solves else 0.0
        out["definetti.entries_checked"] = self.counts[
            "definetti.entries_checked"]
        rounds = self.counts["simulate.rounds"]
        busy = (total["simulate.run_protocol"]
                + total["simulate.run_protocol_blocks"])
        out["simulate.rounds"] = rounds
        out["simulate.rounds_per_s"] = rounds / busy if busy > 0 else 0.0
        return out


def _patch(module, attr, make_wrapper):
    original = getattr(module, attr, None)
    if original is not None:  # a removed function does no work to trace
        setattr(module, attr, make_wrapper(original))


def _lp_built(counts, args, lp):
    counts["nslp.lp_rows"] += len(lp.rows)
    counts["nslp.lp_vars"] += lp.num_vars


def _lp_solved(counts, args, solution):
    if solution.status != "optimal":
        counts["nslp.solve.not_optimal"] += 1


def _reduction_checked(counts, args, ratio):
    counts["definetti.entries_checked"] += args[0].size


def _rounds(counts, args, transcript):
    counts["simulate.rounds"] += int(transcript.t.size)


_RESULT_HOOKS = {
    "nslp.build_ns_lp": _lp_built,
    "nslp.solve": _lp_solved,
    "definetti.verify_reduction_exact": _reduction_checked,
    "simulate.run_protocol": _rounds,
    "simulate.run_protocol_blocks": _rounds,
}
