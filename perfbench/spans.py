"""Span tracing at the calls into rcpolar's modules.

Timing wrappers replace the public functions listed in ``TARGETS`` in every
rcpolar module namespace that holds them (``from .x import f`` copies the
name, so each importer is patched).  Spans stay in memory as
``[name, start, end, parent, words]`` and are written out once, when the
run ends.  A span's self time is its duration minus the time its child spans
cover; calls are strictly nested on one thread, so that is the sum of the
children's durations.
"""

import json
import sys
import time

import numpy as np

# (module, function): the layer boundaries the benchmark times.
TARGETS = (
    ("cli", "main"),
    ("design", "design_scheme"),
    ("design", "build_bler_curve"),
    ("construct", "construct_rcp"),
    ("construct", "build_repetition_plan"),
    ("reliability", "ga_evolve"),
    ("reliability", "check_mean_update"),
    ("reliability", "pe_from_mean"),
    ("reliability", "puncture_pattern"),
    ("codec", "rcp_encode"),
    ("codec", "sc_decode"),
    ("channel", "noise_stream"),
    ("channel", "observation_to_llr"),
    ("simulate", "run_campaign"),
    ("simulate", "bler_monte_carlo"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)

_MARK = "__perfbench_span__"


def _rows(llrs):
    """Words in an sc_decode call: rows of a (B, n) batch, 1 for one word."""
    shape = np.shape(llrs)
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []   # (module, attribute, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        count_words = name == "codec.sc_decode"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    _rows(args[0]) if count_words else 0]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracing is already installed")
        modules = _rcpolar_modules()
        for mod, fn_name in TARGETS:
            original = getattr(modules[f"rcpolar.{mod}"], fn_name)
            wrapper = self._wrap(original, f"{mod}.{fn_name}")
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []
        check_untraced()

    def write(self, path, meta):
        """Write the spans as JSON lines, after one header line."""
        with open(path, "w") as fp:
            fp.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                            "words"], **meta}) + "\n")
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def _rcpolar_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "rcpolar" or name.startswith("rcpolar.")}


def check_untraced():
    """Raise if any rcpolar namespace still holds a timing wrapper."""
    for name, module in _rcpolar_modules().items():
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"timing wrapper left on {name}.{attr}")


def layer_totals(spans, lo, hi):
    """Per span name: calls, self seconds and words over spans[lo:hi].

    Spans in the range must form whole trees (one traced operation).
    """
    child = [0.0] * (hi - lo)
    for span in spans[lo:hi]:
        if span[3] >= lo:
            child[span[3] - lo] += span[2] - span[1]
    totals = {name: {"calls": 0, "self_s": 0.0, "words": 0}
              for name in SPAN_NAMES}
    for i, span in enumerate(spans[lo:hi]):
        t = totals[span[0]]
        t["calls"] += 1
        t["self_s"] += span[2] - span[1] - child[i]
        t["words"] += span[4]
    return totals
