"""Spans around the public functions of coherence_forge, from outside.

``Tracer.installed()`` swaps every module-level public function of each
layer for a wrapper, in every package namespace that holds it (so
``eig_hermitian`` is caught whether ``measures`` or ``linalg`` calls it),
and puts the original objects back when the block exits.  Spans stay in
memory as ``[name, start, end, parent, request, info]`` lists;
``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time

PACKAGE = "coherence_forge"
LAYERS = ("cli", "linalg", "measures", "purification", "clockdist",
          "convert", "channels", "distill")
# cli.main is the request entry point; the benchmark's "request" span
# stands in for it.
SKIP = {("cli", "main")}
SDP_GAP = 1e-7          # Tolerances.sdp_gap of the seed code
SPAN_FIELDS = ["name", "start", "end", "parent", "request", "info"]
_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}


def _eig_size(args, out):
    return len(args[0])


def _probs_len(args, out):
    return len(out.probs)


def _kraus_count(args, out):
    return len(out.kraus)


def _sdp_gap(args, out):
    return out.primal_dual_gap


# Extra facts recorded on a successful return, keyed by span name.
PROBES = {"linalg.eig_hermitian": _eig_size,
          "clockdist.convolve_n": _probs_len,
          "channels.twirl": _kraus_count,
          "distill.conditional_min_entropy": _sdp_gap}


def public_functions(module, layer):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and not name.startswith("_")
                and obj.__module__ == module.__name__
                and (layer, name) not in SKIP):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.request_id = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   tracer.request_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if probe is not None:
                rec[5] = probe(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions for the length of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module, layer):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        saved = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrappers[value])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    @contextlib.contextmanager
    def request(self, request_id):
        """Root span of one request."""
        rec = ["request", time.perf_counter(), 0.0, -1, request_id, None]
        self.request_id = request_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()
            self.request_id = None

    def write_jsonl(self, path):
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from a span list.

    ``L.s`` is time inside any span of layer L (nested spans of the same
    layer are counted once); ``L.self_s`` is time whose innermost span
    belongs to L, i.e. each span's duration minus its children's.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    anc = [0] * n            # bit mask of layers among a span's ancestors
    in_shift = [False] * n   # span runs under convert.best_shift
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    eig = {"linalg.eig_calls": 0, "linalg.eig_s": 0.0,
           "linalg.eig_n3_sum": 0, "linalg.eig_n_max": 0,
           "measures.eig_calls": 0, "purification.eig_calls": 0,
           "channels.eig_calls": 0, "distill.eig_calls": 0,
           "purification.eig_n_max": 0}
    extra = {"cli.load_s": 0.0, "clockdist.conv_len_sum": 0,
             "convert.tv_evals": 0, "channels.kraus_out": 0,
             "distill.stalls": 0, "distill.gap_max": 0.0,
             "distill.gap_margin": 1.0}
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        if parent >= 0:
            pname = spans[parent][0]
            anc[i] = anc[parent] | _BIT.get(pname.split(".", 1)[0], 0)
            in_shift[i] = in_shift[parent] or pname == "convert.best_shift"
        if layer not in _BIT:
            continue
        dur = end - start
        outer = not anc[i] & _BIT[layer]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur - child_time[i]
        if outer:
            m[f"{layer}.s"] += dur
        if name == "linalg.eig_hermitian":
            eig["linalg.eig_calls"] += 1
            eig["linalg.eig_s"] += dur
            size = info if isinstance(info, int) else 0
            eig["linalg.eig_n3_sum"] += size ** 3
            eig["linalg.eig_n_max"] = max(eig["linalg.eig_n_max"], size)
            for owner in ("measures", "purification", "channels", "distill"):
                if anc[i] & _BIT[owner]:
                    eig[f"{owner}.eig_calls"] += 1
            if anc[i] & _BIT["purification"]:
                eig["purification.eig_n_max"] = max(
                    eig["purification.eig_n_max"], size)
        elif name in ("cli.load_state", "cli.load_hamiltonian"):
            extra["cli.load_s"] += dur
        elif name == "clockdist.convolve_n" and isinstance(info, int):
            extra["clockdist.conv_len_sum"] += info
        elif name == "clockdist.tv_distance" and in_shift[i]:
            extra["convert.tv_evals"] += 1
        elif name == "channels.twirl" and isinstance(info, int):
            extra["channels.kraus_out"] += info
        if layer == "distill" and outer and info == "SolverStallError":
            extra["distill.stalls"] += 1
        if name == "distill.conditional_min_entropy" and isinstance(info, float):
            extra["distill.gap_max"] = max(extra["distill.gap_max"], info)
            extra["distill.gap_margin"] = min(extra["distill.gap_margin"],
                                              1.0 - info / SDP_GAP)
    m.update(eig)
    m.update(extra)
    return m
