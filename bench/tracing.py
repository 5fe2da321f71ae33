"""Spans recorded from outside hullstop, by wrapping its public functions.

Every wrapper replaces a function in each ``hullstop`` module that binds it,
so the call is timed where its caller looks it up (``termination`` calls
``ratio_step`` through its own globals, ``cli`` calls ``lse_error_bound``
through its own). ``DiGraph.diameter`` is a cached property and is wrapped as
one. Wrappers are removed when the ``installed()`` block exits.

Spans are kept in memory as ``[name, start, end, parent, op, note]`` rows and
written out by ``write_spans`` when the benchmark ends. ``note`` holds a count
taken from the call's result where a layer metric needs one.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import cached_property


def _round_note(args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    return (g.n, max(len(s.ext) for s in result))


# (module that defines it, attribute, span name, note taken from the result)
TARGETS = [
    ("hullstop.graph", "generate_digraph", "graph.generate", lambda a, k, r: len(r.edges)),
    ("hullstop.graph", "make_weights", "graph.weights", None),
    ("hullstop.consensus", "ratio_step", "consensus.step", None),
    ("hullstop.consensus", "row_step", "consensus.step", None),
    ("hullstop.consensus", "run_consensus", "consensus.run", None),
    ("hullstop.consensus", "write_state_csv", "consensus.write_state_csv", None),
    ("hullstop.consensus", "read_state_csv", "consensus.read_state_csv", None),
    ("hullstop.termination", "radius_step", "termination.radius_step", None),
    ("hullstop.termination", "bit_step", "termination.bit_step", None),
    ("hullstop.termination", "run_radius_stopping", "termination.radius", None),
    ("hullstop.termination", "run_box_stopping", "termination.box", None),
    ("hullstop.termination", "run_hull_stopping", "termination.hull", None),
    ("hullstop.termination", "write_termination_csv", "termination.write_termination_csv", None),
    ("hullstop.hull", "hull_round", "hull.round", _round_note),
    ("hullstop.hull", "run_hull_consensus", "hull.run", None),
    ("hullstop.geometry", "extreme_points", "geometry.extreme_points", None),
    # private deciders: counted so the tableau/Wolfe split shows; a later
    # change may remove either, which makes its metrics absent
    ("hullstop.geometry", "_phase_one_feasible", "geometry.tableau", lambda a, k, r: int(bool(r))),
    ("hullstop.geometry", "_min_norm_member", "geometry.wolfe", None),
    ("hullstop.applications", "lse_error_bound", "applications.lse_error_bound", None),
    ("hullstop.applications", "funccalc_error", "applications.funccalc_error", None),
    ("hullstop.harness", "run_experiment", "harness.run_experiment", None),
    ("hullstop.harness", "verify_states_file", "harness.verify_states_file", None),
    ("hullstop.harness", "compare_criteria", "harness.compare_criteria", None),
]
DIAMETER_SPAN = "graph.diameter"


def load_modules():
    """Import every module the wrappers patch, so they can be patched."""
    for mod in {t[0] for t in TARGETS} | {"hullstop", "hullstop.cli"}:
        importlib.import_module(mod)


class NullTracer:
    """Stands in for Tracer in untraced ops: records nothing."""

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.present: set = set()
        self.op = None
        self._stack: list = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, start):
        end = time.perf_counter()
        self._stack.pop()
        rec = self.spans[sid]
        rec[1], rec[2] = start, end
        return rec

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, start)

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec = self._close(sid, start)
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target in every hullstop module binding it; undo on exit."""
        patches = []
        try:
            mods = [m for key, m in list(sys.modules.items())
                    if key == "hullstop" or key.startswith("hullstop.")]
            for modname, attr, name, note in TARGETS:
                orig = getattr(sys.modules[modname], attr, None)
                if orig is None:
                    continue
                self.present.add(name)
                wrapper = self._wrap(name, orig, note)
                for m in mods:
                    if m.__dict__.get(attr) is orig:
                        patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)
            cls = sys.modules["hullstop.graph"].DiGraph
            prop = cls.__dict__.get("diameter")
            if isinstance(prop, cached_property):
                self.present.add(DIAMETER_SPAN)
                new = cached_property(self._wrap(DIAMETER_SPAN, prop.func,
                                                 lambda a, k, r: int(r)))
                new.__set_name__(cls, "diameter")
                patches.append((cls, "diameter", prop))
                setattr(cls, "diameter", new)
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


class OpStats:
    """Per-name totals over the spans of one op (or of the set-up)."""

    def __init__(self):
        self.time: dict = {}
        self.calls: dict = {}
        self.self_time: dict = {}
        self.notes: dict = {}
        self.child_calls: dict = {}   # (name, parent name) -> calls

    def t(self, name):
        return self.time.get(name, 0.0)

    def n(self, name):
        return self.calls.get(name, 0)


def stats_by_op(spans) -> dict:
    """Group spans by op and total duration, calls and self time per name.

    A span's self time is its duration minus that of its direct children;
    calls are synchronous, so children never overlap.
    """
    child_sum = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    out: dict = {}
    for sid, (name, start, end, parent, op, note) in enumerate(spans):
        st = out.setdefault(op, OpStats())
        dur = end - start
        st.time[name] = st.time.get(name, 0.0) + dur
        st.calls[name] = st.calls.get(name, 0) + 1
        st.self_time[name] = st.self_time.get(name, 0.0) + dur - child_sum[sid]
        if note is not None:
            st.notes.setdefault(name, []).append(note)
        pname = spans[parent][0] if parent >= 0 else None
        st.child_calls[(name, pname)] = st.child_calls.get((name, pname), 0) + 1
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        for sid, (name, start, end, parent, op, note) in enumerate(spans):
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                 "start": start, "end": end, "note": note}) + "\n")


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(setup: OpStats, ops: list, outcome, present: set,
                  traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op value.

    Graph metrics add the traced set-up's share, because the stop_* workloads
    build their graph there. A metric whose function no longer exists is
    reported absent (value None), never as zero.
    """
    def med(fn, median=statistics.median):
        return median([fn(st) for st in ops])

    def count(fn):
        return med(fn, statistics.median_low)

    def secs(name, with_setup=False):
        return med(lambda st: st.t(name)) + (setup.t(name) if with_setup else 0.0)

    def calls(name):
        return count(lambda st: st.n(name))

    def self_t(*names):
        return med(lambda st: sum(st.self_time.get(nm, 0.0) for nm in names))

    def hull_note(st, i, agg):
        vals = [nt[i] for nt in st.notes.get("hull.round", [])]
        return agg(vals) if vals else 0

    def settled(st):
        return sum(st.notes.get("geometry.tableau", []))

    def cache_hit(st):
        rounds = hull_note(st, 0, sum)
        return 1.0 - _ratio(st.child_calls.get(("geometry.extreme_points", "hull.round"), 0),
                            rounds) if rounds else 0.0

    halts = outcome.halts
    cli_cmds = ("cli.compare", "cli.lse", "cli.funccalc", "cli.hull")
    rows = [
        ("graph.generate_s", "s", ["graph.generate"], lambda: secs("graph.generate", True)),
        ("graph.weights_s", "s", ["graph.weights"], lambda: secs("graph.weights", True)),
        ("graph.diameter_s", "s", [DIAMETER_SPAN], lambda: secs(DIAMETER_SPAN, True)),
        ("graph.edges", "count", ["graph.generate"],
         lambda: sum(setup.notes.get("graph.generate", []))
         + count(lambda st: sum(st.notes.get("graph.generate", [])))),
        ("graph.D", "count", [DIAMETER_SPAN],
         lambda: max(setup.notes.get(DIAMETER_SPAN, [0])
                     + [max(st.notes.get(DIAMETER_SPAN, [0])) for st in ops])),
        ("consensus.step_s", "s", ["consensus.step"], lambda: secs("consensus.step")),
        ("consensus.step_calls", "count", ["consensus.step"], lambda: calls("consensus.step")),
        ("consensus.write_state_csv_s", "s", ["consensus.write_state_csv"],
         lambda: secs("consensus.write_state_csv")),
        ("consensus.read_state_csv_s", "s", ["consensus.read_state_csv"],
         lambda: secs("consensus.read_state_csv")),
        ("termination.radius_step_s", "s", ["termination.radius_step"],
         lambda: secs("termination.radius_step")),
        ("termination.radius_step_calls", "count", ["termination.radius_step"],
         lambda: calls("termination.radius_step")),
        ("termination.bit_step_s", "s", ["termination.bit_step"],
         lambda: secs("termination.bit_step")),
        ("termination.bit_step_calls", "count", ["termination.bit_step"],
         lambda: calls("termination.bit_step")),
        ("termination.radius.self_s", "s", ["termination.radius"],
         lambda: self_t("termination.radius")),
        ("termination.box.self_s", "s", ["termination.box"], lambda: self_t("termination.box")),
        ("termination.hull.self_s", "s", ["termination.hull"], lambda: self_t("termination.hull")),
        ("termination.write_termination_csv_s", "s", ["termination.write_termination_csv"],
         lambda: secs("termination.write_termination_csv")),
        ("halt_k.radius", "count", [], lambda: halts.get("radius", 0)),
        ("halt_k.box", "count", [], lambda: halts.get("box", 0)),
        ("halt_k.hull", "count", [], lambda: halts.get("hull", 0)),
        ("hull.round_s", "s", ["hull.round"], lambda: secs("hull.round")),
        ("hull.round_calls", "count", ["hull.round"], lambda: calls("hull.round")),
        ("hull.node_rounds", "count", ["hull.round"],
         lambda: count(lambda st: hull_note(st, 0, sum))),
        ("hull.max_points", "count", ["hull.round"],
         lambda: count(lambda st: hull_note(st, 1, max))),
        ("hull.cache_hit_ratio", "ratio", ["hull.round", "geometry.extreme_points"],
         lambda: med(cache_hit)),
        ("geometry.extreme_points_s", "s", ["geometry.extreme_points"],
         lambda: secs("geometry.extreme_points")),
        ("geometry.extreme_points_calls", "count", ["geometry.extreme_points"],
         lambda: calls("geometry.extreme_points")),
        ("geometry.tableau_calls", "count", ["geometry.tableau"],
         lambda: calls("geometry.tableau")),
        ("geometry.wolfe_calls", "count", ["geometry.wolfe"], lambda: calls("geometry.wolfe")),
        ("geometry.tableau_settled_ratio", "ratio", ["geometry.tableau"],
         lambda: med(lambda st: _ratio(settled(st), st.n("geometry.tableau")))),
        ("applications.lse_error_bound_s", "s", ["applications.lse_error_bound"],
         lambda: secs("applications.lse_error_bound")),
        ("applications.lse_error_bound_calls", "count", ["applications.lse_error_bound"],
         lambda: calls("applications.lse_error_bound")),
        ("applications.funccalc_error_s", "s", ["applications.funccalc_error"],
         lambda: secs("applications.funccalc_error")),
        ("applications.funccalc_error_calls", "count", ["applications.funccalc_error"],
         lambda: calls("applications.funccalc_error")),
        ("harness.run_experiment.self_s", "s", ["harness.run_experiment"],
         lambda: self_t("harness.run_experiment")),
        ("harness.verify_states_file_s", "s", ["harness.verify_states_file"],
         lambda: secs("harness.verify_states_file")),
        ("harness.compare_criteria_s", "s", ["harness.compare_criteria"],
         lambda: secs("harness.compare_criteria")),
        ("harness.bytes_written", "bytes", [], lambda: outcome.bytes_written.get("harness", 0)),
        ("cli.compare_s", "s", [], lambda: secs("cli.compare")),
        ("cli.lse_s", "s", [], lambda: secs("cli.lse")),
        ("cli.funccalc_s", "s", [], lambda: secs("cli.funccalc")),
        ("cli.hull_s", "s", [], lambda: secs("cli.hull")),
        ("cli.self_s", "s", [], lambda: self_t(*cli_cmds)),
        ("cli.bytes_written", "bytes", [], lambda: outcome.bytes_written.get("cli", 0)),
        ("trace.overhead_frac", "ratio", [], lambda: traced_run_s / untraced_run_s - 1.0),
        ("trace.run_s", "s", [], lambda: traced_run_s),
        ("trace.untraced_run_s", "s", [], lambda: untraced_run_s),
    ]
    metrics = {}
    for name, unit, needs, fn in rows:
        if all(nm in present for nm in needs):
            metrics[name] = {"value": fn(), "unit": unit}
        else:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
    return metrics
