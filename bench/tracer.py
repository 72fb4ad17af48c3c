"""Span tracer for the traced benchmark run.

The tracer wraps public callables of ``submax`` at the attribute their caller
looks up (a module global such as ``submax.cli.run_mcg``, or a class attribute
such as ``SetFunction.eval_many``), so no library source changes.  Each call
records one span ``(name, start, end, parent, job, note)`` in memory; the
spans are aggregated into per-layer metrics after a pass and written out once
at the end of the run.  A layer's self time is its spans' duration minus the
duration of their child spans (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

# (metric, unit, better); the traced run reports exactly these, in this order
PER_LAYER = (
    ("cli.jobs", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("mcg.steps", "count", "lower"),
    ("mcg.self_s", "s", "lower"),
    ("mcg.zeroed", "count", "lower"),
    ("dmcg.steps", "count", "lower"),
    ("dmcg.self_s", "s", "lower"),
    ("dmcg.solve_direction.calls", "count", "lower"),
    ("dmcg.solve_direction.self_s", "s", "lower"),
    ("polytope.linear_maximize.calls", "count", "lower"),
    ("polytope.linear_maximize.self_s", "s", "lower"),
    ("multilinear.table.builds", "count", "lower"),
    ("multilinear.table.self_s", "s", "lower"),
    ("multilinear.table_reuse", "1", "higher"),
    ("multilinear.grad.calls", "count", "lower"),
    ("multilinear.grad.self_s", "s", "lower"),
    ("multilinear.value.calls", "count", "lower"),
    ("multilinear.value.self_s", "s", "lower"),
    ("multilinear.grad_per_step", "1", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.self_s", "s", "lower"),
    ("subsets.masks_from_bits.self_s", "s", "lower"),
    ("setfn.eval_many.calls", "count", "lower"),
    ("setfn.eval_many.masks", "count", "lower"),
    ("setfn.eval_many.self_s", "s", "lower"),
    ("setfn.eval_many.masks_per_s", "1/s", "higher"),
    ("setfn.eval_many.peak_batch", "count", "lower"),
    ("setfn.eval.calls", "count", "lower"),
    ("setfn.eval.self_s", "s", "lower"),
    ("pipage.calls", "count", "lower"),
    ("pipage.self_s", "s", "lower"),
    ("pipage.value_calls", "count", "lower"),
    ("oracle.brute.calls", "count", "lower"),
    ("oracle.brute.masks", "count", "lower"),
    ("oracle.brute.self_s", "s", "lower"),
    ("oracle.verify_share", "1", "lower"),
    ("twosided.calls", "count", "lower"),
    ("twosided.self_s", "s", "lower"),
    ("welfare.simulate.self_s", "s", "lower"),
    ("welfare.brute.self_s", "s", "lower"),
    ("welfare.brute.masks", "count", "lower"),
    ("trace.overhead_frac", "1", "lower"),
)

# ancestor flags: which enclosing layers a span runs under
_IN_BRUTE, _IN_WELFARE_BRUTE, _IN_PIPAGE, _IN_ORACLE = 1, 2, 4, 8
_FLAG = {
    "oracle.brute": _IN_BRUTE,
    "welfare.brute": _IN_WELFARE_BRUTE,
    "pipage": _IN_PIPAGE,
    "setfn.eval_many": _IN_ORACLE,
    "setfn.eval": _IN_ORACLE,
}
_VERIFY = _IN_BRUTE | _IN_WELFARE_BRUTE
_RAISED = object()


def _trajectory_note(args, out) -> tuple[int, int]:
    steps = out[1].steps
    return len(steps), sum(getattr(s, "zeroed", 0) for s in steps)


def _targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, note) for every wrapped callable."""
    from submax import cli, dmcg, multilinear, pipage, polytope, setfn, welfare

    evaluator = multilinear.MultilinearEvaluator
    oracle = setfn.SetFunction
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "run_mcg", "mcg.run", _trajectory_note),
        (cli, "run_dmcg", "dmcg.run", _trajectory_note),
        (dmcg, "solve_direction", "dmcg.solve_direction", None),
        (evaluator, "table", "multilinear.table", lambda args, out: id(args[0].f)),
        (evaluator, "value_and_partials", "multilinear.grad", None),
        (evaluator, "value", "multilinear.value", None),
        (multilinear, "substream", "rng.substream", None),
        (welfare, "substream", "rng.substream", None),
        (multilinear, "masks_from_bits", "subsets.masks_from_bits", None),
        (pipage, "masks_from_bits", "subsets.masks_from_bits", None),
        (oracle, "eval_many", "setfn.eval_many", lambda args, out: int(out.size)),
        (oracle, "eval", "setfn.eval", None),
        (cli, "pipage_round", "pipage", None),
        (cli, "brute_unconstrained", "oracle.brute", None),
        (cli, "brute_cardinality", "oracle.brute", None),
        (cli, "brute_polytope_integral", "oracle.brute", None),
        (cli, "run_two_sided", "twosided", None),
        (cli, "simulate_random_assign", "welfare.simulate", None),
        (cli, "brute_force_welfare", "welfare.brute", None),
    ]
    for kind in (polytope.CardinalityPolytope, polytope.PartitionPolytope, polytope.KnapsackPolytope):
        targets.append((kind, "linear_maximize", "polytope.linear_maximize", None))
    return targets


class Tracer:
    """In-memory span recorder; ``job`` tags the spans of the running job."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self._stack: list[int] = []

    def wrap(self, fn, name: str, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = _RAISED
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                info = note(args, out) if note is not None and out is not _RAISED else None
                spans[sid] = (name, start, end, parent, self.job, info)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, note in _targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, parent, job, name, start, end, note."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tjob\tname\tstart\tend\tnote\n")
            for sid, (name, start, end, parent, job, note) in enumerate(self.spans):
                note = "" if note is None else note
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{start!r}\t{end!r}\t{note}\n")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass (every metric of
    ``PER_LAYER`` except ``trace.overhead_frac``)."""
    count = len(spans)
    child_time = [0.0] * count
    flags = [0] * count
    for sid, (name, start, end, parent, _, _) in enumerate(spans):
        # a span is appended when it opens, so its parent has a lower id
        if parent >= 0:
            child_time[parent] += end - start
            flags[sid] = flags[parent] | _FLAG.get(spans[parent][0], 0)

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    built: set[int] = set()
    steps = {"mcg.run": 0, "dmcg.run": 0}
    zeroed = masks = peak_batch = queries = verify_queries = brute_masks = welfare_masks = pipage_values = 0
    for sid, (name, start, end, parent, job, note) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]
        if name in steps and note is not None:
            steps[name] += note[0]
            zeroed += note[1] if name == "mcg.run" else 0
        elif name == "multilinear.value" and flags[sid] & _IN_PIPAGE:
            pipage_values += 1
        elif name.startswith("setfn.eval") and not flags[sid] & _IN_ORACLE:
            # nested oracle calls (a wrapper oracle calling its base) are not
            # queries of their own
            batch = note if name == "setfn.eval_many" and note is not None else 1
            queries += batch
            verify_queries += batch if flags[sid] & _VERIFY else 0
            if name == "setfn.eval_many":
                masks += batch
                peak_batch = max(peak_batch, batch)
                brute_masks += batch if flags[sid] & _IN_BRUTE else 0
                welfare_masks += batch if flags[sid] & _IN_WELFARE_BRUTE else 0
                if parent >= 0 and spans[parent][0] == "multilinear.table":
                    built.add(parent)
    tabulated = {(spans[sid][4], spans[sid][5]) for sid in built}
    all_steps = steps["mcg.run"] + steps["dmcg.run"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.jobs": calls.get("cli.main", 0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "mcg.steps": steps["mcg.run"],
        "mcg.self_s": self_s.get("mcg.run", 0.0),
        "mcg.zeroed": zeroed,
        "dmcg.steps": steps["dmcg.run"],
        "dmcg.self_s": self_s.get("dmcg.run", 0.0),
        "dmcg.solve_direction.calls": calls.get("dmcg.solve_direction", 0),
        "dmcg.solve_direction.self_s": self_s.get("dmcg.solve_direction", 0.0),
        "polytope.linear_maximize.calls": calls.get("polytope.linear_maximize", 0),
        "polytope.linear_maximize.self_s": self_s.get("polytope.linear_maximize", 0.0),
        "multilinear.table.builds": len(built),
        "multilinear.table.self_s": self_s.get("multilinear.table", 0.0),
        "multilinear.table_reuse": ratio(len(tabulated), len(built)),
        "multilinear.grad.calls": calls.get("multilinear.grad", 0),
        "multilinear.grad.self_s": self_s.get("multilinear.grad", 0.0),
        "multilinear.value.calls": calls.get("multilinear.value", 0),
        "multilinear.value.self_s": self_s.get("multilinear.value", 0.0),
        "multilinear.grad_per_step": ratio(calls.get("multilinear.grad", 0), all_steps),
        "rng.substream.calls": calls.get("rng.substream", 0),
        "rng.substream.self_s": self_s.get("rng.substream", 0.0),
        "subsets.masks_from_bits.self_s": self_s.get("subsets.masks_from_bits", 0.0),
        "setfn.eval_many.calls": calls.get("setfn.eval_many", 0),
        "setfn.eval_many.masks": masks,
        "setfn.eval_many.self_s": self_s.get("setfn.eval_many", 0.0),
        "setfn.eval_many.masks_per_s": ratio(masks, self_s.get("setfn.eval_many", 0.0)),
        "setfn.eval_many.peak_batch": peak_batch,
        "setfn.eval.calls": calls.get("setfn.eval", 0),
        "setfn.eval.self_s": self_s.get("setfn.eval", 0.0),
        "pipage.calls": calls.get("pipage", 0),
        "pipage.self_s": self_s.get("pipage", 0.0),
        "pipage.value_calls": pipage_values,
        "oracle.brute.calls": calls.get("oracle.brute", 0),
        "oracle.brute.masks": brute_masks,
        "oracle.brute.self_s": self_s.get("oracle.brute", 0.0),
        "oracle.verify_share": ratio(verify_queries, queries),
        "twosided.calls": calls.get("twosided", 0),
        "twosided.self_s": self_s.get("twosided", 0.0),
        "welfare.simulate.self_s": self_s.get("welfare.simulate", 0.0),
        "welfare.brute.self_s": self_s.get("welfare.brute", 0.0),
        "welfare.brute.masks": welfare_masks,
    }
