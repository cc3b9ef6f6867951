"""In-memory span recorder that wraps the library's public functions.

Each layer boundary is a public function of a ``sepfeti`` module. Callers
bind those functions either through another module's globals (``arr``
imports the ``feti`` functions by name) or through their own module's
globals (``feti`` calls ``apply_K1_inverse`` directly), so every wrapper is
installed in the namespace the caller reads it from. ``Tracer.installed()``
patches them for the duration of a ``with`` block and restores the
originals afterwards, so untraced code runs the library unmodified.

A span is ``[name, start, end, parent, counts]`` with ``parent`` the index
of the enclosing span or -1 and ``counts`` the ``RESULT_COUNTS`` read from
the call's return value, or None. The library is single-threaded, so spans
nest strictly and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
from collections import defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute, layer metric). Several attributes may feed one metric:
# their self times and call counts add up.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("sepfeti.problems", "build_from_config", "problems.build"),
    ("sepfeti.random_field", "discretize_kl", "random_field.kl"),
    ("sepfeti.random_field", "lognormal_pc_coefficients", "random_field.pc"),
    ("sepfeti.random_field", "affine_uniform_field", "random_field.pc"),
    ("sepfeti.fem2d", "assemble_diffusion_mode", "fem2d.assemble"),
    ("sepfeti.fem2d", "assemble_elasticity_mode", "fem2d.assemble"),
    ("sepfeti.arr", "galerkin_mode_matrices", "pc_basis.galerkin"),
    ("sepfeti.arr", "eval_multivariate_batch", "pc_basis.eval"),
    ("sepfeti.reference", "eval_multivariate_batch", "pc_basis.eval"),
    ("sepfeti.arr", "build_block_operators", "feti.block_ops"),
    ("sepfeti.arr", "direct_saddle_solve", "feti.direct"),
    ("sepfeti.arr", "build_interface_problem", "feti.interface_setup"),
    ("sepfeti.feti", "build_preconditioner", "feti.precond_build"),
    ("sepfeti.arr", "pcpg_solve", "feti.pcpg"),
    ("sepfeti.feti", "apply_K1_inverse", "feti.local_solve"),
    ("sepfeti.feti", "apply_K2_pseudoinverse", "feti.local_solve"),
    ("sepfeti.arr", "recover_primal", "feti.recover"),
    ("sepfeti.arr", "arr_run", "arr.solve"),
    ("sepfeti.arr", "deterministic_update", "arr.det_update"),
    ("sepfeti.arr", "energy", "arr.energy"),
    ("sepfeti.arr", "stochastic_update_phi1", "arr.phi_update"),
    ("sepfeti.arr", "stochastic_update_phi2", "arr.phi_update"),
    ("sepfeti.arr", "residual_norm", "arr.residual"),
    ("sepfeti.arr", "interface_violation", "arr.gap"),
    ("sepfeti.reference", "as_monolithic", "reference.monolithic"),
    ("sepfeti.problems", "as_monolithic", "reference.monolithic"),
    ("sepfeti.reference", "solve_monolithic_sg", "reference.sg"),
    ("sepfeti.reference", "monte_carlo_reference", "reference.mc"),
    ("sepfeti.stats", "report_separated", "stats.report"),
    ("sepfeti.stats", "report_reference", "stats.report"),
    ("sepfeti.stats", "error_metrics", "stats.compare"),
)

# A count read from a layer's return value: layer -> (metric, extractor).
RESULT_COUNTS: dict[str, tuple[str, Callable[[object], int]]] = {
    "feti.pcpg": ("feti.pcpg_iters", lambda out: out[1].n_iters),
    "reference.mc": ("reference.mc_samples", lambda out: out.n_samples),
}

# Spans reported as inclusive time; every other ``*_s`` layer metric is the
# span's self time.
INCLUSIVE = ("problems.build", "arr.solve")

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in PATCHES))


class Tracer:
    """Collects spans and result counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        count = RESULT_COUNTS.get(layer, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([layer, perf_counter(), None, parent, None])
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.spans[index][4] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapper in place; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def mark(self) -> int:
        """Position to pass to ``summary`` for spans recorded from now on."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, float]:
        """Per-layer self time, call count and result counts of the spans
        recorded since ``since``; inclusive time and ``self_s`` for the
        ``INCLUSIVE`` layers."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= since:
                child_time[parent - since] += end - start
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = 0.0
            out[f"{layer}_calls"] = 0
        for key, _ in RESULT_COUNTS.values():
            out[key] = 0
        for k, (name, start, end, _, count) in enumerate(spans):
            own = end - start - child_time[k]
            if count is not None:
                out[RESULT_COUNTS[name][0]] += count
            out[f"{name}_calls"] += 1
            if name in INCLUSIVE:
                out[f"{name}_s"] += end - start
                key = f"{name.split('.')[0]}.self_s"
                out[key] = out.get(key, 0.0) + own
            else:
                out[f"{name}_s"] += own
        return out


def check_spans(spans: list[list], root: str = "arr.solve") -> list[str]:
    """Problems with the span tree under each ``root`` span: spans recorded
    while it ran that are not its descendants, children that leave their
    parent's interval, negative self times, or subtree self times that do
    not add up to the root's duration. Empty when sound."""
    problems = []
    children: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(k)
    for k, (name, start, end, *_) in enumerate(spans):
        if name != root:
            continue
        total_self = 0.0
        todo, seen = [k], set()
        while todo:
            node = todo.pop()
            seen.add(node)
            n_start, n_end = spans[node][1], spans[node][2]
            kids = children[node]
            own = (n_end - n_start) - sum(spans[c][2] - spans[c][1] for c in kids)
            if own < -1e-9:
                problems.append(f"span {node} ({spans[node][0]}) has self time {own}")
            for c in kids:
                if spans[c][1] < n_start or spans[c][2] > n_end:
                    problems.append(f"span {c} ({spans[c][0]}) leaves parent {node}")
            total_self += own
            todo.extend(kids)
        # spans are recorded in start order
        later = itertools.takewhile(lambda j: spans[j][1] <= end, range(k + 1, len(spans)))
        stray = [j for j in later if j not in seen]
        if stray:
            problems.append(f"spans {stray[:5]} ran inside span {k} but outside its tree")
        duration = end - start
        if abs(total_self - duration) > 1e-9 * max(1.0, duration):
            problems.append(
                f"self times under span {k} sum to {total_self}, not {duration}"
            )
    return problems
