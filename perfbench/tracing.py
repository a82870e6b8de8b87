"""Spans around calls into indefbc's modules, recorded from outside the package.

The package imports names with ``from .x import y``, so a function is looked
up through every module that imported it.  ``Tracer.bind`` therefore
replaces a function at every binding of it in every ``indefbc`` module, and
``EXPECTED_BINDINGS`` lists the bindings the benchmark relies on, so a
binding it misses fails the run.

A span is (name, start, end, parent span, task id, exception class).  Spans
stay in memory until ``write_csv``.  A span's self time is its duration
minus the durations of its child spans; a module's self time is the sum
over its spans.
"""

from __future__ import annotations

import collections
import sys
import time

import numpy as np

# (defining module, function, span name); the layer is the span name's first part
TRACED = (
    ("dtn", "dtn_matrix", "dtn.dtn_matrix"),
    ("dtn", "assemble_helmholtz_dtn", "dtn.assemble"),
    ("spectral", "gamma1", "spectral.gamma1"),
    ("spectral", "principal_eigenvalue", "spectral.principal"),
    ("spectral", "weighted_steklov_spectrum", "spectral.mu"),
    ("problem", "residual_vector", "problem.residual"),
    ("problem", "residual_jacobian", "problem.jacobian"),
    ("problem", "functionals", "problem.functionals"),
    ("solve", "newton_solve", "solve.newton"),
    ("solve", "make_point", "solve.make_point"),
    ("solve", "multi_start_solutions", "solve.probe"),
    ("continuation", "continue_branch", "continuation.continue_branch"),
    ("experiments", "oracle_1d", "experiments.oracle"),
    ("config", "load_config", "config.load"),
    ("cli", "main", "cli.main"),
)

# (module, attribute) pairs through which the traced functions are called
EXPECTED_BINDINGS = {
    "dtn_matrix": {("dtn", "dtn_matrix"), ("spectral", "dtn_matrix"),
                   ("problem", "dtn_matrix"), ("continuation", "dtn_matrix")},
    "gamma1": {("spectral", "gamma1"), ("solve", "_gamma1")},
    "principal_eigenvalue": {(mod, "principal_eigenvalue") for mod in
                             ("spectral", "continuation", "solve", "experiments", "cli")},
    "weighted_steklov_spectrum": {("spectral", "weighted_steklov_spectrum"),
                                  ("cli", "weighted_steklov_spectrum")},
    "newton_solve": {("solve", "newton_solve"), ("continuation", "newton_solve")},
    "make_point": {("solve", "make_point"), ("continuation", "make_point")},
    "residual_vector": {(mod, "residual_vector") for mod in
                        ("problem", "solve", "continuation")},
    "residual_jacobian": {(mod, "residual_jacobian") for mod in
                          ("problem", "solve", "continuation")},
    "continue_branch": {(mod, "continue_branch") for mod in
                        ("continuation", "cli", "experiments")},
}


def _measures(span: str, args, kwargs, result) -> dict | None:
    """Outcome counts of a finished call, keyed by quantity."""
    if span == "dtn.assemble":
        return {"bytes": result.matrix.nbytes}  # computed size, m^2 * 8 B
    if span == "continuation.continue_branch":
        return {"points": len(result.points)}
    if span == "experiments.oracle":
        return {"pairs": len(result.pairs)}
    if span == "solve.probe":
        n_inits = args[2] if len(args) > 2 else kwargs["n_inits"]
        return {"distinct": len(result), "inits": n_inits}
    return None


class Tracer:
    """In-memory span recorder; spans are kept only while ``enabled``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.measures = collections.defaultdict(float)
        self.stack: list[int] = []
        self.task = -1
        self.enabled = False
        self.bound: list = []  # (module, attribute, original)
        self.bindings: dict[str, set] = {}

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            error = ""
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (nid, start, end, parent, self.task, error)
            counts = _measures(span, args, kwargs, result)
            if counts:
                for key, value in counts.items():
                    self.measures[f"{span}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def bind(self) -> None:
        """Replace each traced function at every binding in indefbc's modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "indefbc" or name.startswith("indefbc.")}
        for mod_name, func_name, span in TRACED:
            original = getattr(modules[f"indefbc.{mod_name}"], func_name)
            wrapper = self._wrap(span, original)
            found = set()
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.bound.append((mod, attr, original))
                        found.add((name.rpartition(".")[2], attr))
            self.bindings[func_name] = found

    def unbind(self) -> None:
        for mod, attr, original in reversed(self.bound):
            setattr(mod, attr, original)
        self.bound.clear()

    def missed_bindings(self) -> list:
        missed = []
        for func, expected in EXPECTED_BINDINGS.items():
            for mod, attr in sorted(expected - self.bindings.get(func, set())):
                missed.append(f"indefbc.{mod}.{attr}")
        return missed

    def summary(self):
        """Per span name: calls, total and self seconds, errors by class,
        and counts of each (child, parent) pair of span names."""
        spans = self.spans  # complete: no span is open between tasks
        n = len(spans)
        nid = np.array([s[0] for s in spans], dtype=int)
        dur = np.array([s[2] - s[1] for s in spans])
        parent = np.array([s[3] for s in spans], dtype=int)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_time, minlength=k)
        per_name = {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                    "self_s": float(own[i])} for i in range(k)}
        errors = collections.Counter((self.names[s[0]], s[5]) for s in spans if s[5])
        pairs = collections.Counter(
            (self.names[nid[i]], self.names[nid[parent[i]]] if parent[i] >= 0 else "")
            for i in range(n))
        return per_name, errors, pairs

    def write_csv(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("span,name,start_s,end_s,parent,task,error\n")
            for i, s in enumerate(self.spans):
                handle.write(f"{i},{self.names[s[0]]},{s[1] - t0:.9f},"
                             f"{s[2] - t0:.9f},{s[3]},{s[4]},{s[5]}\n")
