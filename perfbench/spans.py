"""Spans around simcert's public functions, recorded from outside the program.

A span is ``(layer, start, end, parent, op, ok, extra)``: ``parent`` is the
index of the enclosing span (-1 for an operation's root span), ``op`` the
index of the benchmark operation it belongs to, ``ok`` whether the call
returned instead of raising, and ``extra`` a per-layer integer (the noise
stream key, or the number of trials a simulation returned).

Wrapping replaces a module attribute, so only calls that look the name up
through that module at call time are seen.  ``cli`` imports some names
directly; those are wrapped in its namespace too.  Spans stay in memory and
are written out once, when the run ends.
"""

import time

import numpy as np

from simcert import bounds, cli, model, montecarlo, project, reference, smallgain, spsf


def _noise_key(args, kwargs, result) -> int:
    # noise_stream(seed, trial, subsystem_id, abstract)
    sid = args[2] if len(args) > 2 else kwargs["subsystem_id"]
    abstract = args[3] if len(args) > 3 else kwargs["abstract"]
    return 2 * int(sid) + int(bool(abstract))


def _trial_count(args, kwargs, result) -> int:
    return len(result)


# layer name -> (module, attribute, extra) for every wrapped public function
LAYERS = {
    "montecarlo.noise": [(montecarlo, "noise_stream", _noise_key)],
    "montecarlo.simulate": [(montecarlo, "simulate_pair", _trial_count)],
    "montecarlo.reduce": [(montecarlo, "violation_probability", None)],
    "project.load": [(project, "load_project", None), (cli, "load_project", None)],
    "project.save": [(project, "save_project", None), (cli, "save_project", None)],
    "model.assemble": [
        (model, "assemble_interconnection", None),
        (cli, "assemble_interconnection", None),
    ],
    "spsf.synth": [(spsf, "synthesize_MK", None)],
    "spsf.check": [(spsf, "check_conditions", None)],
    "spsf.constants": [(spsf, "derive_constants", None)],
    "spsf.structural": [(spsf, "solve_structural", None), (spsf, "compute_Rtilde", None)],
    "smallgain": [
        (smallgain, name, None)
        for name in ("build_gains", "spectral_radius_test", "find_mu", "compose")
    ],
    "bounds": [
        (bounds, name, None)
        for name in (
            "psi_hat",
            "finite_horizon_bound",
            "infinite_horizon_bound",
            "inflate_set",
            "safety_transfer",
        )
    ],
    "reference": [
        (reference, name, None)
        for name in (
            "published_constants",
            "reference_subsystems",
            "reference_topology",
            "reference_candidates",
            "reference_certificates",
            "reference_project",
        )
    ],
}

# root spans: one per operation, a CLI command or a library call
ROOTS = ("cli", "lib")


class Tracer:
    """Records spans while installed; ``op`` is set by the caller per operation."""

    def __init__(self):
        self.layers = list(ROOTS) + list(LAYERS)
        self._code = {name: i for i, name in enumerate(self.layers)}
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for module, attr, extra in targets:
                fn = getattr(module, attr, None)
                if fn is None:  # a later version may drop or inline the function
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, self._code[layer], extra))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, code, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, ok = None, False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                value = extra(args, kwargs, result) if (extra and ok) else 0
                spans[idx] = (code, t0, t1, parent, self.op, ok, value)

        traced.__wrapped__ = fn
        return traced

    def root(self, kind: str, call):
        """Run ``call`` inside a root span of ``kind`` ('cli' or 'lib')."""
        return self._wrap(call, self._code[kind], None)()

    def table(self) -> dict[str, np.ndarray]:
        """Spans as columns, with each span's self time (duration minus its children)."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 7)
        layer, start, end, parent, op, ok, extra = rows.T
        parent = parent.astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "layer": layer.astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": op.astype(np.int64),
            "ok": ok.astype(bool),
            "extra": extra.astype(np.int64),
            "self": dur - children,
        }

    def save(self, path) -> None:
        np.savez(path, layers=np.array(self.layers), **self.table())
