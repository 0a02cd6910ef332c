"""Outside-in span tracing of a sympwalk CLI call.

The tracer wraps module functions at each layer boundary from outside the
package: every module attribute bound to a target function (the defining
module and every module that imported the name) is replaced by a timing
wrapper, and all originals are put back when the traced call ends.  Nothing
inside `src/` changes, wrapped functions return exactly what they did, and
a target that no longer exists is reported as absent instead of failing.

Each span accumulates inclusive time, self time (inclusive minus the time
covered by nested spans) and a work count.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


def _rows(args):
    return int(args[0].shape[0])


def _perm_table(args, result):
    # moves x states x 4 bytes (int32 permutation entries)
    return len(args[2]) * len(args[0]) * 4 / 1e6


# (span, module, attribute, work counter).  The attribute may be dotted for
# a class method.  A counter gets (args, result) and returns the work done.
SPANS = (
    ("engine.congruence", "sympwalk._engine", "_congruence_f", lambda a, r: _rows(a)),
    ("engine.closure", "sympwalk._engine", "enumerate_closure", lambda a, r: len(r)),
    ("engine.perms", "sympwalk._engine", "move_permutations", _perm_table),
    ("engine.lump_counts", "sympwalk._engine", "lump_transition_counts", None),
    ("engine.reachable", "sympwalk._engine", "reachable_from", None),
    ("engine.mc_step", "sympwalk._engine", "mc_step", lambda a, r: _rows(a)),
    ("engine.init", "sympwalk._engine", "initial_grams", None),
    ("engine.pack", "sympwalk._engine", "pack_keys", None),
    ("engine.charpoly", "sympwalk._engine", "batched_charpoly", None),
    ("engine.rank", "sympwalk._engine", "batched_rank", lambda a, r: _rows(a)),
    ("walk.classify", "sympwalk.walk", "_classify_X", lambda a, r: 1),
    ("walk.classify", "sympwalk.walk", "_classify_states_batched", lambda a, r: len(a[0])),
    ("linalg.class_invariant", "sympwalk.linalg", "class_invariant", lambda a, r: 1),
    ("linalg.factor", "sympwalk.linalg", "factor_poly", lambda a, r: 1),
    ("walk.chain", "sympwalk.walk", "exact_form_chain", None),
    ("walk.raw_chain", "sympwalk.walk", "_raw_chain_engine", None),
    ("walk.mc", "sympwalk.walk", "monte_carlo_curve", None),
    ("walk.mc", "sympwalk.walk", "monte_carlo_tv", None),
    ("walk.stationary", "sympwalk.walk", "stationary_type_distribution", None),
    ("walk.tv", "sympwalk.walk", "ChainModel.tv_curve", None),
    ("walk.tv", "sympwalk.walk", "_tv_and_stderr", None),
    ("combinat.enumerate", "sympwalk.combinat", "enumerate_partition_fns", lambda a, r: len(r)),
    ("combinat.anchored", "sympwalk.combinat", "enumerate_anchored_fns", lambda a, r: len(r)),
    ("combinat.class_size_qsq", "sympwalk.combinat", "class_size_qsq", lambda a, r: 1),
    ("combinat.dim_irrep", "sympwalk.combinat", "dim_irrep", lambda a, r: 1),
    ("spectral.eigenvalue", "sympwalk.spectral", "eigenvalue_phi", lambda a, r: 1),
    ("bounds.upper", "sympwalk.bounds", "upper_bound_tv", None),
    ("bounds.lower", "sympwalk.bounds", "lower_bound_tv", None),
)

ROOT_SPAN = "cli"


class Tracer:
    """Span totals for one traced call; create one per call."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.inclusive = {}
        self.self_time = {}
        self.work = {}
        self.calls = {}
        self.absent = []
        self._stack = []  # child time accumulated under each open span

    def _enter(self):
        self._stack.append(0.0)

    def _exit(self, name, elapsed):
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self.inclusive[name] = self.inclusive.get(name, 0.0) + elapsed
        self.self_time[name] = self.self_time.get(name, 0.0) + elapsed - child
        self.calls[name] = self.calls.get(name, 0) + 1

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, time.perf_counter() - t0)
            if counter is not None:
                tracer.work[name] = tracer.work.get(name, 0) + counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every span target; restore on exit."""
        restore = []
        try:
            for name, module_name, attr, counter in self.spans:
                module = sys.modules.get(module_name)
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                wrapped = self._wrap(name, fn, counter)
                if owner_name:
                    bindings = [(owner, fn_name)]
                else:
                    bindings = [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name.split(".")[0] == "sympwalk"
                        for key, value in list(vars(mod).items())
                        if value is fn
                    ]
                for holder, key in bindings:
                    restore.append((holder, key, getattr(holder, key)))
                    setattr(holder, key, wrapped)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    def call(self, fn, *args):
        """Run fn under the root span with every target patched."""
        with self.installed():
            self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self._exit(ROOT_SPAN, time.perf_counter() - t0)

    def summary(self):
        return {
            "inclusive": self.inclusive,
            "self": self.self_time,
            "work": self.work,
            "calls": self.calls,
            "absent": self.absent,
        }
