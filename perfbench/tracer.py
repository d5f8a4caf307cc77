"""Per-layer tracing of baxcat from outside the package.

`install()` replaces public functions with timing wrappers in every baxcat
module namespace that binds them (baxcat.verify.projector_op as well as
baxcat.treerep.projector_op), so calls made through imported names are
traced too.  A span's self time is its duration minus the spans it encloses;
functions called at high frequency get counters instead of spans.

As a script it replays one CLI command under the tracer:

    python3 tracer.py SPAWNED TRACE_FILE ARGV...

SPAWNED is the parent's time.monotonic() at process start (the clock is
system-wide on Linux); the layer totals go to TRACE_FILE as JSON and the
command's own output to stdout, as `baxcat ARGV` would print it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import checks

# layer self-time metric -> {module: public functions spanned}
SPANS = {
    "cli.self_s": {"baxcat.cli": ("main",)},
    "catalog.build_s": {"baxcat.catalog": ("build_family", "build_su2k", "build_minimal_A",
                                         "build_tambara_yamagami", "build_lie_twist_data")},
    "sixj.f_blocks_s": {"baxcat.sixj": ("su2k_f_blocks",)},
    "category.fusion_ring_s": {"baxcat.category": ("check_fusion_ring",)},
    "category.json_s": {"baxcat.category": ("category_to_json", "category_from_json")},
    "category.f_identities_s": {"baxcat.category": ("check_f_identities",)},
    "baxterize.solve_s": {"baxcat.baxterize": ("solve_central", "classify_pairs", "amplitude_at")},
    "treerep.basis_s": {"baxcat.treerep": ("enumerate_trees",)},
    "treerep.projector_s": {"baxcat.treerep": ("projector_op", "braid_op")},
    "treerep.rop_s": {"baxcat.treerep": ("r_op",)},
    "treerep.transfer_s": {"baxcat.treerep": ("transfer_matrix",)},
    "verify.self_s": {"baxcat.verify": ("verify_current_vertex", "verify_ybe",
                                 "verify_commuting_transfer", "verify_braid_limits",
                                 "verify_braid_relations", "verify_projector_algebra",
                                 "loop_functional_check", "loop_partition_enumeration",
                                 "loop_partition_transfer")},
}
COUNTERS = {
    "sixj.racah_calls": ("baxcat.sixj", None, "racah_sixj"),
    "category.f_lookups": ("baxcat.category", "FSymbolTable", "block_value"),
    "ratfunc.evaluate_calls": ("baxcat.ratfunc", "RationalFunction", "evaluate"),
}
# functions whose return values carry counts: name -> Tracer method
HOOKS = {"su2k_f_blocks": "f_table", "solve_central": "solution", "enumerate_trees": "basis",
         "projector_op": "dense", "braid_op": "dense", "r_op": "dense", "transfer_matrix": "dense",
         **{name: "report" for name in SPANS["verify.self_s"]["baxcat.verify"]
            if not name.startswith("loop_partition")}}
# every count metric: the COUNTERS and what the HOOKS read off returned values
COUNTS = tuple(COUNTERS) + ("sixj.f_entries", "baxterize.solves", "baxterize.cycle_checks",
                            "treerep.basis_dim_max", "treerep.dense_mb", "verify.mu_samples",
                            "verify.pole_skips")
# report checks whose `samples` are spectral-parameter samples
MU_SAMPLED = tuple(checks.MU_SAMPLED.values()) + ("functional_equation",)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []
        self._built = []          # F tables already counted (kept alive for `is`)

    def span(self, layer, fn, after=None):
        stack, self_s = self.stack, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = time.perf_counter() - frame[0]
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(out)
            return out
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # hooks that read counts off returned values
    def f_table(self, blocks):
        if not any(b is blocks for b in self._built):
            self._built.append(blocks)
            self.counts["sixj.f_entries"] += sum(len(us) * len(vs) for us, vs, _ in blocks.values())

    def solution(self, sol):
        self.counts["baxterize.solves"] += 1
        self.counts["baxterize.cycle_checks"] += len(sol.cycles)

    def basis(self, basis):
        self.counts["treerep.basis_dim_max"] = max(self.counts["treerep.basis_dim_max"], basis.size)

    def dense(self, op):
        self.counts["treerep.dense_mb"] += op.matrix.size * 16 / 1e6

    def report(self, rep):
        for c in rep.checks:
            if c.name in MU_SAMPLED:
                self.counts["verify.mu_samples"] += c.samples
            self.counts["verify.pole_skips"] += c.details.get("skipped_pole_collisions", 0)

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


def _rebind(orig, new):
    """Point every baxcat module attribute bound to `orig` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "baxcat" or mod_name.startswith("baxcat.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install() -> Tracer:
    """Wrap baxcat's public functions; import baxcat.cli first to trace it."""
    import importlib
    tracer = Tracer()
    for layer, targets in SPANS.items():
        for module, names in targets.items():
            mod = importlib.import_module(module)
            for name in names:
                orig = getattr(mod, name)
                hook = HOOKS.get(name)
                _rebind(orig, tracer.span(layer, orig, hook and getattr(tracer, hook)))
    # TY F tables are built inside the catalog layer but counted with sixj's
    ty = importlib.import_module("baxcat.catalog").ty_f_blocks
    _rebind(ty, tracer.span("catalog.build_s", ty, tracer.f_table))
    for name, (module, cls, attr) in COUNTERS.items():
        mod = importlib.import_module(module)
        if cls is None:
            orig = getattr(mod, attr)
            _rebind(orig, tracer.counter(name, orig))
        else:
            owner = getattr(mod, cls)
            setattr(owner, attr, tracer.counter(name, getattr(owner, attr)))
    return tracer


def main() -> int:
    spawned, trace_file, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import baxcat
    import baxcat.cli
    started = time.monotonic() - spawned
    tracer = install()
    try:
        rc = baxcat.cli.main(argv)
    except SystemExit as exc:      # argparse usage errors
        rc = exc.code
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"start_s": started, **tracer.summary()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
