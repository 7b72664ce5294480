"""Span tracer for traced benchmark runs, installed from outside the package.

Each traced layer is a public polysvd function.  Its wrapper replaces the
function under every name a caller can look it up by: the defining module's
attribute, re-exports and ``from ... import`` aliases in other polysvd
modules, entries of module-level dicts (the CLI's command table), and the
class attribute for ``PolyMatrix`` methods.  Spans (name, start, end, parent)
are kept in memory; self time is span time minus the time of direct child
spans.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import ast
import functools
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path


def _plain(fn, args, kwargs):
    return fn(*args, **kwargs), {}


def _eval_grid(fn, args, kwargs):
    out = fn(*args, **kwargs)
    k, m, l = out.shape
    t = args[0].n_taps
    # computed from the shapes, not measured: one complex MAC per (bin, tap, entry)
    return out, {"cmacs": k * t * m * l, "out_bytes": 16 * k * m * l}


def _svd_stack(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, {"matrices": len(args[0])}


def _smooth(fn, args, kwargs):
    from polysvd.anasvd import AssociationAmbiguous

    # the warnings are counted, not shown: traced runs keep stderr quiet
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kwargs)
    n_ambiguous = sum(issubclass(w.category, AssociationAmbiguous) for w in caught)
    return out, {"ambiguous_warnings": n_ambiguous}


def _perturb_and_analyze(fn, args, kwargs):
    out = fn(*args, **kwargs)
    return out, {"trials": len(out[0])}


def _write_csv(fn, args, kwargs):
    fh = args[1]
    start = fh.tell()
    out = fn(*args, **kwargs)
    return out, {"bytes": fh.tell() - start}


# layer name -> (module, attribute path, call wrapper that also returns counts)
TARGETS = {
    "polymat.eval_grid": ("polymat", "PolyMatrix.eval_grid", _eval_grid),
    "polymat.matmul": ("polymat", "PolyMatrix.__matmul__", _plain),
    "polymat.add": ("polymat", "PolyMatrix.__add__", _plain),
    "densela.svd_stack": ("densela", "svd_stack", _svd_stack),
    "anasvd.binwise_svd": ("anasvd", "binwise_svd", _plain),
    "anasvd.majorized_trajectories": ("anasvd", "majorized_trajectories", _plain),
    "anasvd.smooth_trajectories": ("anasvd", "smooth_trajectories", _smooth),
    "anasvd.diagnostics": ("anasvd", "diagnostics", _plain),
    "anasvd.write_trajectory_csv": ("anasvd", "write_trajectory_csv", _write_csv),
    "sysgen.bigsys": ("sysgen", "bigsys", _plain),
    "sysgen.example1": ("sysgen", "example1", _plain),
    "sysgen.assemble": ("sysgen", "assemble", _plain),
    "sysgen.reference_tracks": ("sysgen", "reference_tracks", _plain),
    "perturb.random_error": ("perturb", "random_error", _plain),
    "perturb.scale_to_normalized": ("perturb", "scale_to_normalized", _plain),
    "perturb.normalized_variance": ("perturb", "normalized_variance", _plain),
    "perturb.perturb_and_analyze": ("perturb", "perturb_and_analyze",
                                    _perturb_and_analyze),
    "perturb.bin_histogram_trials": ("perturb", "bin_histogram_trials", _plain),
    "perturb.rician_fit": ("perturb", "rician_fit", _plain),
    "sysid.simulate": ("sysid", "simulate", _plain),
    "sysid.wiener_estimate": ("sysid", "wiener_estimate", _plain),
    "sysid.mse_decomposition": ("sysid", "mse_decomposition", _plain),
    "cli.cmd_ex1": ("cli", "cmd_ex1", _plain),
    "cli.cmd_hist": ("cli", "cmd_hist", _plain),
    "cli.cmd_perturb": ("cli", "cmd_perturb", _plain),
    "cli.cmd_sysid": ("cli", "cmd_sysid", _plain),
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "polysvd" or name.startswith("polysvd."))]


class Tracer:
    """Wrappers for every loaded target plus the spans they record.

    Construct after the polysvd modules to trace are imported; targets in
    modules not yet imported (``polysvd.cli`` in a library workload) are
    skipped.  ``install``/``uninstall`` swap the wrappers in and out, so
    traced and untraced operations can alternate in one process.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(Counter)
        self.bindings = []  # human-readable names that were replaced
        self._stack = []
        self._patches = []  # (setter, wrapper, original)
        modules = _package_modules()
        for name, (mod_name, path, around) in TARGETS.items():
            mod = sys.modules.get(f"polysvd.{mod_name}")
            if mod is None:
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, around)
            if owner_name:  # a method: callers look it up on the class
                self._add(f"polysvd.{mod_name}.{path}",
                          functools.partial(setattr, owner, attr), wrapper, original)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._add(f"{m.__name__}.{key}",
                                  functools.partial(setattr, m, key), wrapper, original)
                    elif isinstance(value, dict):
                        for dkey, dval in value.items():
                            if dval is original:
                                self._add(f"{m.__name__}.{key}[{dkey!r}]",
                                          functools.partial(value.__setitem__, dkey),
                                          wrapper, original)

    def _add(self, label, setter, wrapper, original):
        self.bindings.append(label)
        self._patches.append((setter, wrapper, original))

    def _wrap(self, name, fn, around):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out, counts = around(fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name].update(counts)
            return out

        return traced

    def install(self) -> None:
        for setter, wrapper, _ in self._patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, _, original in self._patches:
            setter(original)

    def layer_stats(self) -> dict:
        """{layer: {"calls", "self_s", <counts>...}} summed over all spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
        for name, counts in self.counts.items():
            stats.setdefault(name, {"calls": 0, "self_s": 0.0}).update(counts)
        return stats


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def not_intercepted(src_dir) -> list:
    """Call sites the wrappers cannot see, found by parsing the package source.

    These are direct numpy linear-algebra/FFT calls and calls to names bound
    from scipy by ``from ... import``; their time lands in the self time of
    the enclosing polysvd function.
    """
    found = []
    for path in sorted(Path(src_dir, "polysvd").glob("*.py")):
        tree = ast.parse(path.read_text())
        scipy_names = {a.asname or a.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       and (node.module or "").startswith("scipy")
                       for a in node.names}

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name])
                    continue
                if isinstance(child, ast.Call):
                    name = _dotted(child.func)
                    if (name.startswith(("np.linalg.", "np.fft.", "scipy."))
                            or name in scipy_names):
                        found.append(f"{name} in {'.'.join([path.stem] + scope)}")
                visit(child, scope)

        visit(tree, [])
    return sorted(set(found))
