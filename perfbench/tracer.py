"""Span tracer for the benchmark's traced run.

Each traced function is replaced, in every ``ctrx`` module that holds a name
bound to it, by a wrapper that records one span per call: call count, total
(inclusive) seconds, and self seconds (total minus the time of the spans it
encloses). Rebinding module globals also catches calls made inside the
defining module, since Python looks those names up at call time. Nothing in
``ctrx`` itself changes; ``uninstall`` puts every original name back.
"""

import importlib
import sys
import time

# <module>.<function> under ctrx, in the order the metrics are listed
SPANS = (
    "cli.main",
    "tensorops.conv2d_circular",
    "tensorops.conv2d_circular_adjoint",
    "tensorops.conv_operator_norm",
    "tensorops.scaled_conv",
    "wavelets.dwt2",
    "wavelets.idwt2",
    "wavelets.soft_threshold_hf",
    "layers.network_forward",
    "layers.contractive_layer",
    "layers.prox_wavelet_layer",
    "layers.contraction_certificate",
    "layers.constrain_params",
    "inference.plan_patches",
    "inference.patch_denoise",
    "pnp.pnp_fbs",
    "pnp.grad_datafit",
    "pnp.apply_forward",
    "pnp.apply_adjoint",
    "pnp.composite_contraction_bound",
    "trainer.train",
    "trainer.backward",
    "metrics.psnr",
    "io.read_image",
    "io.write_image",
    "io.load_weights",
    "io.save_weights",
)

# work counts recorded at span boundaries, beside the per-span call counts
PATCHES = "inference.patch_denoise.patches"
ITERATIONS = "pnp.pnp_fbs.iterations"
FORWARD_APPLICATIONS = "pnp.composite_contraction_bound.forward_applications"
COUNTS = (PATCHES, ITERATIONS, FORWARD_APPLICATIONS)


def _patch_count(args, kwargs, result):
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return len(plan.row_starts) * len(plan.col_starts)


def _iteration_count(args, kwargs, result):
    return result.iterations


# span -> (count name, function of (args, kwargs, result) giving the increment)
_AFTER = {
    "inference.patch_denoise": (PATCHES, _patch_count),
    "pnp.pnp_fbs": (ITERATIONS, _iteration_count),
}


class Tracer:
    """Per-span totals for the ops run while installed; ``reset`` between ops."""

    def __init__(self):
        self.missing = []
        self._installed = []
        # per span: [calls, total seconds, self seconds], updated in place
        self._records = {span: [0, 0.0, 0.0] for span in SPANS}
        self.counts = dict.fromkeys(COUNTS, 0)
        # child seconds of each open span, innermost last
        self._children = []
        self._bound_depth = 0

    def reset(self):
        for rec in self._records.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(COUNTS, 0)

    def snapshot(self):
        """Plain dict of every metric for the spans recorded since ``reset``."""
        out = {}
        for span, (calls, total_s, self_s) in self._records.items():
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = self_s
            out[f"{span}.total_s"] = total_s
        out.update(self.counts)
        return out

    def _wrap(self, span, fn):
        rec = self._records[span]
        children = self._children
        after = _AFTER.get(span)
        is_bound = span == "pnp.composite_contraction_bound"
        is_forward = span == "pnp.apply_forward"
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if is_forward and self._bound_depth:
                self.counts[FORWARD_APPLICATIONS] += 1
            self._bound_depth += is_bound
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._bound_depth -= is_bound
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if after is not None:
                self.counts[after[0]] += after[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Rebind every ctrx name that refers to a traced function."""
        wrappers = {}
        self.missing = []
        for span in SPANS:
            module_name, func_name = span.split(".")
            fn = getattr(importlib.import_module(f"ctrx.{module_name}"),
                         func_name, None)
            if fn is None:
                self.missing.append(span)
                continue
            wrappers[id(fn)] = (fn, self._wrap(span, fn))
        modules = [m for name, m in sys.modules.items()
                   if name == "ctrx" or name.startswith("ctrx.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed = []
