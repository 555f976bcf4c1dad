"""Run the `lf` command line in this process and record when stepping starts.

    python3 perfbench/launch.py --marks MARKS.json [--trace SPANS.npz] -- run CFG ...

Everything after `--` is passed to `lfsim.cli.main`, exactly as the `lf`
entry point would pass it, with the `lfsim` package taken from `src/` of the
checkout this file sits in.  The exit code is the one `lf` returns.

Untraced (no `--trace`): `Stepper.step` is replaced until its first call,
which records `time.monotonic()` and puts the original method back, so the
steps themselves run unwrapped.  After the run the launcher checks that every
attribute listed in WRAPS is still the object it was at import; if one is not,
it exits with code 70.

Traced (`--trace`): every attribute in WRAPS is replaced by a wrapper that
records a span (name, start, end, parent span) in memory.  The spans go to
SPANS.npz when `lf` returns; counts of transform shapes and of bytes written
go to MARKS.json.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (module, class or None, attribute, span name).  Each name is wrapped where
# its callers look it up: `experiments` imports `run`, `write_snapshot` and the
# diagnostics functions by name, so those are wrapped in `lfsim.experiments`;
# `integrate` calls `_kernels.<fn>` and `np.fft.<fn>` through the module.
WRAPS = [
    ("lfsim.config", None, "load_config", "config.load"),
    ("lfsim.config", None, "make_ordered_system", "model.build"),
    ("lfsim.config", None, "make_disordered_system", "model.build"),
    ("lfsim.experiments", None, "run_experiment", "experiments.run_experiment"),
    ("lfsim.experiments", None, "unstable_band", "stability"),
    ("lfsim.experiments", None, "growth_rate", "stability"),
    ("lfsim.experiments", None, "phase_diagram", "stability"),
    ("lfsim.experiments", None, "run", "integrate.run"),
    ("lfsim.integrate", "Stepper", "__init__", "integrate.stepper_init"),
    ("lfsim.integrate", "Stepper", "step", "integrate.step"),
    ("lfsim.integrate", "Stepper", "rhs", "integrate.rhs"),
    ("lfsim.integrate", "Stepper", "fine_physical", "integrate.fine_physical"),
    ("lfsim._kernels", None, "products_2d", "kernels.products"),
    ("lfsim._kernels", None, "products_3d", "kernels.products"),
    ("lfsim._kernels", None, "assemble_rhs", "kernels.assemble"),
    ("lfsim._kernels", None, "leray", "kernels.leray"),
    ("lfsim._kernels", None, "stage_combine", "kernels.combine"),
    ("lfsim._kernels", None, "etdrk4_final", "kernels.combine"),
    ("lfsim.experiments", None, "budget_series", "diagnostics.post"),
    ("lfsim.experiments", None, "integrated_identity_residual", "diagnostics.post"),
    ("lfsim.experiments", None, "check_decay_bound", "diagnostics.post"),
    ("lfsim.experiments", None, "fit_growth", "diagnostics.post"),
    ("lfsim.experiments", None, "write_diagnostics_csv", "experiments.write"),
    ("lfsim.experiments", None, "write_report_csv", "experiments.write"),
    ("lfsim.experiments", None, "write_snapshot", "experiments.write"),
    ("lfsim.experiments", None, "write_dispersion_csv", "experiments.write"),
    ("lfsim.experiments", None, "write_phase_diagram_csv", "experiments.write"),
] + [("numpy.fft", None, fn, "fft.forward")
     for fn in ("fft", "rfft", "fftn", "rfftn", "fft2", "rfft2")] + [
    ("numpy.fft", None, fn, "fft.inverse")
    for fn in ("ifft", "irfft", "ifftn", "irfftn", "ifft2", "irfft2")]

# modules `lf run` imports on its way to the first step
CLI_MODULES = ("lfsim.cli", "lfsim.config", "lfsim.experiments", "lfsim.integrate")


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _transform_flops(fn: str, in_shape, out_shape, axes) -> float:
    """5 L log2 L per complex transform of length L; 2.5 L log2 L per real
    one.  Real transforms run along the last listed axis."""
    real = fn.startswith(("rfft", "irfft"))
    real_shape = in_shape if fn.startswith("rfft") else out_shape
    cplx_shape = out_shape if fn.startswith("rfft") else in_shape
    flops = 0.0
    for i, ax in enumerate(axes):
        if real and i == len(axes) - 1:
            length, size, per = real_shape[ax], math.prod(real_shape), 2.5
        else:
            length, size, per = cplx_shape[ax], math.prod(cplx_shape), 5.0
        if length > 1:
            flops += per * length * math.log2(length) * (size / length)
    return flops


def _axes(fn: str, ndim: int, args, kwargs) -> tuple[int, ...]:
    if fn.endswith("n") or fn.endswith("2"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        if axes is None:
            axes = (-2, -1) if fn.endswith("2") else range(ndim)
        return tuple(a % ndim for a in axes)
    return ((kwargs.get("axis", args[2] if len(args) > 2 else -1)) % ndim,)


class Tracer:
    """In-memory spans: [name id, start, end, index of the enclosing span]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack = [-1]
        self.fft_shapes = collections.Counter()
        self.bytes_written = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append([self._id(name), start, end, self.stack[-1]])

    def wrap(self, fn, name: str, after=None):
        sid = self._id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [sid, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, cls, attr, name in WRAPS:
            owner = _owner(module, cls)
            fn = getattr(owner, attr)
            after = None
            if module == "numpy.fft":
                after = self._count_fft(attr)
            elif name == "experiments.write":
                after = self._count_write
            setattr(owner, attr, self.wrap(fn, name, after))

    def _count_fft(self, fn: str):
        shapes = self.fft_shapes

        def after(args, kwargs, result):
            a = args[0]
            shapes[(fn, a.shape, a.nbytes, result.shape, result.nbytes,
                    _axes(fn, a.ndim, args, kwargs))] += 1
        return after

    def _count_write(self, args, kwargs, result):
        self.bytes_written += os.path.getsize(args[0])

    def fft_totals(self) -> dict:
        flops = nbytes = 0.0
        for (fn, in_shape, in_bytes, out_shape, out_bytes, axes), count in \
                self.fft_shapes.items():
            flops += count * _transform_flops(fn, in_shape, out_shape, axes)
            nbytes += count * (in_bytes + out_bytes)
        return {"fft_flops_computed": flops, "fft_bytes_computed": nbytes}

    def save(self, path: str) -> None:
        import numpy as np
        spans = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez(path, names=np.array(self.names), spans=spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("lf_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    lf_args = args.lf_args[1:] if args.lf_args[:1] == ["--"] else args.lf_args
    marks: dict = {}

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    for module in CLI_MODULES:
        importlib.import_module(module)
    t1 = time.perf_counter()
    import lfsim.cli
    from lfsim.integrate import Stepper

    if args.trace:
        tracer = Tracer()
        tracer.add("cli.import", t0, t1)
        tracer.install()
        code = tracer.wrap(lfsim.cli.main, "cli.main")(lf_args)
        marks.update(tracer.fft_totals(), bytes_written=tracer.bytes_written)
        tracer.save(args.trace)
    else:
        originals = {w: getattr(_owner(*w[:2]), w[2]) for w in WRAPS}
        step = Stepper.step

        def first_step(self, *a, **kw):
            marks["first_step"] = time.monotonic()
            Stepper.step = step
            return step(self, *a, **kw)

        Stepper.step = first_step
        code = lfsim.cli.main(lf_args)
        changed = [f"{w[0]}.{w[1] + '.' if w[1] else ''}{w[2]}" for w in WRAPS
                   if getattr(_owner(*w[:2]), w[2]) is not originals[w]]
        marks["wrapped_attributes_changed"] = changed
        if changed:
            print(f"launch: attributes no longer the originals: {changed}",
                  file=sys.stderr)
            code = 70
    marks["exit_code"] = code
    with open(args.marks, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
