"""lfsim benchmark: time `lf run` on one workload, check its outputs and,
with --trace 1, split the run across the package's modules.

    python3 perfbench/run.py --workload polar2d_turbulence --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout; `lfsim` is imported from its `src/`.  Each
`lf run` is a fresh process, started one at a time (closed loop) through
perfbench/launch.py.  The first process of a run is a warm-up that is
checked but not timed; for the two contractive workloads it runs the
reference seed and its final `l2_norm_sq` must match the value recorded at
the seed commit.  Timed processes then run the workload with `--seed` until
`--seconds` is spent.  With --trace 1, untraced and traced processes
alternate, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` count `lf run` processes, and `metrics` holds medians over the
timed processes that passed every check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_runs")

LF_KNOBS = ("LF_THREADS", "LF_NO_MALLOC_TUNING", "LF_DISABLE_NUMBA")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# One BLAS thread in the child: numpy's einsum hands the mode products to a
# threaded BLAS, whose helper threads would tie every run to the load on the
# other cores of a shared host.
CHILD_SET = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "BLIS_NUM_THREADS": "1"}

# timed rounds per run, whatever --seconds says: untraced, traced
MIN_ROUNDS = {0: 3, 1: 1}
MAX_PROCESSES = 200
PROCESS_TIMEOUT_S = 150.0
DIV_RESIDUAL_MAX = 1e-12
# A 1-ulp jitter on every transform output leaves the final L2 norm
# bit-identical; scaling the cubic coefficient by 1 + 1e-6 moves it by
# 3.9e-10 relative on rest3d_decay, scaling M by 1 + 1e-6 by 4.7e-7 on
# polar2d_linear (see README.md).
REFERENCE_RTOL = 1e-10
REFERENCE_SEED = 12345

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "fft.calls": "count", "fft.inverse_s": "s", "fft.forward_s": "s",
    "fft.bytes_computed": "B", "fft.flops_computed": "flop",
    "kernels.products_s": "s", "kernels.assemble_s": "s",
    "kernels.leray_s": "s", "kernels.combine_s": "s", "kernels.calls": "count",
    "integrate.steps": "count", "integrate.step_ms": "ms",
    "integrate.rhs_self_s": "s", "integrate.between_steps_s": "s",
    "integrate.fine_physical_s": "s", "integrate.stepper_init_s": "s",
    "config.load_s": "s", "model.build_s": "s", "stability.calls": "count",
    "stability.s": "s", "cli.import_s": "s", "experiments.self_s": "s",
    "diagnostics.post_s": "s", "experiments.write_s": "s",
    "experiments.bytes_written": "B", "unattributed_s": "s",
    "trace.overhead_frac": "frac",
}
COUNTS = ("fft.calls", "kernels.calls", "integrate.steps", "stability.calls")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    steps: int
    t_end: float
    rows: int                        # data rows in diagnostics.csv
    reference_l2: float | None       # final l2_norm_sq at REFERENCE_SEED
    energy_rtol: float | None = None  # invariant gate for the chaotic run
    snapshots: tuple[str, ...] = ()

    @property
    def config(self) -> str:
        return os.path.join(HERE, "workloads", self.name + ".cfg")


# reference_l2 values were recorded at the seed commit
WORKLOADS = {w.name: w for w in (
    Workload("polar2d_turbulence", "free_run", steps=400, t_end=2.0, rows=41,
             reference_l2=None, energy_rtol=1e-5,
             snapshots=("snap_00000.000000.lfsnap",
                        "snap_00002.000000.lfsnap")),
    Workload("rest3d_decay", "nonlinear_decay", steps=12, t_end=0.012, rows=5,
             reference_l2=2435.9033051518882),
    Workload("polar2d_linear", "ordered_contractivity", steps=1000, t_end=0.5,
             rows=1001, reference_l2=0.0018761992307955247),
)}


@dataclass
class Proc:
    """One `lf run` process and what the benchmark observed of it."""
    tag: str
    seed: int
    traced: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    rss_mb: float = math.nan
    exit_code: int | None = None
    final_l2: str | None = None
    marks: dict = field(default_factory=dict)
    trace_path: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------

def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (open(os.path.join(index, f)).read().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_per_core": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "env": {k: os.environ.get(k) for k in LF_KNOBS + THREAD_VARS},
        "lf_knobs_in_children": "unset",
        "set_in_children": CHILD_SET,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in LF_KNOBS}
    env.update(CHILD_SET)
    return env


# --------------------------------------------------------------------------
# One process
# --------------------------------------------------------------------------

def run_process(wl: Workload, seed: int, tag: str, traced: bool) -> Proc:
    proc = Proc(tag, seed, traced)
    out = os.path.join(WORK, wl.name, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    marks_path = os.path.join(out, "marks.json")
    cmd = [sys.executable, os.path.join(HERE, "launch.py"), "--marks", marks_path]
    if traced:
        proc.trace_path = os.path.join(out, "spans.npz")
        cmd += ["--trace", proc.trace_path]
    cmd += ["--", "run", wl.config, "--out", out,
            "--override", f"solver.seed={seed}"]
    stdout_path = os.path.join(out, "stdout.txt")
    with open(stdout_path, "w") as so, \
            open(os.path.join(out, "stderr.txt"), "w") as se:
        t0 = time.monotonic()
        child = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                 stdin=subprocess.DEVNULL, stdout=so, stderr=se)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own peak RSS (RUSAGE_CHILDREN would
            # give the maximum over every child so far)
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
    child.returncode = proc.exit_code = os.waitstatus_to_exitcode(status)
    proc.wall_s = t1 - t0
    proc.rss_mb = usage.ru_maxrss / 1024.0

    if proc.exit_code != 0:
        proc.problems.append(f"exit code {proc.exit_code}")
    try:
        with open(marks_path) as fh:
            proc.marks = json.load(fh)
    except (OSError, ValueError):
        proc.problems.append("launcher wrote no marks")
    if traced:
        if not os.path.isfile(proc.trace_path):
            proc.problems.append("launcher wrote no spans")
    elif "first_step" in proc.marks:
        proc.setup_s = proc.marks["first_step"] - t0
    else:
        proc.problems.append("no time step was taken")
    with open(stdout_path) as fh:
        stdout = fh.read()
    problems, proc.final_l2 = check_outputs(wl, os.path.join(out, wl.experiment),
                                            stdout)
    proc.problems += problems
    return proc


# --------------------------------------------------------------------------
# Output gate
# --------------------------------------------------------------------------

def check_outputs(wl: Workload, out: str, stdout: str
                  ) -> tuple[list[str], str | None]:
    """Problems found in one run's outputs, and its final l2_norm_sq as
    written (compared as text between processes of one seed)."""
    problems = []
    lines = stdout.splitlines()
    checks = [line for line in lines if line.startswith("CHECK ")]
    if not checks:
        problems.append("no CHECK lines printed")
    problems += [f"failed: {line}" for line in checks
                 if not line.endswith("-> PASS")]
    if f"RESULT {wl.experiment}: PASS" not in lines:
        problems.append("no passing RESULT line")
    missing = [name for name in ("diagnostics.csv", "report.csv") + wl.snapshots
               if not os.path.isfile(os.path.join(out, name))]
    if missing:
        return problems + [f"missing outputs: {missing}"], None

    with open(os.path.join(out, "report.csv")) as fh:
        report = list(csv.DictReader(fh))
    if not report or any(row["passed"] != "true" for row in report):
        problems.append("report.csv has no rows or a failed check")

    with open(os.path.join(out, "diagnostics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != wl.rows:
        return problems + [f"diagnostics.csv has {len(rows)} rows, "
                           f"expected {wl.rows}"], None
    col = {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}
    if not all(np.all(np.isfinite(v)) for v in col.values()):
        problems.append("non-finite value in diagnostics.csv")
    if abs(col["t"][-1] - wl.t_end) > 1e-9 * wl.t_end:
        problems.append(f"last sample at t={col['t'][-1]}, expected {wl.t_end}")
    div = float(np.max(col["div_residual"]))
    if not div <= DIV_RESIDUAL_MAX:
        problems.append(f"div_residual {div:.3g} > {DIV_RESIDUAL_MAX:g}")
    final_l2 = rows[-1]["l2_norm_sq"]
    if wl.energy_rtol is not None:
        kinetic = 0.5 * col["l2_norm_sq"]
        worst = float(np.max(col["energy_residual"] / np.maximum(1.0, kinetic)))
        if not worst <= wl.energy_rtol:
            problems.append(f"energy residual {worst:.3g} > {wl.energy_rtol:g}")
    for name in wl.snapshots:
        problems += check_snapshot(os.path.join(out, name))
    return problems, final_l2


def check_snapshot(path: str) -> list[str]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", "replace").split()
        payload = fh.read()
    meta = dict(tok.split("=", 1) for tok in header[2:] if "=" in tok)
    try:
        floats = int(meta["dim"]) * int(meta["n"]) ** int(meta["dim"])
    except (KeyError, ValueError):
        return [f"{os.path.basename(path)}: bad header {header}"]
    if header[:2] != ["LFSNAP", "v1"] or len(payload) != 8 * floats:
        return [f"{os.path.basename(path)}: bad header or size"]
    if not np.all(np.isfinite(np.frombuffer(payload, "<f8"))):
        return [f"{os.path.basename(path)}: non-finite samples"]
    return []


def reference_problem(wl: Workload, final_l2: str | None) -> list[str]:
    if final_l2 is None:
        return []
    rel = abs(float(final_l2) - wl.reference_l2) / wl.reference_l2
    if rel <= REFERENCE_RTOL:
        return []
    return [f"final l2_norm_sq {final_l2} is {rel:.3g} from the reference "
            f"{wl.reference_l2!r} (tolerance {REFERENCE_RTOL:g})"]


# --------------------------------------------------------------------------
# Per-layer split from the spans of one traced process
# --------------------------------------------------------------------------

def layer_split(proc: Proc) -> tuple[dict[str, float], dict[str, tuple]]:
    with np.load(proc.trace_path) as data:
        names = [str(n) for n in data["names"]]
        spans = data["spans"]
    ids = spans[:, 0].astype(int)
    parent = spans[:, 3].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    nested = parent >= 0
    children = np.zeros(len(spans))
    np.add.at(children, parent[nested], dur[nested])
    self_t = dur - children

    def mask(name):
        return ids == names.index(name) if name in names else np.zeros(len(ids), bool)

    def count(*names_):
        return int(sum(np.count_nonzero(mask(n)) for n in names_))

    def incl(name):
        return float(dur[mask(name)].sum())

    def own(name):
        return float(self_t[mask(name)].sum())

    run_ids = np.flatnonzero(mask("integrate.run"))
    under_run = nested & np.isin(parent, run_ids)
    steps = count("integrate.step")
    metrics = {
        "fft.calls": count("fft.forward", "fft.inverse"),
        "fft.inverse_s": own("fft.inverse"),
        "fft.forward_s": own("fft.forward"),
        "fft.bytes_computed": proc.marks["fft_bytes_computed"],
        "fft.flops_computed": proc.marks["fft_flops_computed"],
        "kernels.products_s": own("kernels.products"),
        "kernels.assemble_s": own("kernels.assemble"),
        "kernels.leray_s": own("kernels.leray"),
        "kernels.combine_s": own("kernels.combine"),
        "kernels.calls": count("kernels.products", "kernels.assemble",
                               "kernels.leray", "kernels.combine"),
        "integrate.steps": steps,
        "integrate.step_ms": 1e3 * incl("integrate.step") / max(steps, 1),
        "integrate.rhs_self_s": own("integrate.rhs"),
        "integrate.between_steps_s": incl("integrate.run") - float(dur[
            under_run & (mask("integrate.step") | mask("integrate.stepper_init"))
        ].sum()),
        "integrate.fine_physical_s": incl("integrate.fine_physical"),
        "integrate.stepper_init_s": incl("integrate.stepper_init"),
        "config.load_s": incl("config.load"),
        "model.build_s": incl("model.build"),
        "stability.calls": count("stability"),
        "stability.s": incl("stability"),
        "cli.import_s": incl("cli.import"),
        "experiments.self_s": own("experiments.run_experiment"),
        "diagnostics.post_s": own("diagnostics.post"),
        "experiments.write_s": own("experiments.write"),
        "experiments.bytes_written": proc.marks["bytes_written"],
        "unattributed_s": proc.wall_s - float(self_t.sum()),
    }
    split = {name: (count(name), own(name)) for name in names}
    return metrics, split


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(ROOT, "src", "lfsim", "cli.py")):
        print(f"error: no lfsim sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of an lfsim checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    env = environment()
    print("ENV " + json.dumps(env), flush=True)
    deadline = time.monotonic() + args.seconds

    # warm-up: checked, not timed; the reference seed where one is recorded
    warm_seed = REFERENCE_SEED if wl.reference_l2 is not None else args.seed
    warm = run_process(wl, warm_seed, "warmup", traced=False)
    if wl.reference_l2 is not None:
        warm.problems += reference_problem(wl, warm.final_l2)
    procs = [warm]
    report(warm)

    round_kinds = (False, True) if args.trace else (False,)
    round_s = [warm.wall_s * len(round_kinds)]
    rounds = 0
    while len(procs) + len(round_kinds) <= MAX_PROCESSES:
        if rounds >= MIN_ROUNDS[args.trace] and \
                time.monotonic() + statistics.median(round_s) > deadline:
            break
        t0 = time.monotonic()
        for traced in round_kinds:
            proc = run_process(wl, args.seed, f"p{len(procs)}", traced)
            first = next((p for p in procs if p.seed == args.seed
                          and p.final_l2 is not None), None)
            if first is not None and proc.final_l2 is not None \
                    and proc.final_l2 != first.final_l2:
                proc.problems.append(
                    f"final l2_norm_sq {proc.final_l2} differs from "
                    f"{first.final_l2} of {first.tag} (same seed)")
            procs.append(proc)
            report(proc)
        round_s.append(time.monotonic() - t0)
        rounds += 1

    timed = procs[1:]
    plain = [p.wall_s for p in timed if p.ok and not p.traced]
    traced = [p for p in timed if p.ok and p.traced]
    if not plain or (args.trace and not traced):
        print("error: no timed process passed its checks", file=sys.stderr)
        return 1
    if args.trace:
        splits = [layer_split(p) for p in traced]
        metrics = {name: statistics.median(s[0][name] for s in splits)
                   for name in splits[0][0]}
        first = splits[0][0]
        for proc, (split, _) in zip(traced[1:], splits[1:]):
            proc.problems += [f"{name} = {split[name]}, {traced[0].tag} has "
                              f"{first[name]}" for name in COUNTS
                              if split[name] != first[name]]
        metrics["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(plain) - 1.0)
        units = PER_LAYER
        print_split(splits[0][1])
    else:
        good = [p for p in timed if p.ok]
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in good),
            "setup_s": statistics.median(p.setup_s for p in good),
            "steps_per_s": statistics.median(
                wl.steps / (p.wall_s - p.setup_s) for p in good),
            "peak_rss_mb": statistics.median(p.rss_mb for p in good),
        }
        units = END_TO_END

    failed = sum(not p.ok for p in procs)
    failed_frac = failed / len(procs)
    for name, unit in units.items():
        print(f"METRIC {name:28s} {metrics[name]:14.6g} {unit}")
    print(f"METRIC {'failed_frac':28s} {failed_frac:14.6g} frac "
          f"({failed} of {len(procs)} processes)")
    result = {
        "correct": failed == 0, "attempted": len(procs), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env,
                  failed_frac=failed_frac,
                  processes=[{k: v for k, v in vars(p).items()
                              if k != "marks"} for p in procs])
    with open(os.path.join(WORK, wl.name,
                           f"result-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def report(proc: Proc) -> None:
    status = "ok" if proc.ok else "FAILED: " + "; ".join(proc.problems)
    print(f"PROC {proc.tag:7s} seed={proc.seed} traced={int(proc.traced)} "
          f"wall_s={proc.wall_s:.4f} setup_s={proc.setup_s:.4f} "
          f"rss_mb={proc.rss_mb:.1f} {status}", flush=True)


def print_split(split: dict[str, tuple]) -> None:
    """Self time of every span name in one traced process, largest first."""
    total = sum(s for _, s in split.values())
    for name, (count, own) in sorted(split.items(), key=lambda kv: -kv[1][1]):
        print(f"SPLIT {name:28s} calls={count:8d} self_s={own:10.4f} "
              f"share={own / total:7.1%}")


if __name__ == "__main__":
    sys.exit(main())
