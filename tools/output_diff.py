"""Compare the outputs of `lf run` under two source trees.

    python3 tools/output_diff.py BASE_SRC HEAD_SRC WORK_DIR [CONFIG ...]

Runs each config (by default the shipped `configs/*.cfg`) at seed 12345
with `lfsim` taken from BASE_SRC, then from HEAD_SRC, into WORK_DIR/base
and WORK_DIR/head.  The long configs run to the shortened t_end of
`SHORT_T_END`.  Prints a Markdown report: each run's exit codes, whether
its stdout and its stderr are the same (the output directory read as
`OUT`), each output file's byte-equality, the largest relative difference
of each `diagnostics.csv` column, and of each snapshot's samples.  It is a
report: it exits 0 whatever it finds.
"""

import csv
import glob
import math
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 12345
SHORT_T_END = {"ordered_instability": "40", "disordered_instability": "20",
               "dispersion": "1", "free_run": "2", "nonlinear_decay": "1",
               "ordered_contractivity": "0.5"}


def run(src: str, config: str, out: str) -> tuple[int, str, str]:
    """`lf run` of `config` into `out`, with `lfsim` from `src`: the exit
    code, stdout and stderr, with `out` replaced by `OUT` in both."""
    name = os.path.splitext(os.path.basename(config))[0]
    argv = [sys.executable, "-m", "lfsim.cli", "run", config, "--out", out,
            "--override", f"solver.seed={SEED}"]
    if name in SHORT_T_END:
        argv += ["--override", f"solver.t_end={SHORT_T_END[name]}"]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    return (proc.returncode, proc.stdout.replace(out, "OUT"),
            proc.stderr.replace(out, "OUT"))


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(|a|, |b|) over the entries; 0 where both agree
    (nan included), inf where only one is nan."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if np.all(same):
        return 0.0
    scale = np.maximum(np.abs(a), np.abs(b))[~same]
    return float(np.max(np.abs(a - b)[~same] / scale))


def csv_columns(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: np.array([float(r[i]) for r in rows[1:]])
            for i, name in enumerate(rows[0])}


def snapshot(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        fh.readline()
        return np.frombuffer(fh.read(), dtype="<f8")


def difference(a: str, b: str) -> str:
    """How the output files a and b differ, where they are not the same
    bytes: per column of a diagnostics CSV, or over a snapshot's samples."""
    if a.endswith("diagnostics.csv"):
        ca, cb = csv_columns(a), csv_columns(b)
        if list(ca) != list(cb) or any(len(ca[c]) != len(cb[c]) for c in ca):
            return ": columns or rows differ"
        return ": max relative difference " + ", ".join(
            f"{c} {rel_diff(ca[c], cb[c]):.2g}" for c in ca)
    if a.endswith(".lfsnap"):
        sa, sb = snapshot(a), snapshot(b)
        if sa.shape == sb.shape:
            rel = np.max(np.abs(sa - sb)) / np.max(np.abs(sa))
            return f": max |difference| / max |sample| {rel:.2g}"
    return ""


def compare(base: str, head: str) -> list[str]:
    """One line per output file of either run directory."""
    lines = []
    names = sorted({os.path.relpath(p, d) for d in (base, head)
                    for p in glob.glob(os.path.join(d, "**", "*"),
                                       recursive=True) if os.path.isfile(p)})
    for name in names:
        a, b = os.path.join(base, name), os.path.join(head, name)
        if not (os.path.exists(a) and os.path.exists(b)):
            side = "base" if os.path.exists(a) else "head"
            lines.append(f"- `{name}`: only in the {side} run")
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            same = fa.read() == fb.read()
        lines.append(f"- `{name}`: " + ("byte-identical" if same else
                                        "differs" + difference(a, b)))
    return lines


def main(argv: list[str]) -> int:
    base_src, head_src, work = argv[:3]
    configs = argv[3:] or sorted(glob.glob(os.path.join(ROOT, "configs",
                                                        "*.cfg")))
    report = [f"### Outputs against the base (seed {SEED})", ""]
    for config in configs:
        name = os.path.splitext(os.path.basename(config))[0]
        base, head = (os.path.join(work, side, name)
                      for side in ("base", "head"))
        runs = run(base_src, config, base), run(head_src, config, head)
        t_end = SHORT_T_END.get(name, "as shipped")
        report.append(f"**{name}** (t_end {t_end}): exit {runs[0][0]} on the "
                      f"base, {runs[1][0]} on the head")
        for i, stream in ((1, "stdout"), (2, "stderr")):
            same = runs[0][i] == runs[1][i]
            report.append(f"- {stream}: " + ("identical" if same else "differs"))
        report += compare(base, head) + [""]
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
