"""casemix benchmark: retrain and apply runs, timed end to end and per layer.

    python3 bench/run.py --workload all-5k --seed 1 --seconds 10 --trace 0

Run from the repository root. Each operation is a fresh child process,
started one at a time; operations repeat until their summed wall time
reaches ``--seconds`` (at least one). Outputs are checked by ``checks.py``
outside the timed region. With ``--trace 1`` the same run is followed by one
traced operation, and the per-layer metrics of ``layers.py`` are reported
instead of the end-to-end ones. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see README.md):
  all-5k     `casemix all --svg` on the pinned README config (n=5000)
  all-20k    the same config at n=20000
  group-20k  apply a model trained in setup to a 20k cohort drawn from --seed
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import layers

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent.relative_to(ROOT)
WORK = Path(".bench_work")
RULESET = ROOT / "src" / "casemix" / "data" / "reference_ruleset.json"

#: The README's example config.
PINNED = {
    "cohort": {"n": 5000, "seed": 42},
    "missingness": {"rate": 0.2, "seed": 7},
    "pipeline": {"k": 13, "seeds": {"clustering": 0, "split": 1, "oversample": 2}},
}
#: The stage failure `tree._scan_numeric` causes when a split threshold
#: rounds onto the lower value; it fails every all-20k operation today.
KNOWN_FAULT = (4, "stage 'factor-trees': class counts must not be all zero")
#: A hung operation is killed (and counted as failed) so that a run ends within 180 s.
OP_TIMEOUT_S = 120.0
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Op:
    out: Path
    wall_s: float
    rss_mb: float
    code: int
    stderr: str


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, str]:
    """Run one child in the repository root, its output going to ``log``;
    returns (exit code, wall s, peak RSS MB, stderr). Wall time spans spawn
    to exit, so interpreter start and imports are included."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log.with_suffix(".out"), "wb") as so, open(log.with_suffix(".err"), "wb") as se:
        start_s = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if status is None:  # interrupted: do not leave the child running
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start_s
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    print(f"run.py: {log.name}: exit {proc.returncode}, {wall:.3f} s wall, "
          f"{usage.ru_utime + usage.ru_stime:.3f} s cpu, {rss_mb:.2f} MB", file=sys.stderr)
    return proc.returncode, wall, rss_mb, stderr


def casemix(*args: str) -> list[str]:
    return [sys.executable, "-m", "casemix.cli", *args]


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    (ROOT / path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def setup_step(argv: list[str], log: Path) -> None:
    code, _, _, stderr = spawn(argv, log)
    if code != 0:
        raise SystemExit(f"setup step {' '.join(argv[1:])} exited {code}: {stderr.strip()}")


class AllWorkload:
    """`casemix all --svg` on the pinned config at ``n`` records: the
    analyst's yearly retraining run, every layer included."""

    def __init__(self, n: int, claim: bool):
        self.rows = n
        self.claim = claim

    def setup(self, run: Path, seed: int) -> float:
        # The inputs are pinned, not drawn from the seed: at n=20000 every
        # operation hits KNOWN_FAULT, and other cohort seeds would both move
        # the run time by +-15% and make the fault depend on the seed.
        # Set-up writes the config and imports casemix once in a child, so
        # timed operations do not pay first-run bytecode compilation.
        times = []
        for i in range(SETUP_REPEATS):
            start_s = time.perf_counter()
            write_json(run / "config.json", dict(PINNED, cohort={"n": self.rows, "seed": 42}))
            setup_step([sys.executable, "-c", "import casemix.cli"], run / "log" / f"setup{i}")
            times.append(time.perf_counter() - start_s)
        self.config = run / "config.json"
        return statistics.median(times)

    def argv(self, out: Path) -> tuple[str, list[str]]:
        return "cli", ["all", "--config", str(self.config), "--out", str(out), "--svg"]

    def check(self, out: Path, ruleset: dict) -> None:
        checks.check_all_run(ROOT / out, ROOT, ruleset, claim=self.claim)

    def model(self, out: Path) -> Path:
        return ROOT / out / "result" / "model.json"


class GroupWorkload:
    """Apply a model trained in set-up to a new 20k cohort: HRG grouping,
    preprocessing, tree routing, rules and the HRG comparison."""

    rows = 20000

    def setup(self, run: Path, seed: int) -> float:
        start_s = time.perf_counter()
        write_json(run / "train.json", PINNED)
        train = run / "train"
        setup_step(casemix("generate", "--config", str(run / "train.json"),
                           "--out", str(train / "cohort.csv")), run / "log" / "generate-train")
        setup_step(casemix("train", "--cohort", str(train / "cohort.csv"),
                           "--config", str(run / "train.json"), "--out", str(train / "result")),
                   run / "log" / "train")
        write_json(run / "apply.json", {
            "cohort": {"n": self.rows, "seed": 1000 + seed},
            "missingness": {"rate": 0.2, "seed": 2000 + seed},
        })
        setup_step(casemix("generate", "--config", str(run / "apply.json"),
                           "--out", str(run / "apply" / "cohort.csv")), run / "log" / "generate-apply")
        elapsed = time.perf_counter() - start_s
        self.result = train / "result"
        self.cohort = run / "apply" / "cohort.csv"
        checks.check_train_result(ROOT / train, ROOT)
        return elapsed

    def argv(self, out: Path) -> tuple[str, list[str]]:
        return "group", ["--cohort", str(self.cohort), "--result", str(self.result), "--out", str(out)]

    def check(self, out: Path, ruleset: dict) -> None:
        checks.check_group_run(ROOT / out, ROOT / self.cohort, ROOT / self.result, ruleset)

    def model(self, out: Path) -> Path:
        return ROOT / self.result / "model.json"


WORKLOADS = {
    "all-5k": lambda: AllWorkload(5000, claim=True),
    "all-20k": lambda: AllWorkload(20000, claim=False),
    "group-20k": GroupWorkload,
}


#: The untraced program behind each target of ``tracer.py``.
UNTRACED = {"cli": ["-m", "casemix.cli"], "group": [str(BENCH / "group_op.py")]}


def run_op(workload, run: Path, i: int, traced: bool) -> Op:
    out = run / f"op{i}"
    target, args = workload.argv(out)
    if traced:
        program = [str(BENCH / "tracer.py"), "--spans", str(run / "spans.json"), target]
    else:
        program = UNTRACED[target]
    code, wall, rss, stderr = spawn([sys.executable, *program, *args],
                                    run / "log" / f"op{i}{'-traced' if traced else ''}")
    return Op(out, wall, rss, code, stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn()'s cleanup so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.chdir(ROOT)
    if not (ROOT / "src" / "casemix" / "__init__.py").is_file():
        print(f"run.py: no casemix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(ROOT / run, ignore_errors=True)
    workload = WORKLOADS[args.workload]()
    try:
        return measure(workload, run, args)
    finally:
        shutil.rmtree(ROOT / run, ignore_errors=True)


def measure(workload, run: Path, args) -> int:
    setup_s = workload.setup(run, args.seed)
    print(f"run.py: set-up {setup_s:.3f} s", file=sys.stderr)
    ops: list[Op] = []
    while not ops or sum(op.wall_s for op in ops) < args.seconds:
        ops.append(run_op(workload, run, len(ops), traced=False))
    timed = list(ops)
    if args.trace:
        ops.append(run_op(workload, run, len(ops), traced=True))

    checks_start = time.perf_counter()
    ruleset = json.loads(RULESET.read_text(encoding="utf-8"))
    correct = True
    hashes = []
    for i, op in enumerate(ops):
        if op.code != 0:
            if not (op.code == KNOWN_FAULT[0] and KNOWN_FAULT[1] in op.stderr):
                correct = False
                print(f"run.py: operation {i} exited {op.code}: {op.stderr.strip()[-2000:]}",
                      file=sys.stderr)
            continue
        try:
            if not hashes:  # later operations must match this one byte for byte
                workload.check(op.out, ruleset)
            hashes.append(checks.artifact_hashes(ROOT / op.out))
        except Exception:
            correct = False
            print(f"run.py: operation {i} failed its output checks:", file=sys.stderr)
            traceback.print_exc()
    try:
        checks.check_same_artifacts(hashes)
    except checks.CheckFailed as e:
        correct = False
        print(f"run.py: {e}", file=sys.stderr)

    print(f"run.py: checks {time.perf_counter() - checks_start:.3f} s", file=sys.stderr)
    wall = statistics.median(op.wall_s for op in timed)
    if args.trace:
        traced = ops[-1]
        if not (ROOT / run / "spans.json").is_file():
            print(f"run.py: the traced operation wrote no spans: {traced.stderr.strip()}",
                  file=sys.stderr)
            return 1
        metrics = layers.layer_metrics(ROOT / run / "spans.json", ROOT / traced.out,
                                       workload.model(traced.out))
        metrics["trace.overhead_s"] = traced.wall_s - wall
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        keep = ROOT / WORK / "traces" / f"{args.workload}-s{args.seed}.json"
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / run / "spans.json", keep)
    else:
        metrics = {
            "wall_s": wall,
            "records_per_s": workload.rows / wall,
            "peak_rss_mb": statistics.median(op.rss_mb for op in timed),
            "setup_s": setup_s,
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.code != 0 for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
