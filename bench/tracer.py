"""Traced child process: wraps casemix's public layer functions in spans.

Run as ``python3 bench/tracer.py --spans FILE cli ARGS...`` to trace
``casemix.cli.main(ARGS)``, or ``... group ARGS...`` to trace the apply
operation in ``group_op.py``. Each listed function is replaced, at every
``casemix`` module attribute that holds it, by a wrapper that records a span
(id, name, start, end, parent). Spans stay in memory and are written to FILE
as JSON when the traced call returns or raises. A listed name that no longer
exists is an error: the layer it measured would otherwise read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: Functions timed as layer boundaries, by home module. Every one must exist.
WRAPPED = {
    "casemix.cohort": ("generate_cohort", "inject_missingness"),
    "casemix.dataio": ("read_cohort_csv", "cohort_csv_text", "dataset_sha256"),
    "casemix.hrg": ("classify_dataset",),
    "casemix.preprocess": ("preprocess",),
    "casemix.cluster": ("cluster_factor", "kmeans", "rank_clusters"),
    "casemix.tree": (
        "build_tree", "best_split", "predict", "extract_rules",
        "classify_with_rules", "serialize_tree", "deserialize_tree",
    ),
    "casemix.pipeline": ("run_pipeline", "train_factor_trees", "dataset_to_table"),
    "casemix.evaluate": ("compare_groupings", "confusion", "boxplot_stats", "merge_diagnostic"),
    "casemix.svgplot": ("variance_bars_svg", "boxplots_svg", "rank_spread_svg"),
    "casemix.cli": ("main", "cmd_all", "cmd_generate", "cmd_hrg", "cmd_train", "cmd_evaluate"),
}


class Recorder:
    """In-memory span list; the stack of open spans gives each its parent."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start_ns, end_ns, parent_id]
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, 0, 0, self._open[-1] if self._open else None]
            self.spans.append(span)
            self._open.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._open.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed function at each module attribute bound to it."""
        importlib.import_module("casemix.cli")  # imports every layer module
        modules = [m for n, m in sys.modules.items() if n == "casemix" or n.startswith("casemix.")]
        for home, names in WRAPPED.items():
            module = importlib.import_module(home)
            for attr in names:
                fn = getattr(module, attr, None)
                if not callable(fn):
                    raise SystemExit(f"tracer: {home}.{attr} no longer exists; update bench/tracer.py")
                wrapper = self.wrap(f"{home.removeprefix('casemix.')}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] not in ("cli", "group"):
        print("usage: tracer.py --spans FILE {cli|group} ARGS...", file=sys.stderr)
        return 2
    spans_path, target, rest = argv[1], argv[2], argv[3:]
    recorder = Recorder()
    recorder.install()
    if target == "cli":
        entry = sys.modules["casemix.cli"].main
    else:
        import group_op

        entry = group_op.main
    try:
        return entry(rest)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
