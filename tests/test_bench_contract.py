"""What the benchmark under ``bench/`` needs of the package: every function
its tracer wraps, by name, and ``Dataset.records`` rows with an ``.id``
(``bench/group_op.py``). A rename breaks the benchmark, so it fails here."""

import importlib
import importlib.util
from pathlib import Path

from casemix.cohort import CohortConfig, generate_cohort

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_functions_and_records_view_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{home}.{name}"
        for home, names in tracer.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert missing == []
    ds = generate_cohort(CohortConfig(n=3, seed=1))
    assert [rec.id for rec in ds.records] == ds.ids.tolist()
