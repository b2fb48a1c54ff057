"""The names the benchmark's span tracer binds must exist in compdet.

perfbench/spans.py wraps compdet functions by (module, attribute) and reads
compdet.BACKEND into every run record.  A rename in the package must fail
here rather than break the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import compdet
import compdet._backend
import compdet.laurent
import compdet.pmatrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tracer_bindings_resolve():
    spans = load_spans()
    for layer, module_name, attr in spans.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), layer
    for layer, method in spans.METHODS:
        assert callable(getattr(compdet.LaurentPoly, method, None)), layer


def test_backend_name_and_single_kernel_object():
    assert compdet.BACKEND == "pure"
    kernel = compdet._backend.muladd_terms
    assert compdet.laurent.muladd_terms is kernel
    assert compdet.pmatrix.muladd_terms is kernel
