"""bench/traced_pipeline.py wraps augrank names at run time and stops a
traced benchmark run with exit 4 when one is missing. These checks catch
such a rename in the test suite instead."""

import importlib.util
import inspect
from pathlib import Path

from augrank.rerank import rerank_topk

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "traced_pipeline.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("traced_pipeline", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_required_wrapped_name_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, required in load_tracer().WRAPS
        if required and not hasattr(module, attr)
    ]
    assert missing == []


def test_rerank_topk_arguments_sit_where_the_tracer_reads_them():
    # _QUERY_ARG reads `query` at position 2; _after_rerank_rerank_topk reads
    # `endpoint` at 4 and `k` at 5.
    params = list(inspect.signature(rerank_topk).parameters)
    assert (params[2], params[4], params[5]) == ("query", "endpoint", "k")
