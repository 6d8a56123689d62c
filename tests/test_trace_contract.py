"""What perfbench/trace_cli.py expects of the program.

The tracer wraps functions by name and binds their arguments by name, so a
renamed function or parameter would break only the traced benchmark run.
These checks catch such a break wherever the tests run.
"""

import importlib
import importlib.util
import inspect
import os

from dmlex import pipeline
from dmlex.phrases import count_phrase_pairs, extract_phrase_pairs
from dmlex.significance import PruneConfig, contingency_counts, prune

TRACE_CLI = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "trace_cli.py")


def _trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(name):
    """The function behind a "layer.function" counter name."""
    layer, _, function = name.partition(".")
    return getattr(importlib.import_module(f"dmlex.{layer}"), function)


def _string_constants(code):
    for const in code.co_consts:
        if isinstance(const, str):
            yield const
        elif inspect.iscode(const):
            yield from _string_constants(const)


def test_every_traced_function_and_stage_method_exists():
    trace_cli = _trace_cli()
    for layer, functions in trace_cli.TRACED.items():
        module = importlib.import_module(f"dmlex.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for method in trace_cli.STAGE_METHODS:
        assert callable(getattr(pipeline.PipelineRunner, method, None)), method


def test_every_argument_a_counter_binds_is_a_parameter():
    """A counter reads its call's arguments by name: b["src"] and the like. Count
    names all contain a dot, so the other string constants are argument names."""
    bound = set()
    for name, counter in _trace_cli().COUNTERS.items():
        parameters = inspect.signature(_function(name)).parameters
        for arg in _string_constants(counter.__code__):
            if "." not in arg:
                assert arg in parameters, f"{name} binds {arg!r}"
                bound.add(arg)
    # the names bound today, so that a change in how constants are stored shows
    assert bound >= {"src", "tgt", "pairs", "iterations", "use_null", "candidates", "path"}


def test_prune_and_contingency_counters_read_real_results():
    counters = _trace_cli().COUNTERS
    pairs = [(["f0"], ["e0"])] * 4 + [(["f9"], ["e9"])] + [(["f1"], ["e1"])] * 3
    instances = [inst for f, e in pairs for inst in extract_phrase_pairs(f, e, {(0, 0)})]
    phrase_counts = count_phrase_pairs(instances, len(pairs))
    counts = contingency_counts(phrase_counts, pairs)
    result = prune(phrase_counts, counts, PruneConfig())
    assert counters["significance.prune"]({}, result) == {"significance.kept": 2}
    assert counters["significance.contingency_counts"]({}, counts) == {
        "significance.entries": 3, "significance.distinct_tables": 3}
