"""The benchmark tracer's wrapped names exist in cloverlie.

``perfbench/tracer.py`` wraps functions by their dotted names.  A rename in
``src/`` that leaves one of them behind fails here, not in a traced
benchmark run.
"""

import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # compiled from the source text, so no bytecode is written beside it
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    modules = tracer.cloverlie_modules()
    targets = tracer.SPAN_TARGETS + tracer.HOT_TARGETS
    missing = []
    for mod_name, path, _name in targets:
        owner = modules[mod_name]
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
    assert len(list(tracer.resolve_targets(modules))) == len(targets)
