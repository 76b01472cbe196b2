"""The benchmark's tracer wraps statdisc callables by name: each one listed
in ``perfbench/tracing.py`` must exist, or ``perfbench --trace 1`` fails."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    """The (module, name) pairs of ``TRACED``, read without importing the
    benchmark package."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACING}")


def _resolves(module: str, name: str) -> bool:
    home = importlib.import_module(f"statdisc.{module}")
    if (module, name) == ("cli", "render"):
        # the tracer wraps the renderers that main looks up by format
        return bool(home.RENDERERS) and all(map(callable,
                                                home.RENDERERS.values()))
    return callable(getattr(home, name, None))


def test_every_traced_name_resolves_in_statdisc():
    traced = _traced()
    assert {("multiport", "prepare_input"), ("multiport", "evolve"),
            ("multiport", "spatial_distribution")} <= set(traced)
    assert [pair for pair in traced if not _resolves(*pair)] == []
