"""The benchmark's traced run wraps engine functions by name; they must exist."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_wrap_points_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import measure

    assert measure.layers is layers
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in layers.WRAP_POINTS
        if not hasattr(module, attr)
    ]
    assert missing == []
