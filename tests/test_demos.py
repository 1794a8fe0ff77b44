"""The scripts under demos/ run to the end against the library as it is."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name", ["align_comparable_docs", "filter_noisy_corpus", "score_translations"]
)
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
