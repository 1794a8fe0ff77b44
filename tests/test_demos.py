"""The scripts under demos/ and the Python examples in README.md run to the
end against the library as it is."""

import re
import runpy
from pathlib import Path

import pytest

from bifilter.similarity import COMPARATORS

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
README = DEMO_DIR.parent / "README.md"


@pytest.mark.parametrize(
    "name", ["align_comparable_docs", "filter_noisy_corpus", "score_translations"]
)
def test_demo_runs_and_prints(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    registered = dict(COMPARATORS)
    try:
        for k, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {k}", "exec"), {})
    finally:
        COMPARATORS.clear()
        COMPARATORS.update(registered)
    # the filter example prints its one accepted pair
    assert capsys.readouterr().out.split()[:2] == ["0", "0"]
