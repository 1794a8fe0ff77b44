"""The public API: every exported name resolves, and removed names stay gone."""

import importlib
import re
from pathlib import Path

import pytest

import bifilter

ROOT = Path(__file__).resolve().parent.parent

# the submodules that declare __all__, in the package's order
SUBMODULES = [
    "bisentence_filter", "corpus_io", "mt_metrics", "seq_align", "similarity",
    "textnorm",
]


@pytest.mark.parametrize("name", ["bifilter", *(f"bifilter.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_each_module_all_once():
    want = ["__version__", "BifilterError", "ConfigError", "DataError"]
    for m in SUBMODULES:
        want += importlib.import_module(f"bifilter.{m}").__all__
    assert bifilter.__all__ == want
    assert len(set(want)) == len(want)


def test_every_public_name_is_used_outside_tests():
    """Each name in a module's __all__ is mentioned in src/, demos/ or
    README.md somewhere other than its own definition and __all__ lists:
    no public name exists only for the tests."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").rglob("*.py"),
             ROOT / "README.md"]
    texts = {f: re.sub(r"__all__ = \[.*?\]", "", f.read_text(encoding="utf-8"),
                       flags=re.S)
             for f in files}
    unused = []
    for m in SUBMODULES:
        module = importlib.import_module(f"bifilter.{m}")
        for name in module.__all__:
            definition = re.compile(
                rf"^(?:(?:def|class) {name}\b|{name}\b\s*[:=])", re.M)
            mention = re.compile(rf"\b{name}\b")
            if not any(mention.search(definition.sub("", text, count=1)
                                      if f == Path(module.__file__).resolve() else text)
                       for f, text in texts.items()):
                unused.append(f"{m}.{name}")
    assert unused == []


def test_star_import():
    namespace = {}
    exec("from bifilter import *", namespace)
    assert set(bifilter.__all__) <= set(namespace)


@pytest.mark.parametrize("name", ["TokenSeq", "Stemmer"])
def test_removed_names_are_gone(name):
    assert not hasattr(bifilter, name)
    assert not hasattr(importlib.import_module("bifilter.textnorm"), name)
    assert name not in bifilter.__all__


@pytest.mark.parametrize("module, name", [
    ("mt_metrics", "BleuParams"), ("seq_align", "CountingScorer"),
    ("bisentence_filter", "resolve_conflict"), ("similarity", "RowLcs"),
    ("similarity", "PackedTargets"), ("corpus_io", "Corpus"),
    ("corpus_io", "save_corpus"), ("corpus_io", "write_filter_report"),
])
def test_removed_submodule_names_are_gone(module, name):
    assert not hasattr(bifilter, name)
    assert not hasattr(importlib.import_module(f"bifilter.{module}"), name)
    assert name not in bifilter.__all__


@pytest.mark.parametrize("module, name", [("similarity", "PackedStrings"),
                                          ("similarity", "chain_bound")])
def test_internal_names_are_not_exported(module, name):
    # reachable as a module attribute, but in no __all__
    submodule = importlib.import_module(f"bifilter.{module}")
    assert hasattr(submodule, name)
    assert name not in submodule.__all__
    assert not hasattr(bifilter, name)
