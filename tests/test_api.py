"""The public API: every exported name resolves, and removed names stay gone."""

import importlib

import pytest

import bifilter

# the submodules that declare __all__
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
    ("similarity", "PackedTargets"),
])
def test_removed_submodule_names_are_gone(module, name):
    assert not hasattr(bifilter, name)
    assert not hasattr(importlib.import_module(f"bifilter.{module}"), name)
    assert name not in bifilter.__all__


@pytest.mark.parametrize("module, name", [("similarity", "PackedStrings")])
def test_internal_names_are_not_exported(module, name):
    # reachable as a module attribute, but in no __all__
    submodule = importlib.import_module(f"bifilter.{module}")
    assert hasattr(submodule, name)
    assert name not in submodule.__all__
    assert not hasattr(bifilter, name)
