import importlib
import inspect
import pkgutil

import pytest

import clutterlab
from clutterlab import ehrhart, errors, lattice, tdi
from clutterlab.combinat import Clutter
from clutterlab.errors import DEFAULT_STEP_BUDGET, Undecided, UsageError, step_budget


def test_nested_scopes_restore_the_enclosing_limit(monkeypatch):
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    assert step_budget() == DEFAULT_STEP_BUDGET
    with errors.budget(7):
        assert step_budget() == 7
        with errors.budget(0):
            assert step_budget() == 0
        assert step_budget() == 7
    assert step_budget() == DEFAULT_STEP_BUDGET


def test_scope_is_restored_after_an_exception(monkeypatch):
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    with errors.budget(7):
        with pytest.raises(Undecided), errors.budget(1):
            lattice.hilbert_basis(lattice.ConeWithLattice.from_vectors([(1, 0), (2, 5)]))
        assert step_budget() == 7
    assert step_budget() == DEFAULT_STEP_BUDGET


def test_scope_beats_the_environment_variable(monkeypatch):
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "9")
    assert step_budget() == 9
    with errors.budget(3):
        assert step_budget() == 3
    assert step_budget() == 9


def test_malformed_environment_variable_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("CLUTTERLAB_BUDGET", "not-a-number")
    with pytest.raises(UsageError, match="CLUTTERLAB_BUDGET"):
        step_budget()
    with errors.budget(5):  # a scope is read first, so the variable is not parsed
        assert step_budget() == 5


def test_scope_sets_the_step_counts_that_ci_pins(monkeypatch):
    # the boundaries that CI pins through CLUTTERLAB_BUDGET and --budget
    monkeypatch.delenv("CLUTTERLAB_BUDGET", raising=False)
    cone = lattice.ConeWithLattice.from_vectors([(1, 0), (2, 5)])
    p4 = Clutter(4, [(0, 1), (1, 2), (2, 3)])
    bull = Clutter(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])
    with errors.budget(11), pytest.raises(Undecided):
        lattice.hilbert_basis(cone)
    with errors.budget(12):
        assert lattice.hilbert_basis(cone) == ((1, 0), (1, 1), (1, 2), (2, 5))
    with errors.budget(3):
        assert tdi.is_mfmc(p4).verdict == "undecided"
    with errors.budget(4):
        assert tdi.is_mfmc(p4).verdict is True
    with errors.budget(5), pytest.raises(Undecided):
        ehrhart.is_ehrhart_clutter(bull)
    with errors.budget(6):
        assert ehrhart.is_ehrhart_clutter(bull) == (True, ())


def test_module_caches_are_the_five_with_a_policy():
    # every module-level cache, by its defining module, and the one-line
    # policy comment right above its decorators
    found = {}
    for info in pkgutil.iter_modules(clutterlab.__path__):
        mod = importlib.import_module(f"clutterlab.{info.name}")
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and callable(
                getattr(obj, "cache_clear", None)
            ) and inspect.unwrap(obj).__module__ == mod.__name__:
                found[f"{info.name}.{name}"] = (mod, obj)
    assert set(found) == {
        "combinat.adjacency_masks", "combinat.maximal_cliques", "ehrhart.analyze",
        "tdi._hb_verdict", "ideals._symbolic_basis",
    }
    for key, (mod, obj) in found.items():
        lines = inspect.getsource(mod).splitlines()
        _, first = inspect.getsourcelines(inspect.unwrap(obj))
        assert lines[first - 1].startswith("@"), key
        assert lines[first - 2].startswith("# Cache: "), key
