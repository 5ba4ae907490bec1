"""Checks that run under every test."""
import pytest

from knotsurgery.cone import ConeProblem
from cone_elimination import check_path_structure


@pytest.fixture(autouse=True)
def cones_are_unions_of_paths(monkeypatch):
    """Every cone a test ranks has the path structure that ``ConeProblem.dimension`` relies on."""
    sweep = ConeProblem.dimension

    def checked(self):
        check_path_structure(self)
        return sweep(self)

    monkeypatch.setattr(ConeProblem, "dimension", checked)
