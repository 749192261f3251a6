import os
from pathlib import Path

import pytest

from smoothwords import Alphabet, Word


def fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's
    package, plus ``extra``."""
    src = Path(__file__).resolve().parents[1] / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])), **extra)


@pytest.fixture(scope="session")
def ab12():
    return Alphabet(1, 2)


@pytest.fixture(scope="session")
def ab13():
    return Alphabet(1, 3)


def W(text: str) -> Word:
    return Word(text)
