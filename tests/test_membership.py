"""Letters outside the alphabet: the exact error text of every operator that
rejects one, and the silent answer of those that only report a failure."""

import pytest

from smoothwords import (Alphabet, Word, complement, delta_inv, is_differentiable,
                         kolakoski_prefix, lift, lift_family, smooth_chain)
from smoothwords.calculus import REASON_BAD_LETTER, ChainFailure
from smoothwords.concat import _scan
from smoothwords.search import seeded_state

AB = Alphabet(1, 2)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: delta_inv(Word("12"), 3, AB),
                 ValueError("starting letter 3 is not in alphabet 1,2"), id="delta_inv"),
    pytest.param(lambda: complement(Word("1213"), AB),
                 ValueError("letter 3 at position 3 is not in alphabet 1,2"), id="complement"),
    pytest.param(lambda: AB.complement_of(3),
                 ValueError("letter 3 is not in alphabet 1,2"), id="complement_of"),
    pytest.param(lambda: is_differentiable(Word("1132"), AB),
                 ValueError("letter 3 at position 2 is not in alphabet 1,2"),
                 id="is_differentiable"),
    # A bad alpha is reported before a bad letter.
    pytest.param(lambda: lift(Word("13"), 3, 1, AB),
                 ValueError("starting letter 3 is not in alphabet 1,2"), id="lift-alpha"),
    pytest.param(lambda: lift(Word("1213"), 1, 1, AB),
                 ValueError("letter 3 at position 3 is not in alphabet 1,2"), id="lift-letter"),
    pytest.param(lambda: lift_family(Word("1133"), 2, 2, 2, Alphabet(1, 3)),
                 ValueError("starting letter 2 is not in alphabet 1,3"), id="lift_family"),
    pytest.param(lambda: kolakoski_prefix(AB, 3, 5),
                 ValueError("first letter 3 is not in alphabet 1,2"), id="kolakoski_prefix"),
    pytest.param(lambda: seeded_state(AB, (1, 3)), None, id="seeded_state"),
    pytest.param(lambda: smooth_chain(Word("13"), AB)[1:],
                 ("not-smooth", ChainFailure(level=0, reason=REASON_BAD_LETTER)),
                 id="chain_levels"),
    pytest.param(lambda: _scan(AB, 3, [Word("3"), Word("13")], None),
                 ({Word("3"): 0, Word("13"): 0}, [], set()), id="_scan"),
])
def test_letters_outside_the_alphabet(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        assert call() == expected
