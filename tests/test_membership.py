"""Letters outside the alphabet: the exact error text of every operator that
rejects one, and the silent answer of those that only report a failure.
Lengths, exponents and bounds below their range: the exact error text."""

import pytest

from smoothwords import (Alphabet, Word, certify_concat, complement, delta_inv,
                         enumerate_smooth, gamma, is_differentiable, kolakoski_prefix, lift,
                         lift_family, power_decomposition, smooth_chain)
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
                 (0, [], set()), id="_scan"),
])
def test_letters_outside_the_alphabet(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == str(expected)
    else:
        assert call() == expected


@pytest.mark.parametrize("call, text", [
    pytest.param(lambda: enumerate_smooth(AB, -1), "length must be >= 0", id="enumerate_smooth"),
    pytest.param(lambda: gamma(AB, 0, 4), "exponent must be >= 1", id="gamma"),
    pytest.param(lambda: certify_concat(AB, 0), "length bound must be >= 1",
                 id="certify_concat"),
    pytest.param(lambda: power_decomposition(Word("12"), 1, AB), "exponent must be >= 2",
                 id="power_decomposition"),
    pytest.param(lambda: lift(Word("12"), 1, -1, AB), "lift depth must be >= 0", id="lift"),
    pytest.param(lambda: lift_family(Word("2244"), 3, 2, 0, Alphabet(2, 4)),
                 "family size must be >= 1", id="lift_family"),
    pytest.param(lambda: kolakoski_prefix(AB, 1, -1), "length must be >= 0",
                 id="kolakoski_prefix"),
])
def test_arguments_below_their_range(call, text):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text
