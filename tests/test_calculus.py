import json
import pickle
from itertools import product

import pytest

from smoothwords import (Alphabet, ChainFailure, EPSILON, Word, REASON_BAD_LETTER,
                         REASON_INTERIOR_RUN, REASON_RUN_TOO_LONG, delta,
                         derivative, is_differentiable, is_smooth, mirror,
                         closure, rho, rho_by_formula, smooth_chain)
from smoothwords.errors import NotClosableError, NotDifferentiableError


def _length_failure(w: Word, ab: Alphabet) -> str | None:
    """The reason the run lengths of ``w`` are not of the differentiable form,
    or None: a run longer than b is run-too-long, else an interior run outside
    {a, b} is interior-run-not-in-alphabet."""
    lengths = delta(w)
    if any(n > ab.b for n in lengths):
        return REASON_RUN_TOO_LONG
    if any(n not in ab for n in lengths[1:-1]):
        return REASON_INTERIOR_RUN
    return None


def _reference_chain(w: Word, ab: Alphabet) -> tuple[str, ChainFailure | None]:
    """(verdict, failure) from :func:`_length_failure` on each level that
    literal ``rho`` produces."""
    if any(c not in ab for c in w):
        return "not-smooth", ChainFailure(level=0, reason=REASON_BAD_LETTER)
    level = 0
    while w:
        reason = _length_failure(w, ab)
        if reason is not None:
            return "not-smooth", ChainFailure(level=level, reason=reason)
        w = rho(w, ab)
        level += 1
    return "smooth", None


@pytest.mark.parametrize("a, b", [(1, 2), (1, 3), (2, 5)])
def test_failure_reasons_match_the_length_rule_exhaustively(a, b):
    # Every word up to length 9 over {a, b, b+1}, so letters outside the
    # alphabet are covered too.
    ab = Alphabet(a, b)
    for n in range(10):
        for tup in product((a, b, b + 1), repeat=n):
            w = Word(tup)
            chain = smooth_chain(w, ab)
            assert (chain.verdict, chain.failure) == _reference_chain(w, ab), (ab, w)
            if b + 1 in tup:
                with pytest.raises(ValueError):
                    is_differentiable(w, ab)
            else:
                assert is_differentiable(w, ab) == (_length_failure(w, ab) is None), (ab, w)


class TestDifferentiable:
    def test_examples(self, ab12, ab13):
        assert not is_differentiable(Word("21112"), ab12)
        assert is_differentiable(Word("122"), ab12)
        assert is_differentiable(Word("333111333131333111333"), ab13)
        assert is_differentiable(EPSILON, ab12)

    def test_letter_outside_alphabet(self, ab13):
        with pytest.raises(ValueError):
            is_differentiable(Word("12"), ab13)

    def test_boundary_runs_free_up_to_b(self, ab13):
        # interior run must be 1 or 3, boundaries may be 2
        assert is_differentiable(Word("11311"), ab13)
        assert not is_differentiable(Word("1133111"), ab13)


class TestDerivative:
    def test_examples(self, ab12, ab13):
        assert derivative(Word("121"), ab12) == Word("1")
        assert derivative(Word("1"), ab12) == EPSILON
        assert derivative(Word("1"), Alphabet(2, 3)) == EPSILON
        assert derivative(Word("333111333131333111333"), ab13) == Word("333111333")

    def test_not_differentiable_error(self, ab12):
        with pytest.raises(NotDifferentiableError) as err:
            derivative(Word("21112"), ab12)
        assert err.value.run_index == 1

    def test_single_full_run_kept(self, ab13):
        assert derivative(Word("333"), ab13) == Word("3")


class TestRho:
    def test_examples(self, ab12, ab13):
        assert rho(Word("3311133313133311133"), ab13) == Word("333111333")
        assert rho(Word("2"), ab12) == EPSILON
        assert rho(Word("22122"), ab12) == Word("212")

    def test_formula_examples(self, ab12, ab13):
        assert rho_by_formula(Word("22"), ab13) == Word("3")
        assert rho_by_formula(Word("121"), ab12) == Word("1")
        # both boundary runs strictly between a and b get the b-frame;
        # closure("11311") = "1113111" whose run lengths are 3,1,3
        assert rho_by_formula(Word("11311"), ab13) == Word("313")
        assert rho(Word("11311"), ab13) == Word("313")

    def test_formula_agrees_exhaustively(self):
        for ab in (Alphabet(1, 2), Alphabet(1, 3), Alphabet(2, 4)):
            for n in range(11):
                for tup in product(ab.letters, repeat=n):
                    w = Word(tup)
                    if not is_differentiable(w, ab):
                        continue
                    assert rho(w, ab) == rho_by_formula(w, ab), w

    def test_strict_decrease(self):
        ab = Alphabet(1, 2)
        for n in range(1, 12):
            for tup in product(ab.letters, repeat=n):
                w = Word(tup)
                if is_differentiable(w, ab):
                    assert len(rho(w, ab)) < len(w)


class TestSmoothChain:
    def test_two_step_chain(self, ab12):
        ch = smooth_chain(Word("22"), ab12)
        assert ch.is_smooth
        assert ch.levels == (Word("22"), Word("2"), EPSILON)

    def test_run_too_long(self, ab12):
        ch = smooth_chain(Word("111"), ab12)
        assert not ch.is_smooth
        assert ch.failure.level == 0
        assert ch.failure.reason == REASON_RUN_TOO_LONG

    def test_interior_run_reason(self, ab13):
        # interior run of length 2 is inside the bound but not a letter
        ch = smooth_chain(Word("113311"), ab13)
        assert not ch.is_smooth
        assert ch.failure.reason == REASON_INTERIOR_RUN
        # closure(113133) = 11131333, whose derivative 3113 has the interior run 11
        ch = smooth_chain(Word("113133"), ab13)
        assert ch.levels == (Word("113133"), Word("3113"))
        assert ch.failure == ChainFailure(level=1, reason=REASON_INTERIOR_RUN)

    def test_run_too_long_takes_precedence(self, ab12):
        # the interior run of 21112 is both too long and not a letter;
        # the stronger reason (no closure exists) wins
        ch = smooth_chain(Word("21112"), ab12)
        assert not ch.is_smooth
        assert ch.failure.reason == REASON_RUN_TOO_LONG

    def test_letter_outside_alphabet(self, ab12):
        ch = smooth_chain(Word((5,)), ab12)
        assert not ch.is_smooth
        assert ch.failure == type(ch.failure)(level=0, reason=REASON_BAD_LETTER)

    def test_smooth_biquadrate(self, ab13):
        ch = smooth_chain(Word("3111313111") * 4, ab13)
        assert ch.is_smooth

    def test_epsilon_is_smooth(self, ab12):
        ch = smooth_chain(EPSILON, ab12)
        assert ch.is_smooth and ch.levels == (EPSILON,)

    def test_levels_follow_rho(self, ab13):
        ch = smooth_chain(Word("3311133313133311133"), ab13)
        assert ch.is_smooth
        for prev, nxt in zip(ch.levels, ch.levels[1:]):
            assert rho(prev, ab13) == nxt
            assert len(nxt) < len(prev)
        assert ch.levels[-1] == EPSILON
        assert len(ch.levels) - 1 <= len(ch.levels[0])

    def test_json_report(self, ab12):
        doc = smooth_chain(Word("22"), ab12).to_json()
        assert doc == {"levels": ["22", "2", ""], "verdict": "smooth"}
        doc = smooth_chain(Word("111"), ab12).to_json()
        assert doc["verdict"] == "not-smooth"
        assert doc["failure"] == {"level": 0, "reason": REASON_RUN_TOO_LONG}
        json.dumps(doc)  # serializable as-is

    def test_smoothness_closed_under_symmetries(self, ab13):
        from smoothwords import complement
        for n in range(10):
            for tup in product(ab13.letters, repeat=n):
                w = Word(tup)
                s = is_smooth(w, ab13)
                assert is_smooth(mirror(w), ab13) == s
                assert is_smooth(complement(w, ab13), ab13) == s

    def test_factors_of_smooth_are_smooth(self, ab12):
        w = Word("1221121221221121122")
        assert is_smooth(w, ab12)
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                assert is_smooth(w[i:j], ab12)

    def test_delta_smooth_implies_smooth(self, ab12):
        for n in range(11):
            for tup in product(ab12.letters, repeat=n):
                w = Word(tup)
                if is_smooth(delta(w), ab12):
                    assert is_smooth(w, ab12)


class TestFailureMessages:
    """closure and derivative raise with the failing word in the message;
    the text, ``run_index`` and both survive pickling."""

    @pytest.mark.parametrize("call, cls, run_index, text", [
        (lambda: closure(Word("1112"), Alphabet(1, 2)), NotClosableError, 0,
         "run 0 of '1112' has length 3 > b=2"),
        (lambda: derivative(Word("1221"), Alphabet(1, 3)), NotDifferentiableError, 1,
         "'1221' is not differentiable over 1,3: run 1 has length 2"),
        (lambda: closure(Word("2222"), Alphabet(1, 3)), NotClosableError, 0,
         "run 0 of '2222' has length 4 > b=3"),
        (lambda: derivative(Word("2222"), Alphabet(1, 3)), NotDifferentiableError, 0,
         "'2222' is not differentiable over 1,3: run 0 has length 4"),
    ], ids=["run-too-long", "interior-run", "single-run-closure", "single-run-derivative"])
    def test_message_text_and_pickling(self, call, cls, run_index, text):
        with pytest.raises(cls) as err:
            call()
        exc = err.value
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(exc, protocol=protocol))
            assert type(back) is cls
            assert (str(back), back.run_index, back.args) == (text, run_index, (text,))
        assert (str(exc), exc.run_index, exc.args) == (text, run_index, (text,))
        assert repr(exc) == f"{cls.__name__}({text!r})"
