import math

import pytest
from hypothesis import given, strategies as st

from logcy2.sampling import random_word
from logcy2.words import (
    MAX_POWER_LETTERS,
    E,
    Elementary,
    Linear,
    Word,
    WordSyntaxError,
    linear_from_literal,
    parse_word,
    word_to_text,
)


def test_parse_single_elementary():
    w = parse_word("E")
    assert w.letters == ((Elementary((0, 1)), 1),)


def test_free_reduction_cancels():
    assert parse_word("E * E^-1").is_empty()
    assert parse_word("A[1,1;0,1] * A[1,1;0,1]^-1").is_empty()


def test_grammar_roundtrip_with_powers():
    w = parse_word("A[1,0;1,1] * E[0,1]^2")
    assert len(w.letters) == 3
    assert word_to_text(w) == "A[1,0;1,1] * E^2"
    assert parse_word(word_to_text(w)) == w


def test_literal_convention():
    gen = linear_from_literal(1, 0, 1, 1)
    # action (x,y) -> (x^1 y^1, x^0 y^1): rays move by the transpose
    assert gen.mat == ((1, 1), (0, 1))


def test_parentheses_and_id():
    assert parse_word("id").is_empty()
    assert parse_word("(E * P)^-1") == (parse_word("E") * parse_word("P")).inverse()


def test_negative_exponents_and_powers():
    assert parse_word("E^-2") == parse_word("E^2").inverse()
    assert parse_word("E^0").is_empty()


def test_power_equals_explicit_product():
    w = parse_word("E * A[0,1;1,0] * E^-1")
    explicit = Word()
    for _ in range(7):
        explicit = explicit * w
    assert w**7 == explicit
    assert w**-7 == explicit.inverse()
    assert parse_word("E^8000").letters == ((Elementary((0, 1)), 1),) * 8000


def test_literal_product_is_reduced_once(monkeypatch):
    # A long product reduces its letters in one pass, not once per "*".
    text = "*".join(["E", "E[1,0]"] * 1000)
    reduced = []
    init = Word.__init__

    def spy(self, letters=()):
        reduced.append(len(letters))
        init(self, letters)

    with monkeypatch.context() as mp:
        mp.setattr(Word, "__init__", spy)
        w = parse_word(text)
    assert sum(reduced) <= 3 * 2000
    assert w == parse_word("(E*E[1,0])^1000")
    assert parse_word("E * E[1,0] * (E[1,0]^-1 * E^-1) * A[0,1;1,0]") == parse_word("A[0,1;1,0]")


def test_power_past_letter_limit_is_a_syntax_error():
    assert len(parse_word(f"E^{MAX_POWER_LETTERS}")) == MAX_POWER_LETTERS
    with pytest.raises(WordSyntaxError):
        parse_word(f"(E*A[0,1;1,0])^{MAX_POWER_LETTERS // 2 + 1}")
    assert parse_word("id^99999999999999999999") == Word() == (E * E.inverse()) ** 10**20


def test_syntax_error_reports_position():
    with pytest.raises(WordSyntaxError):
        parse_word("E * * E")
    with pytest.raises(WordSyntaxError):
        parse_word("Q")
    with pytest.raises(WordSyntaxError):
        parse_word("E[1,2")


def test_nonunimodular_literal_rejected():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("A[1,2;3,4]")
    assert str(err.value) == "matrix ((1, 2), (3, 4)) has determinant -2 (at position 0)"  # as written


def test_syntax_error_quotes_a_prefix_of_a_long_token():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("x" * 100000)
    assert str(err.value) == "unexpected token '" + "x" * 40 + "'... (at position 0)"
    with pytest.raises(WordSyntaxError) as err:
        parse_word("E * *")
    assert str(err.value) == "unexpected token '*' (at position 4)"


def test_literal_errors_cut_long_integers():
    # An integer of a bad literal is quoted as a long token is: its first 40 characters and "...".
    nines = "9" * 4000
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"E[{nines},3]")
    assert str(err.value) == f"vector ({'9' * 40}..., 3) is not primitive (at position 0)"
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"A[1,0;0,-{nines}]")
    assert str(err.value) == f"matrix ((1, 0), (0, -{'9' * 39}...)) has determinant -{'9' * 39}... (at position 0)"
    with pytest.raises(WordSyntaxError) as err:
        parse_word(f"E[{3 * 10**39},3]")  # 40 digits: quoted in full
    assert str(err.value) == f"vector ({3 * 10**39}, 3) is not primitive (at position 0)"


def test_imprimitive_elementary_rejected():
    with pytest.raises(WordSyntaxError):
        parse_word("E[2,4]")


def test_macros_parse():
    assert len(parse_word("P").letters) == 2
    for name in ("r1", "r2", "r3"):
        assert not parse_word(name).is_empty()


def test_word_multiplication_reduces_at_seam():
    w1 = parse_word("A[0,1;1,0] * E")
    w2 = parse_word("E^-1 * A[0,1;1,0]")
    assert len((w1 * w2).letters) == 2


def test_inverse_is_involution(srng):
    for _ in range(20):
        w = random_word(srng, 4)
        assert w.inverse().inverse() == w
        assert (w * w.inverse()).is_empty()


primitive_vectors = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda v: math.gcd(*v) == 1)
unimodular_literals = st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda m: abs(m[0] * m[3] - m[1] * m[2]) == 1)
generators = st.one_of(
    st.just(Elementary((0, 1))),
    primitive_vectors.map(Elementary),
    unimodular_literals.map(lambda m: linear_from_literal(*m)),
)
# Runs of one letter, so that word_to_text writes powers; an empty list is id.
words = st.lists(st.tuples(generators, st.sampled_from([1, -1]), st.integers(1, 4)), max_size=6).map(
    lambda runs: Word(tuple((gen, e) for gen, e, k in runs for _ in range(k)))
)


@given(words)
def test_text_roundtrip_property(w):
    text = word_to_text(w)
    assert parse_word(text) == w
    assert (text == "id") == w.is_empty()


@given(words, st.integers(-3, 3))
def test_power_text_roundtrip_property(w, k):
    assert parse_word(f"({word_to_text(w)})^{k}") == w**k
    assert parse_word(word_to_text(w**k)) == w**k


def test_syntax_error_points_at_the_token_after_whitespace():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("E^ x")
    assert err.value.position == 3
    assert "'x'" in str(err.value)


BIG = "9" * 5000
TOKENS = ["E", "A", "P", "r1", "r2", "r3", "id", "x", "_", "-", "[", "]", ",", ";", "*", "^", "(", ")",
          "1", "-1", "0", "2", "١٢", BIG, " ", "\t", "\n", " ",
          "E[1,0]", "E [ 2 , 1 ]", "A[0,1;1,0]", "A[1,\t1; 0,1]", "E[2,4]", "A[1,2;3,4]",
          "E[1,", "A[1,1;0]", "E[" + BIG + ",1]", "A[1,0;0," + BIG + "]"]


@given(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))
def test_rejections_point_at_a_token(text):
    try:
        parse_word(text)
    except WordSyntaxError as err:
        assert err.position == -1 or not text[err.position].isspace()


def test_nesting_costs_one_frame_per_level():
    assert parse_word("(" * 400 + "E" + ")" * 400) == E
