import hashlib
import random
import re
import sys
from collections.abc import Mapping
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permroot.errors import (
    CycleNotationError,
    DomainError,
    InvalidPermutationError,
    PermrootError,
)
from permroot.permutation import (
    CycleType,
    EnrichedPermutation,
    Permutation,
    _digit_limit_error,
    parse,
    parse_cycle_type,
)


def random_permutations(max_n=10):
    """Strategy: a random permutation of a random subset of 1..2*max_n."""
    return (
        st.lists(st.integers(1, 2 * max_n), max_size=max_n, unique=True)
        .flatmap(
            lambda elems: st.permutations(elems).map(
                lambda images: Permutation.from_one_line(sorted(elems), images)
            )
        )
    )


class TestParseFormat:
    def test_enriched_example(self):
        e = parse("(1 2 4)_2 (3) (5 6)", r=3)
        assert isinstance(e, EnrichedPermutation)
        assert e.base.cycles == ((1, 2, 4), (3,), (5, 6))
        assert e.colors() == {0: 2}

    def test_empty(self):
        assert parse("") == Permutation()
        assert str(Permutation()) == ""
        assert parse("", r=3) == EnrichedPermutation(Permutation(), 3, ())

    def test_canonical_rotation(self):
        assert str(parse("(2 1)")) == "(1 2)"
        assert str(parse("(5 6) (3)")) == "(3) (5 6)"

    def test_identity_format(self):
        assert str(Permutation.identity([1, 2])) == "(1) (2)"

    def test_adjacent_cycles_without_space(self):
        assert parse("(1 2 3 4)(5 6 7 8)") == parse("(1 2 3 4) (5 6 7 8)")

    def test_repeated_element_same_cycle(self):
        with pytest.raises(InvalidPermutationError):
            parse("(1 2 1)")

    def test_element_in_two_cycles(self):
        with pytest.raises(InvalidPermutationError):
            parse("(1 2) (2 3)")

    def test_color_out_of_range(self):
        with pytest.raises(InvalidPermutationError):
            parse("(1 2 3)_3", r=3)
        with pytest.raises(InvalidPermutationError):
            parse("(1 2 3)_0", r=3)

    def test_color_on_regular_cycle(self):
        with pytest.raises(InvalidPermutationError):
            parse("(1 2)_1 (3 4 5)", r=3)

    def test_missing_color_on_singular_cycle(self):
        with pytest.raises(InvalidPermutationError):
            parse("(1 2 3)", r=3)

    def test_subscript_without_r(self):
        with pytest.raises(CycleNotationError):
            parse("(1 2)_1")

    def test_malformed(self):
        for bad in ("(1 2", "1 2)", "(1 2) x (3)", "()", "(0 1)", "(1,2)"):
            with pytest.raises((CycleNotationError, InvalidPermutationError)):
                parse(bad)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize("call", [
        lambda: parse(f"(1 {'9' * 5000})"),
        lambda: parse(f"(3 4) (1 2)_{'1' * 5000}", r=2),
        lambda: parse_cycle_type(f"{'7' * 5000}^2"),
    ], ids=["entry", "color", "cycle-type"])
    def test_digits_past_the_int_str_limit(self, call):
        # a typed error naming the limit; the process-wide setting is left alone
        limit = sys.get_int_max_str_digits()
        with pytest.raises(CycleNotationError, match=f"more than {limit} digits"):
            call()
        assert sys.get_int_max_str_digits() == limit

    def test_colors_follow_cycles_through_canonicalization(self):
        e = parse("(3 4 5)_1 (1 2 6)_2", r=3)
        assert str(e) == "(1 2 6)_2 (3 4 5)_1"

    @given(random_permutations())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, p):
        assert parse(str(p)) == p

    def test_normalization_idempotent(self):
        for messy in ("(6 5) (2 1 3)", "(9)(4 8)(2 7)", "(3 1 2)"):
            once = str(parse(messy))
            assert str(parse(once)) == once

    def test_json_roundtrip(self):
        e = parse("(1 2 4)_2 (3) (5 6)", r=3)
        data = e.to_json_dict()
        assert data == {"cycles": [[1, 2, 4], [3], [5, 6]], "colors": {"0": 2}, "r": 3}
        assert EnrichedPermutation.from_json_dict(data) == e
        p = parse("(1 3) (2)")
        assert Permutation.from_json_dict(p.to_json_dict()) == p


class TestPermutationOps:
    def test_power_square_root_example(self, P):
        assert P("(1 5 2 6 3 7 4 8)").power(2) == P("(1 2 3 4) (5 6 7 8)")

    def test_power_identity_cases(self, P):
        p = P("(1 2 3)")
        assert p.power(1) == p
        assert p.power(3) == Permutation.identity([1, 2, 3])
        assert p.power(0) == Permutation.identity([1, 2, 3])

    def test_power_rejects_negative(self, P):
        with pytest.raises(DomainError):
            P("(1 2)").power(-1)

    @given(random_permutations(), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_power_additivity(self, p, e1, e2):
        assert p.power(e1 + e2) == p.power(e1).compose(p.power(e2))

    def test_cycle_type(self, P):
        p = P("(1 2) (3 4) (5 9 7 8) (6 10 11 13) (12)")
        assert p.cycle_type() == CycleType([(1, 1), (2, 2), (4, 2)])
        assert Permutation().cycle_type() == CycleType()
        assert Permutation.identity(range(1, 5)).cycle_type() == CycleType([(1, 4)])

    def test_split_parts(self, P):
        p = P("(1 2) (3 4) (5 9 7 8) (6 10 11 13) (12)")
        regular, singular = p.split_parts(2)
        assert regular == P("(12)")
        assert singular == P("(1 2) (3 4) (5 9 7 8) (6 10 11 13)")
        ident = Permutation.identity(range(1, 4))
        assert ident.split_parts(2) == (ident, Permutation())
        assert P("(1 2 3)").split_parts(3) == (Permutation(), P("(1 2 3)"))

    @given(random_permutations(), st.integers(2, 5))
    @settings(max_examples=100, deadline=None)
    def test_split_parts_recombine(self, p, q):
        regular, singular = p.split_parts(q)
        assert set(regular.cycles) | set(singular.cycles) == set(p.cycles)
        assert regular.ground_set() | singular.ground_set() == p.ground_set()
        assert not regular.ground_set() & singular.ground_set()

    def test_apply_and_one_line(self, P):
        p = P("(1 3 2)")
        assert [p.apply(i) for i in (1, 2, 3)] == [3, 1, 2]
        assert p.one_line() == (3, 1, 2)
        with pytest.raises(DomainError):
            p.apply(9)

    def test_compose_requires_same_ground_set(self, P):
        with pytest.raises(DomainError):
            P("(1 2)").compose(P("(3 4)"))

    def test_relabel(self, P):
        assert P("(1 2) (3)").relabel({1: 3, 2: 6, 3: 5}) == P("(3 6) (5)")

    def test_from_mapping_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.from_mapping({1: 2, 2: 2})


def _colored_3_cycle(colors):
    return EnrichedPermutation(Permutation([[1, 2, 3]]), 3, colors)


_ENRICHED = EnrichedPermutation.from_json_dict
# malformed input to the JSON readers and the color sequence: (reader, input)
MALFORMED = {
    "color-key-not-an-index": (_ENRICHED, {"cycles": [[1, 2, 3]], "r": 3, "colors": {"a": 1}}),
    "no-r": (_ENRICHED, {"cycles": [[1, 2, 3]], "colors": {"a": 1}}),
    "list-for-dict": (_ENRICHED, [[1, 2, 3]]),
    "cycles-not-a-list": (Permutation.from_json_dict, {"cycles": 5}),
    "mapping-to-constructor": (_colored_3_cycle, {0.5: 1}),
    "index-mapping-to-constructor": (_colored_3_cycle, {2: 1}),  # its key is a valid color
    "int-color-key": (_ENRICHED, {"cycles": [[1, 2]], "r": 3, "colors": {0: 1}}),
    "color-index-out-of-range": (_ENRICHED, {"cycles": [[1, 2]], "r": 3, "colors": {"1": 1}}),
    "colors-not-a-mapping": (_ENRICHED, {"cycles": [[1, 2, 3]], "r": 3, "colors": [1]}),
    "cycle-not-a-list": (Permutation.from_json_dict, {"cycles": [[1, 2], 3]}),
}


class TestEnriched:
    def test_r2_isomorphism(self, P):
        p = P("(1 2) (3) (4 5 6 7)")
        e = EnrichedPermutation.from_plain(p)
        assert e.r == 2
        assert e.colors() == {0: 1, 2: 1}
        assert e.to_plain() == p

    def test_color_validation(self, P):
        with pytest.raises(InvalidPermutationError):
            EnrichedPermutation(P("(1 2)"), 2, (None,))
        with pytest.raises(InvalidPermutationError):
            EnrichedPermutation(P("(1 2 3)"), 2, (1,))

    @pytest.mark.parametrize(
        "colors", [[True], (True,), {"0": True}, MappingProxyType({"0": True})]
    )
    def test_bool_color_rejected(self, P, colors):
        # str() would print "(1 2)_True", which parse rejects; a mapping is
        # the JSON form, read by from_json_dict
        with pytest.raises(InvalidPermutationError, match=r"^color True out of range 1\.\.1$"):
            if isinstance(colors, Mapping):
                EnrichedPermutation.from_json_dict({"cycles": [[1, 2]], "r": 2, "colors": colors})
            else:
                EnrichedPermutation(P("(1 2)"), 2, colors)

    def test_bool_color_rejected_from_json(self):
        data = {"cycles": [[1, 2, 3]], "colors": {"0": True}, "r": 3}
        with pytest.raises(InvalidPermutationError, match=r"^color True out of range 1\.\.2$"):
            EnrichedPermutation.from_json_dict(data)
        data["colors"] = {"0": 1}
        assert str(EnrichedPermutation.from_json_dict(data)) == "(1 2 3)_1"

    def test_colors_by_index_mapping(self, P):
        data = {"cycles": [[5, 6], [3], [4, 1, 2]], "r": 3, "colors": {"0": 2}}
        e = EnrichedPermutation.from_json_dict(data)  # indices of the canonical cycles
        assert e == EnrichedPermutation(P("(1 2 4) (3) (5 6)"), 3, (2, None, None))
        assert e == parse("(1 2 4)_2 (3) (5 6)", r=3)

    def test_equality_reads_r_base_and_colors(self, P):
        e = EnrichedPermutation(P("(1 2 3 4 5 6)"), 3, (1,))
        same = parse("(1 2 3 4 5 6)_1", r=3)
        assert e == same and not e != same
        assert hash(e) == hash(same)
        for other in (
            EnrichedPermutation(P("(1 2 3 4 5 6)"), 2, (1,)),  # only r differs
            EnrichedPermutation(P("(1 3 2 4 5 6)"), 3, (1,)),  # only the base
            EnrichedPermutation(P("(1 2 3 4 5 6)"), 3, (2,)),  # only the colors
        ):
            assert e != other and not e == other

    @pytest.mark.parametrize("build, data", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_json_forms_raise_typed_errors(self, build, data):
        with pytest.raises(InvalidPermutationError):
            build(data)


class TestCycleType:
    def test_total_and_counts(self):
        t = CycleType([(2, 2), (4, 2), (1, 1)])
        assert t.total == 13
        assert t.count_of(4) == 2
        assert t.count_of(3) == 0
        assert t.expand() == (1, 2, 2, 4, 4)
        assert str(t) == "1^1 2^2 4^2"

    def test_parse(self):
        assert parse_cycle_type("1^2,4^2") == CycleType([(1, 2), (4, 2)])
        assert parse_cycle_type("2^2 4^2") == CycleType([(2, 2), (4, 2)])
        assert parse_cycle_type("4") == CycleType([(4, 1)])
        assert parse_cycle_type("") == CycleType()
        with pytest.raises(CycleNotationError):
            parse_cycle_type("2^2,2^1")
        with pytest.raises(CycleNotationError):
            parse_cycle_type("x^2")


def _cycle_text(rng, cyc, color=None):
    """One cycle at a random rotation with random inner whitespace."""
    k = rng.randrange(len(cyc))
    body = ""
    for i, e in enumerate(cyc[k:] + cyc[:k]):
        body += (rng.choice(("", " ", "  ", "\t")) if i == 0 else rng.choice((" ", "  ", "\t", "\n"))) + str(e)
    text = "(" + body + rng.choice(("", " ", "\t")) + ")"
    return text if color is None else f"{text}_{color}"


def _random_cycles(rng, n):
    """The cycles of a random permutation of n sparse positive integers, in random order."""
    elems = rng.sample(range(1, 3 * n + 1), n)
    cycles, start = [], 0
    while start < n:
        stop = min(n, start + rng.choice((1, 1, 2, 3, 4, 6, 12, n)))
        cycles.append(tuple(elems[start:stop]))
        start = stop
    rng.shuffle(cycles)
    return cycles


def _join(rng, parts):
    return rng.choice(("", " ", "\n")) + "".join(
        p + rng.choice(("", " ", "  ", "\t", " \n ")) for p in parts
    )


def _parse_corpus():
    """(text, r) pairs: valid plain and enriched notation with varied
    whitespace up to 10^4 elements, and every kind of malformed input."""
    rng = random.Random(20250917)
    corpus = [
        ("", None), ("", 3), ("(1)", None), ("(2 1)", None), ("(3 1 2)(5 4)", None),
        ("  (1 2)\t(3)  ", None), ("(1\n2) ( 3 )", None), ("(01 2) (007)", None),
        ("(1 2) (3)", None), ("(10 2 7)(1)(3 5 4 6 8 9)", None),
        ("(1 2 4)_2 (3) (5 6)", 3), ("(3 4 5)_1 (1 2 6)_2", 3), ("(4 3)_1(2 1)_1", 2),
    ]
    for n in (1, 2, 3, 5, 8, 13, 40, 300, 2000, 10**4):
        for r in (None, 2, 3, 4, 5):
            cycles = _random_cycles(rng, n)
            colors = [None if r is None or len(c) % r else rng.randint(1, r - 1) for c in cycles]
            corpus.append((_join(rng, [_cycle_text(rng, c, k) for c, k in zip(cycles, colors)]), r))
    big = _random_cycles(rng, 10**4)
    big_text = " ".join(_cycle_text(rng, c) for c in big)
    corpus += [
        # a zero entry
        ("(0)", None), ("(1 0 2)", None), ("(1 2) (0 3)", 2), ("(0 1)_1", 2),
        (big_text + " (0)", None), ("(3 0) (1 1)", None),
        # a repeated element
        ("(1 1)", None), ("(1 2 1)", None), ("(1 2) (2 3)", None), ("(2 3) (1 3 2)", None),
        ("(5 6) (1 2) (6 5)", 2), ("(1 2)_5 (1)", 2), ("(1 1)", 1),
        (big_text + f" ({big[0][0]})", None), (big_text + f" ({big[-1][-1]})", 3),
        # stray text between cycles
        ("(1 2) x (3)", None), ("(1 2),(3)", None), ("() (1)", None), ("(1 2) (a) (3)", None),
        ("x (0)", None), ("(0) x (1)", None), ("(1 2)_x (3)", 2), ("(1 2)__1", 2),
        ("(1 2) _1", 2), ("(-1 2)", None), ("(1 2) (2 3) z (4)", None),
        # trailing text
        ("(1 2) x", None), ("(1 2)_", 2), ("(1 2)_a", 2), ("(1 2", None), ("(1 2))", None),
        ("1 2)", None), ("(1,2)", None), ("()", None), ("(1 2) (0", None), (big_text + " !", None),
        # a subscript without r
        ("(1 2)_1", None), ("(1 2) (3 4 5)_2", None), ("(1 1)_1", None),
        # a missing color
        ("(1 2)", 2), ("(1 2 3)", 3), ("(1) (2 3 4 5)", 4), (big_text, 2),
        # an extra color
        ("(1 2)_1 (3 4 5)", 3), ("(1)_1", 2), ("(1 2 3)_1", 2),
        # an out-of-range color
        ("(1 2 3)_3", 3), ("(1 2 3)_0", 3), ("(1 2)_2", 2), ("(5 6) (1 2)_9", 2),
        ("(5 6)_9 (1 2)", 2), ("(1 2)", 1), ("(1 2)", 0),
    ]
    return corpus


def test_parse_outputs_unchanged():
    """One sha256 over the result (class and str()) or the failure (class and
    message) of parse on every corpus input, recorded before parse was
    rewritten as a one-pass scan."""
    records = []
    for text, r in _parse_corpus():
        try:
            result = parse(text, r)
        except PermrootError as exc:
            records.append(f"{type(exc).__name__}: {exc}")
        else:
            records.append(f"{type(result).__name__} {result}")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "5fad2228cd3c03e93c82b719b2268ffa9c3a976011725f889a17009ebf99203f"


# -- differential oracle: the sequential parser that parse replaced ------------

_ORACLE_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s+\d+)*)\s*\)(?:_(\d+))?")


def _parse_oracle(text, r=None):
    """Cycle notation parsed one regex match at a time, each match checked as
    it comes: the parser that the bulk ``parse`` replaced, kept to test it."""
    cycles, colors, pos = [], [], 0
    for m in _ORACLE_CYCLE_RE.finditer(text):
        start = m.start()
        if text[pos:start].strip():
            raise CycleNotationError(f"unexpected text {text[pos:start]!r}")
        pos = m.end()
        body, color = m.groups()
        try:
            cyc = tuple(map(int, body.split()))
        except ValueError:
            raise _digit_limit_error("a cycle entry") from None
        if 0 in cyc:
            raise CycleNotationError("cycle entries must be positive integers")
        cycles.append(cyc)
        colors.append(color)
    if text[pos:].strip():
        raise CycleNotationError(f"unexpected trailing text {text[pos:]!r}")
    if r is None:
        if colors.count(None) != len(colors):
            raise CycleNotationError("color subscripts require an enrichment modulus r")
        return Permutation(cycles)
    base = Permutation(cycles)
    color_of = {min(cyc): color for cyc, color in zip(cycles, colors)}
    try:
        ordered = [None if color_of[c[0]] is None else int(color_of[c[0]]) for c in base.cycles]
    except ValueError:
        raise _digit_limit_error("a color") from None
    return EnrichedPermutation(base, r, ordered)


def _outcome(parser, text, r):
    """The value (class, value, text) or the PermrootError (class, message)."""
    try:
        value = parser(text, r)
    except PermrootError as exc:
        return type(exc), str(exc)
    return type(value), value, str(value)


# parentheses, subscripts, ASCII and Arabic-Indic digits, Unicode whitespace, signs
_FUZZ_ALPHABET = "()_0123456789\u0660\u0661\u0662\u0663\u0669 \t\n\x1c+-"


def _mutated(rng):
    """A small valid text, colored at random, then edited 1-4 times."""
    n = rng.randrange(7)
    cycles = _random_cycles(rng, n) if n else []
    text = list(_join(rng, [_cycle_text(rng, c, rng.choice((None, None, 1, 2))) for c in cycles]))
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(4)
        if op == 0 or not text:
            text.insert(i, rng.choice(_FUZZ_ALPHABET))
        elif op == 1:
            del text[min(i, len(text) - 1)]
        elif op == 2:
            text[min(i, len(text) - 1)] = rng.choice(_FUZZ_ALPHABET)
        else:
            j = rng.randrange(len(text) + 1)
            text[i:i] = text[min(i, j):max(i, j)]
    return "".join(text)


def _family(outcome):
    """The class of a value, or the class and message head of an error."""
    return outcome[0].__name__, re.split(r"[\d'(]", outcome[1])[0] if len(outcome) == 2 else ""


def test_parse_matches_the_sequential_oracle_on_mutated_text():
    rng = random.Random(20261020)
    families = set()
    for _ in range(50_000):
        text = _mutated(rng)
        for r in (None, 2, 3):
            want = _outcome(_parse_oracle, text, r)
            assert _outcome(parse, text, r) == want, (text, r)
            families.add(_family(want))
    # both kinds of value and every error that parse can raise on short text
    assert families == {
        ("Permutation", ""), ("EnrichedPermutation", ""),
        ("CycleNotationError", "unexpected text "),
        ("CycleNotationError", "unexpected trailing text "),
        ("CycleNotationError", "cycle entries must be positive integers"),
        ("CycleNotationError", "color subscripts require an enrichment modulus r"),
        ("InvalidPermutationError", "element "),
        ("InvalidPermutationError", "color "),
        ("InvalidPermutationError", "singular cycle "),
        ("InvalidPermutationError", "regular cycle "),
    }


@pytest.mark.parametrize("r", [None, 2, 3, 5])
def test_round_trips_at_ten_thousand_elements(r):
    rng = random.Random(r or 1)
    for _ in range(3):
        cycles = _random_cycles(rng, 10**4)
        colors = [None if r is None or len(c) % r else rng.randint(1, r - 1) for c in cycles]
        messy = _join(rng, [_cycle_text(rng, c, k) for c, k in zip(cycles, colors)])
        rotated = [c[c.index(min(c)):] + c[:c.index(min(c))] for c in cycles]
        want = " ".join(
            "(" + " ".join(map(str, c)) + ")" + ("" if k is None else f"_{k}")
            for c, k in sorted(zip(rotated, colors))
        )
        p = parse(messy, r)
        assert str(p) == want
        assert parse(str(p), r) == p
        assert parse(want, r) == p
