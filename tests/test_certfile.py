"""Certificate file round trips and strictness of the canonical parser."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from kwaring.algebra import (
    EMPTY_TOWER,
    IntegerStructure,
    RingElement,
    _interned,
    roots_of_unity_tower,
)
from kwaring.certfile import (
    CertificateParseError,
    _parse_ring_element,
    parse,
    read_certificate,
    serialize,
    write_certificate,
)
from kwaring.decomp import (
    Certificate,
    decompose,
    monomial_linear_decomp,
    product_linear,
    special_x04x1x2,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance
from kwaring.rationals import Q
from kwaring.search import SearchProblem, params_from_certificate, residual

from test_verify_kernels import GOLDEN_DIR, corrupted


def sample_certs():
    return [
        decompose(KInstance(Monomial((4, 2)), 2)),
        decompose(KInstance(Monomial((3, 1)), 2)),
        product_linear(3),
        monomial_linear_decomp((2, 2)),
        monomial_linear_decomp((1, 1, 2)),
        special_x04x1x2(),
        decompose(KInstance(Monomial((2, 4)), 3)),
        decompose(KInstance(Monomial((1, 1, 1, 1)), 4)),
    ]


def _same_cert(a, b) -> bool:
    if (a.variables, a.k, a.target, a.tower, a.provenance, a.verified) != (
        b.variables, b.k, b.target, b.tower, b.provenance, b.verified
    ):
        return False
    if len(a.summands) != len(b.summands):
        return False
    return all(
        sa == sb and fa == fb
        for (sa, fa), (sb, fb) in zip(a.summands, b.summands)
    )


def test_round_trip_identity_both_directions(monkeypatch):
    certs = sample_certs()
    # Reading and printing elements needs no multiplication table.  The
    # certificates' towers have built theirs, so drop the interned towers:
    # parse then makes fresh ones, and none of them may build a table.
    _interned.cache_clear()
    built = []
    build = IntegerStructure.__init__

    def counting(self, tower):
        built.append(tower)
        build(self, tower)

    monkeypatch.setattr(IntegerStructure, "__init__", counting)
    for cert in certs:
        text = serialize(cert)
        back = parse(text)
        assert _same_cert(cert, back), cert.target
        assert serialize(back) == text, cert.target
    assert built == []


def test_round_trip_preserves_verification_evidence():
    for cert in sample_certs():
        back = parse(serialize(cert))
        assert back.verified  # flag carried over from construction
        assert verify(back), cert.target


def test_rational_scalars_round_trip():
    """x0*x1 = (1/4)(x0+x1)^2 - (1/4)(x0-x1)^2 over Q with its scalars given
    as rationals: they are stored as tower elements, so the certificate
    serializes, parses back to the same text and flattens into search
    parameters."""
    x0, x1 = (Polynomial.variable(EMPTY_TOWER, 2, i) for i in range(2))
    cert = Certificate(("x0", "x1"), 2, Monomial((1, 1)), EMPTY_TOWER,
                       ((Q(1, 4), x0 + x1), (Q(-1, 4), x0 - x1)))
    assert verify(cert)
    assert all(isinstance(s, RingElement) for s, _ in cert.summands)
    text = serialize(cert)
    assert "scalar: (1/4)\n" in text and "scalar: (-1/4)\n" in text
    back = parse(text)
    assert _same_cert(cert, back) and serialize(back) == text
    problem = SearchProblem(Monomial((1, 1)), 2, 2)
    assert residual(problem, params_from_certificate(problem, cert)) < 1e-20


def test_file_round_trip(tmp_path):
    cert = special_x04x1x2()
    path = tmp_path / "x.cert"
    write_certificate(cert, path)
    assert _same_cert(cert, read_certificate(path))


def test_read_missing_file_is_parse_error(tmp_path):
    with pytest.raises(CertificateParseError):
        read_certificate(tmp_path / "nope.cert")


def test_header_and_version_are_enforced():
    text = serialize(product_linear(2))
    with pytest.raises(CertificateParseError):
        parse(text.replace("kwaring certificate v1", "kwaring certificate v2", 1))
    with pytest.raises(CertificateParseError):
        parse("garbage\n" + text)


def test_truncated_file_rejected():
    text = serialize(product_linear(2))
    body = text[: text.rindex("end")]
    with pytest.raises(CertificateParseError):
        parse(body)


def test_trailing_content_rejected():
    text = serialize(product_linear(2))
    with pytest.raises(CertificateParseError):
        parse(text + "extra\n")
    # the file ends with exactly "end\n": no blank lines after it, no missing newline
    for bad in (text + "\n", text + "\n\n", text[:-1]):
        with pytest.raises(CertificateParseError):
            parse(bad)


def test_noncanonical_term_order_rejected():
    cert = decompose(KInstance(Monomial((3, 1)), 2))
    text = serialize(cert)
    lines = text.splitlines(keepends=True)
    idx = [i for i, line in enumerate(lines) if line.startswith("term: ")]
    lines[idx[0]], lines[idx[1]] = lines[idx[1]], lines[idx[0]]
    with pytest.raises(CertificateParseError):
        parse("".join(lines))


def test_bad_coefficient_text_rejected():
    text = serialize(special_x04x1x2())
    with pytest.raises(CertificateParseError):
        parse(text.replace("(1)*u^1*v^0", "(1)*w^1*v^0", 1))  # unknown generator
    with pytest.raises(CertificateParseError):
        parse(text.replace("(1)*u^1*v^0", "(1)*u^2*v^0", 1))  # power out of range
    with pytest.raises(CertificateParseError):
        parse(text.replace("(1)*u^1*v^0", "1*u^1*v^0", 1))  # missing parens


def test_digit_corruption_still_parses_but_fails_verify():
    text = serialize(special_x04x1x2())
    assert "(-1/6)" in text
    corrupted = parse(text.replace("(-1/6)", "(-1/7)", 1))
    assert verify(corrupted) is False


def test_the_verified_line_is_trusted_by_parse_and_reset_by_verify():
    """``parse`` copies the file's ``verified: true`` into the certificate
    without checking it, so a golden file with one corrupted digit parses
    as verified; ``verify`` rejects it and resets the flag."""
    text = (GOLDEN_DIR / "special_x04x1x2.cert").read_text(encoding="utf-8")
    cert = parse(corrupted(text, random.Random(26)))
    assert "verified: true" in text and cert.verified is True
    assert verify(cert) is False and cert.verified is False


@functools.lru_cache(maxsize=None)
def _grid_text():
    """Grid (1,2,3,3): 48 summands whose scalar and term lines repeat."""
    return serialize(monomial_linear_decomp((1, 2, 3, 3)))


def test_repeated_term_line_within_a_form_rejected():
    lines = _grid_text().split("\n")
    i = lines.index("terms: 4")
    assert lines[i + 1].startswith("term: ")
    lines[i:i + 2] = ["terms: 5", lines[i + 1], lines[i + 1]]
    with pytest.raises(CertificateParseError, match="non-canonical form term list"):
        parse("\n".join(lines))


def test_repeated_noncanonical_coefficient_gives_the_same_error():
    text = _grid_text()
    old, new = ":: (1)*z3^1*z4^0\n", ":: (2/2)*z3^1*z4^0\n"
    assert text.count(old) > 2
    messages = []
    for count in (1, 2):
        with pytest.raises(CertificateParseError) as err:
            parse(text.replace(old, new, count))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "non-canonical coefficient" in messages[0]


@pytest.mark.parametrize("coeff", ["2/2", "2/4", "3/1", "0/5", "-6/3", "0/1"])
def test_unreduced_coefficient_rejected(coeff):
    text = _grid_text().replace(":: (1)*z3^1*z4^0\n", f":: ({coeff})*z3^1*z4^0\n", 1)
    with pytest.raises(CertificateParseError, match="non-canonical coefficient"):
        parse(text)


@pytest.mark.parametrize("coeff", ["", "1/0", "1/-2", "0.5", "1 / 2", "+1", "a"])
def test_junk_coefficient_rejected(coeff):
    text = _grid_text().replace(":: (1)*z3^1*z4^0\n", f":: ({coeff})*z3^1*z4^0\n", 1)
    with pytest.raises(CertificateParseError, match="bad ring element term"):
        parse(text)


def test_zero_coefficient_rejected():
    text = _grid_text().replace(":: (1)*z3^1*z4^0\n", ":: (0)*z3^1*z4^0\n", 1)
    with pytest.raises(CertificateParseError, match="non-canonical ring element"):
        parse(text)


def test_corrupting_a_later_copy_of_a_repeated_line():
    text = _grid_text()
    line = "term: 0 0 0 1 :: (1)*z3^0*z4^1"
    lines = text.split("\n")
    first, last = lines.index(line), len(lines) - 1 - lines[::-1].index(line)
    assert first < last
    lines[last] = line.replace("(1)", "(2)")
    cert = parse("\n".join(lines))

    def coeff_at(index):
        summand = sum(1 for entry in lines[:index] if entry.startswith("scalar: ")) - 1
        return cert.summands[summand][1].terms[(0, 0, 0, 1)]

    assert coeff_at(first) != coeff_at(last)
    assert coeff_at(last) == coeff_at(first) * 2
    assert verify(cert) is False


def test_counts_must_match():
    text = serialize(product_linear(2))
    with pytest.raises(CertificateParseError):
        parse(text.replace("summands: 2", "summands: 3", 1))
    with pytest.raises(CertificateParseError):
        parse(text.replace("generators: 0", "generators: 1", 1))


def test_provenance_and_flags_survive():
    cert = decompose(KInstance(Monomial((4, 1, 1)), 3))
    back = parse(serialize(cert))
    assert back.provenance == cert.provenance
    assert len(back.provenance) >= 1


@pytest.mark.parametrize(
    "old, new",
    [
        ("k: 3\n", "k: +3\n"),
        ("k: 3\n", "k: 0_3\n"),
        ("k: 3\n", "k: ٣\n"),  # a non-ASCII digit
        ("scalar: (1)*u^0*v^0", "scalar: (01)*u^0*v^0"),
        ("scalar: (1)*u^0*v^0", "scalar: (1/1)*u^0*v^0"),
        ("scalar: (1)*u^0*v^0", "scalar: (2/2)*u^0*v^0"),
        ("scalar: (1)*u^0*v^0", "scalar: (1)*u^00*v^0"),
        ("coeff: (-1/6)", "coeff: (-2/12)"),
        ("term: 2 0 0 ::", "term: 02 0 0 ::"),
        ("generator: v 3", "generator: u 3"),  # duplicate generator name
        ("variables: x0 x1 x2", "variables: x0 x0 x2"),  # duplicate variable name
        ("variables: x0 x1 x2", "variables: x0 x1 2x"),  # bad variable name
        ("generator: v 3", "generator: 3v 3"),  # bad generator name
    ],
)
def test_noncanonical_text_rejected(old, new):
    text = serialize(special_x04x1x2())
    assert old in text
    with pytest.raises(CertificateParseError):
        parse(text.replace(old, new, 1))


_PIECES = list("0123456789+-_/()*^: \n") + ["٣", "u", "x0", "(1/1)", "(01)", "\r", "end\n"]


@functools.lru_cache(maxsize=None)
def _canonical_texts():
    return tuple(serialize(cert) for cert in sample_certs())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    which=st.integers(0, len(sample_certs()) - 1),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(("insert", "delete", "replace")),
                  st.sampled_from(_PIECES)),
        min_size=1,
        max_size=3,
    ),
)
def test_every_accepted_text_is_canonical(which, edits):
    """Mutation property: any text the parser accepts serializes back to
    itself."""
    text = _canonical_texts()[which]
    for pos, op, piece in edits:
        pos %= len(text) + 1
        cut = 0 if op == "insert" else len(piece)
        text = text[:pos] + ("" if op == "delete" else piece) + text[pos + cut:]
    try:
        cert = parse(text)
    except CertificateParseError:
        return
    assert serialize(cert) == text


# The towers of the verify oracle: Q, a square root, a nested square root, a
# cyclotomic tower and the three-cube tower.
def _sqrt_tower():
    return EMPTY_TOWER.extend("u", (Q(-1, 6), Q(0), Q(1)))


def _nested_tower():
    t = _sqrt_tower()
    return t.extend("w", (-t.generator_element("u"), Q(0), Q(1)))  # w^2 = u


ORACLE_TOWERS = {
    "Q": EMPTY_TOWER,
    "u^2 = 1/6": _sqrt_tower(),
    "u^2 = 1/6, w^2 = u": _nested_tower(),
    "cyclotomic 3, 4, 5": roots_of_unity_tower([3, 4, 5]),
    "special_x04x1x2": special_x04x1x2().tower,
}


@st.composite
def tower_elements(draw):
    """(tower name, a random element of that tower, nonzero when drawn so)."""
    name = draw(st.sampled_from(sorted(ORACLE_TOWERS)))
    tower = ORACLE_TOWERS[name]
    terms = draw(st.dictionaries(
        st.integers(0, len(tower.basis) - 1),
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
        max_size=4,
    ))
    return name, tower.element({tower.basis[i]: c for i, c in terms.items()})


def _reference_text(el) -> str:
    """Canonical text from the element's {exponents: Fraction} terms: terms
    ascending by exponent tuple, every generator with its exponent."""
    return " + ".join(
        f"({c})" + "".join(f"*{name}^{e}" for name, e in zip(el.tower.names, exps))
        for exps, c in sorted(el.terms.items())
    ) or "0"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tower_elements())
def test_ring_element_text_parses_back(drawn):
    _, el = drawn
    assert el.text() == _reference_text(el)
    back = _parse_ring_element(el.tower, el.text())
    assert back == el and back.tower is el.tower
    assert back.numerators == el.numerators and back.denominator == el.denominator


def test_text_order_is_by_exponent_tuple_not_basis_index():
    """The basis runs first generator fastest; text runs by exponent tuple."""
    tower = roots_of_unity_tower([3, 4])
    el = tower.generator_element("z3") + tower.generator_element("z4")
    assert tower.basis[1:3] == ((1, 0), (0, 1))
    assert el.text() == "(1)*z3^0*z4^1 + (1)*z3^1*z4^0"
    with pytest.raises(CertificateParseError, match="out of order"):
        _parse_ring_element(tower, "(1)*z3^1*z4^0 + (1)*z3^0*z4^1")


def _element_cert(el):
    """x0*x1 as a (false) certificate whose scalars and coefficients are el,
    so that el's text appears in a whole file."""
    tower, nonzero = el.tower, el if el else el.tower.one()
    x0, x1 = (Polynomial.variable(tower, 2, i) for i in range(2))
    return Certificate(("x0", "x1"), 2, Monomial((1, 1)), tower,
                       ((el, x0 * nonzero + x1), (tower.one(), x0 - x1 * nonzero)))


_ALPHABET = "0123456789-+/()*^: \nuvwz_"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=tower_elements(), edits=st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(("insert", "delete", "replace")),
              st.sampled_from(_ALPHABET)),
    min_size=1, max_size=20))
def test_single_character_mutations_are_rejected_or_canonical(drawn, edits):
    """One inserted, deleted or replaced character in a canonical file over
    an oracle tower either fails to parse or gives a file that serializes
    back to the same bytes."""
    text = serialize(_element_cert(drawn[1]))
    for pos, op, ch in edits:
        pos %= len(text)
        mutated = text[:pos] + ("" if op == "delete" else ch) + text[pos + (op != "insert"):]
        try:
            cert = parse(mutated)
        except CertificateParseError:
            continue
        assert serialize(cert) == mutated


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_every_single_character_mutation_of_a_coefficient_line(name):
    """Every replacement and deletion of one character in the scalar and
    term lines of a small canonical file over each oracle tower."""
    tower = ORACLE_TOWERS[name]
    el = tower.element({tower.basis[-1]: Q(-3, 2), tower.basis[0]: Q(5)})
    text = serialize(_element_cert(el))
    start, stop = text.index("scalar: "), text.index("verified: ")
    for pos in range(start, stop):
        for mutated in [text[:pos] + text[pos + 1:]] + [
                text[:pos] + ch + text[pos + 1:] for ch in _ALPHABET if ch != text[pos]]:
            try:
                cert = parse(mutated)
            except CertificateParseError:
                continue
            assert serialize(cert) == mutated, (pos, mutated[start:stop])


@pytest.mark.parametrize(
    "text, message",
    [
        ("(2/4)*u^1", "non-canonical coefficient: '(2/4)*u^1'"),
        ("1*u^1", "bad ring element term: '1*u^1'"),
        ("(1)*u^0 + (0)*u^1", "non-canonical ring element: '(1)*u^0 + (0)*u^1'"),
        ("(1)*u^1 + (2)*u^1", "non-canonical ring element: '(1)*u^1 + (2)*u^1'"),
        ("(1)*u^1 + (1)*u^0", "ring element terms out of order: '(1)*u^1 + (1)*u^0'"),
        ("(1)*u^2", "generator power out of range: '(1)*u^2'"),
        ("(1)*w^1", "term generators do not match tower ('u',): '(1)*w^1'"),
        ("(1)", "term generators do not match tower ('u',): '(1)'"),
        # a bad term after an out-of-order one is reported as itself
        ("(1)*u^1 + (1)*u^0 + (1)*u^2", "generator power out of range: '(1)*u^2'"),
    ],
)
def test_ring_element_parse_messages(text, message):
    with pytest.raises(CertificateParseError) as err:
        _parse_ring_element(_sqrt_tower(), text)
    assert str(err.value) == message


def test_parsed_files_over_one_tower_share_its_table():
    text = serialize(special_x04x1x2())
    a, b = parse(text), parse(text)
    assert a.tower is b.tower
    assert a.tower.integer_structure() is b.tower.integer_structure()
