"""Certificate file round trips and strictness of the canonical parser."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from kwaring.algebra import EMPTY_TOWER, RingElement
from kwaring.certfile import (
    CertificateParseError,
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
    trivial_cert,
    two_square,
    verify,
)
from kwaring.polynomials import Monomial, Polynomial
from kwaring.rank import KInstance
from kwaring.rationals import Q
from kwaring.search import SearchProblem, params_from_certificate, residual


def sample_certs():
    return [
        trivial_cert(Monomial((4, 2)), 2),
        two_square(Monomial((3, 1))),
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


def test_round_trip_identity_both_directions():
    for cert in sample_certs():
        text = serialize(cert)
        back = parse(text)
        assert _same_cert(cert, back), cert.target
        assert serialize(back) == text, cert.target
        # reading and printing elements needs no multiplication table (the
        # shared empty tower Q may have built its own already)
        assert not back.tower.generators or back.tower._integer is None, cert.target


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
    cert = two_square(Monomial((3, 1)))
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
