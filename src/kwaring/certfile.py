"""Plain-text certificate files.

Versioned, human-diffable, strict.  The serializer writes one canonical form
(fixed field order, canonical ring-element text, forms as explicit term
lists in descending graded-lexicographic order), and the parser accepts only
that shape, so parse(serialize(cert)) reproduces the certificate exactly and
serialize(parse(text)) reproduces canonical text byte for byte.

Layout (one field per line):

    kwaring certificate v1
    variables: x0 x1 x2
    k: 3
    target: 4 1 1
    generators: 2
    generator: u 2
    coeff: (-1/6)
    coeff: 0
    ...
    summands: 3
    scalar: (1)*u^0*v^0
    terms: 2
    term: 2 0 0 :: (1)*u^1*v^0
    ...
    verified: true
    provenance: 1
    note: ...
    end

Generator ``coeff:`` lines are the defining polynomial's coefficients below
the leading term, ascending, as ring elements over the prefix tower.
"""

from __future__ import annotations

import re
from itertools import filterfalse
from math import gcd, lcm

from .algebra import EMPTY_TOWER, NAME_RE, ExtensionTower, RingElement, TowerError
from .decomp import Certificate, MalformedCertificateError
from .polynomials import Monomial, Polynomial, _order_key
from .rationals import RATIONAL_PATTERN

FORMAT_VERSION = 1
_HEADER = f"kwaring certificate v{FORMAT_VERSION}"

_COEFF_RE = re.compile(r"\((" + RATIONAL_PATTERN + r")\)")
_TERM_RE = re.compile(
    _COEFF_RE.pattern + r"((?:\*" + NAME_RE.pattern + r"\^(?:0|[1-9][0-9]*))*)"
)
_FACTOR_RE = re.compile(r"\*(" + NAME_RE.pattern + r")\^[0-9]+")
# every integer field is a count or an exponent: no sign, no leading zeros
_INT_RE = re.compile(r"0|[1-9][0-9]*")


class CertificateParseError(ValueError):
    """The text is not a canonical certificate file."""


def _parse_ring_element(tower: ExtensionTower, text: str) -> RingElement:
    """Inverse of RingElement.text() for the given tower, canonical form only.

    Each term's text after its coefficient must be one of the tower's
    canonical suffixes (``ExtensionTower.vocabulary``), ranked in ascending
    order; ``_fault`` names what is wrong with any other text."""
    if text == "0":
        return tower.zero()
    lookup = tower.vocabulary().lookup
    terms = []
    last = -1
    for chunk in text.split(" + "):
        m = _COEFF_RE.match(chunk)
        hit = m and lookup.get(chunk[m.end():])
        if not hit:
            raise _fault(tower, text)
        index, rank = hit
        num, _, den = m.group(1).partition("/")
        n, d = int(num), int(den or 1)
        if rank <= last or n == 0 or (den and (d == 1 or gcd(n, d) != 1)):
            raise _fault(tower, text)
        last = rank
        terms.append((index, n, d))
    common = lcm(*[d for _, _, d in terms])
    numerators = [0] * len(tower.basis)
    for index, n, d in terms:
        numerators[index] = n * (common // d)
    return RingElement(tower, numerators, common)


def _fault(tower: ExtensionTower, text: str) -> CertificateParseError:
    """The parse error of a ring element text that is not canonical: that of
    its first bad term, else that its terms are out of order."""
    lookup, seen = tower.vocabulary().lookup, set()
    for chunk in text.split(" + "):
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            return CertificateParseError(f"bad ring element term: {chunk!r}")
        num, _, den = m.group(1).partition("/")
        if den and (int(den) == 1 or gcd(int(num), int(den)) != 1):
            return CertificateParseError(f"non-canonical coefficient: {chunk!r}")
        hit = lookup.get(m.group(2))
        if hit is None:
            # the suffix is well formed, so its names or a power are wrong
            if tuple(_FACTOR_RE.findall(m.group(2))) != tower.names:
                return CertificateParseError(
                    f"term generators do not match tower {tower.names}: {chunk!r}"
                )
            return CertificateParseError(f"generator power out of range: {chunk!r}")
        if num == "0" or hit in seen:
            return CertificateParseError(f"non-canonical ring element: {text!r}")
        seen.add(hit)
    return CertificateParseError(f"ring element terms out of order: {text!r}")


def _int_field(raw: str, minimum: int, label: str) -> int:
    if not _INT_RE.fullmatch(raw) or int(raw) < minimum:
        raise CertificateParseError(f"bad {label}: {raw!r}")
    return int(raw)


def _exponents(fields) -> tuple:
    bad = next(filterfalse(_INT_RE.fullmatch, fields), None)
    if bad is not None:
        raise CertificateParseError(f"bad exponent: {bad!r}")
    return tuple(map(int, fields))


def _parse_term(line: str, nv: int, element) -> tuple:
    """A ``term:`` line's order key in its form (``Polynomial.sorted_terms``
    lists terms by descending key) and its nonzero coefficient, read by
    ``element``."""
    exp_part, sep, coeff_part = line.partition(" :: ")
    if not sep:
        raise CertificateParseError(f"bad term line: {line!r}")
    exp_raw = exp_part.split(" ")
    if len(exp_raw) != nv:
        raise CertificateParseError("term arity differs from variable list")
    exps = _exponents(exp_raw)
    coeff = element(coeff_part)
    if coeff.is_zero():
        raise CertificateParseError("non-canonical form term list")
    return _order_key(exps), coeff


def serialize(cert: Certificate) -> str:
    out = [_HEADER]
    out.append("variables: " + " ".join(cert.variables))
    out.append(f"k: {cert.k}")
    out.append("target: " + " ".join(str(e) for e in cert.target.exponents))
    gens = cert.tower.generators
    out.append(f"generators: {len(gens)}")
    for gen in gens:
        out.append(f"generator: {gen.name} {gen.degree}")
        for coeff in gen.lower_coeffs:
            out.append("coeff: " + coeff.text())
    out.append(f"summands: {len(cert.summands)}")
    for scalar, form in cert.summands:
        out.append("scalar: " + scalar.text())
        terms = form.sorted_terms()
        out.append(f"terms: {len(terms)}")
        for exps, coeff in terms:
            out.append(
                "term: " + " ".join(str(e) for e in exps) + " :: " + coeff.text()
            )
    out.append("verified: " + ("true" if cert.verified else "false"))
    out.append(f"provenance: {len(cert.provenance)}")
    for note in cert.provenance:
        out.append("note: " + note)
    out.append("end")
    return "\n".join(out) + "\n"


def parse(text: str) -> Certificate:
    lines = text.split("\n")
    pos = 0

    def field(prefix: str) -> str:
        """The next line, which must start with ``prefix``, without it."""
        nonlocal pos
        if pos >= len(lines):
            raise CertificateParseError("unexpected end of file")
        line = lines[pos]
        pos += 1
        if not line.startswith(prefix):
            raise CertificateParseError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):]

    if field("") != _HEADER:
        raise CertificateParseError("missing or unsupported header")
    # Certificate checks the variable names, and extend the generator names
    variables = tuple(field("variables: ").split(" "))
    nv = len(variables)
    k = _int_field(field("k: "), 1, "k")
    target_raw = field("target: ").split(" ")
    if len(target_raw) != nv:
        raise CertificateParseError("target arity differs from variable list")
    target = Monomial(_exponents(target_raw))

    ngens = _int_field(field("generators: "), 0, "generator count")
    tower = EMPTY_TOWER
    for _ in range(ngens):
        head = field("generator: ").split(" ")
        if len(head) != 2:
            raise CertificateParseError("bad generator line")
        name = head[0]
        degree = _int_field(head[1], 2, "generator degree")
        lower = [_parse_ring_element(tower, field("coeff: ")) for _ in range(degree)]
        defining = tuple(lower) + (tower.one(),)
        try:
            tower = tower.extend(name, defining)
        except TowerError as exc:
            raise CertificateParseError(f"bad generator {name!r}: {exc}") from None

    nsummands = _int_field(field("summands: "), 0, "summand count")
    # Scalars, coefficients and whole term lines repeat (a grid form's
    # coefficients are a few root powers), so each distinct element text and
    # term line is parsed once; the elements are immutable and shared.  The
    # checks below that involve the whole form run on every use.
    elements: dict = {}
    term_lines: dict = {}

    def element(text: str) -> RingElement:
        el = elements.get(text)
        if el is None:
            el = elements[text] = _parse_ring_element(tower, text)
        return el

    summands = []
    for _ in range(nsummands):
        scalar = element(field("scalar: "))
        nterms = _int_field(field("terms: "), 1, "term count")
        terms = {}
        keys = []
        for line in lines[pos:pos + nterms]:
            if not line.startswith("term: "):
                raise CertificateParseError(f"expected 'term: ', got {line!r}")
            term = term_lines.get(line)
            if term is None:
                term = term_lines[line] = _parse_term(line[6:], nv, element)
            key, coeff = term
            if key[1] in terms:
                raise CertificateParseError("non-canonical form term list")
            terms[key[1]] = coeff
            keys.append(key)
        pos += nterms
        if pos > len(lines):
            raise CertificateParseError("unexpected end of file")
        if keys != sorted(keys, reverse=True):
            raise CertificateParseError("form terms out of canonical order")
        summands.append((scalar, Polynomial(tower, nv, terms)))

    verified_raw = field("verified: ")
    if verified_raw not in ("true", "false"):
        raise CertificateParseError(f"bad verified flag: {verified_raw!r}")
    nnotes = _int_field(field("provenance: "), 0, "provenance count")
    provenance = tuple(field("note: ") for _ in range(nnotes))
    if field("") != "end":
        raise CertificateParseError("missing end marker")
    if lines[pos:] != [""]:
        raise CertificateParseError("file must end with the line 'end' and one newline")

    try:
        return Certificate(
            variables=variables,
            k=k,
            target=target,
            tower=tower,
            summands=tuple(summands),
            provenance=provenance,
            verified=(verified_raw == "true"),
        )
    except MalformedCertificateError as exc:
        raise CertificateParseError(str(exc)) from None


def write_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(cert))


def read_certificate(path) -> Certificate:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CertificateParseError(f"cannot read {path}: {exc}") from None
    return parse(text)
