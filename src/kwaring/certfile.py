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
from math import gcd, lcm

from .algebra import EMPTY_TOWER, NAME_RE, ExtensionTower, RingElement, TowerError
from .decomp import Certificate, MalformedCertificateError
from .polynomials import Monomial, Polynomial
from .rationals import RATIONAL_PATTERN

FORMAT_VERSION = 1
_HEADER = f"kwaring certificate v{FORMAT_VERSION}"

_TERM_RE = re.compile(
    r"\((" + RATIONAL_PATTERN + r")\)((?:\*" + NAME_RE.pattern + r"\^(?:0|[1-9][0-9]*))*)"
)
_FACTOR_RE = re.compile(r"\*(" + NAME_RE.pattern + r")\^([0-9]+)")
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


class CertificateParseError(ValueError):
    """The text is not a canonical certificate file."""


def _parse_ring_element(tower: ExtensionTower, text: str) -> RingElement:
    """Inverse of RingElement.text() for the given tower, canonical form only."""
    if text == "0":
        return tower.zero()
    names, position = tower.names, tower._position
    terms = {}
    for chunk in text.split(" + "):
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise CertificateParseError(f"bad ring element term: {chunk!r}")
        num, _, den = m.group(1).partition("/")
        n, d = int(num), int(den or 1)
        if den and (d == 1 or gcd(n, d) != 1):
            raise CertificateParseError(f"non-canonical coefficient: {chunk!r}")
        factors = _FACTOR_RE.findall(m.group(2))
        if tuple(f[0] for f in factors) != names:
            raise CertificateParseError(
                f"term generators do not match tower {names}: {chunk!r}"
            )
        exps = tuple(int(f[1]) for f in factors)
        for e, deg in zip(exps, tower.degrees):
            if e >= deg:
                raise CertificateParseError(f"generator power out of range: {chunk!r}")
        if n == 0 or exps in terms:
            raise CertificateParseError(f"non-canonical ring element: {text!r}")
        terms[exps] = n, d
    if list(terms) != sorted(terms):
        raise CertificateParseError(f"ring element terms out of order: {text!r}")
    common = lcm(*[d for _, d in terms.values()])
    numerators = [0] * len(tower.basis)
    for exps, (n, d) in terms.items():
        numerators[position[exps]] = n * (common // d)
    return RingElement(tower, numerators, common)


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise CertificateParseError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix):
            raise CertificateParseError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):]


def _int_field(raw: str, minimum: int, label: str) -> int:
    if not _INT_RE.fullmatch(raw) or int(raw) < minimum:
        raise CertificateParseError(f"bad {label}: {raw!r}")
    return int(raw)


def _parse_term(tower: ExtensionTower, nv: int, line: str) -> tuple:
    """A ``term:`` line's (exponent tuple, coefficient)."""
    if " :: " not in line:
        raise CertificateParseError(f"bad term line: {line!r}")
    exp_part, coeff_part = line.split(" :: ", 1)
    exp_raw = exp_part.split(" ")
    if len(exp_raw) != nv:
        raise CertificateParseError("term arity differs from variable list")
    exps = tuple(_int_field(e, 0, "exponent") for e in exp_raw)
    return exps, _parse_ring_element(tower, coeff_part)


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
    src = _Lines(text)
    if src.next() != _HEADER:
        raise CertificateParseError("missing or unsupported header")
    # Certificate checks the variable names, and extend the generator names
    variables = tuple(src.expect("variables: ").split(" "))
    nv = len(variables)
    k = _int_field(src.expect("k: "), 1, "k")
    target_raw = src.expect("target: ").split(" ")
    if len(target_raw) != nv:
        raise CertificateParseError("target arity differs from variable list")
    target = Monomial(tuple(_int_field(e, 0, "exponent") for e in target_raw))

    ngens = _int_field(src.expect("generators: "), 0, "generator count")
    tower = EMPTY_TOWER
    for _ in range(ngens):
        head = src.expect("generator: ").split(" ")
        if len(head) != 2:
            raise CertificateParseError("bad generator line")
        name = head[0]
        degree = _int_field(head[1], 2, "generator degree")
        lower = [
            _parse_ring_element(tower, src.expect("coeff: ")) for _ in range(degree)
        ]
        defining = tuple(lower) + (tower.one(),)
        try:
            tower = tower.extend(name, defining)
        except TowerError as exc:
            raise CertificateParseError(f"bad generator {name!r}: {exc}") from None

    nsummands = _int_field(src.expect("summands: "), 0, "summand count")
    # Scalar and term lines repeat (a grid form's coefficients are a few root
    # powers), so each distinct line is parsed once; the elements are
    # immutable and shared.  The checks below that involve the whole form run
    # on every use.
    scalars: dict = {}
    term_lines: dict = {}
    summands = []
    for _ in range(nsummands):
        line = src.expect("scalar: ")
        scalar = scalars.get(line)
        if scalar is None:
            scalar = scalars[line] = _parse_ring_element(tower, line)
        nterms = _int_field(src.expect("terms: "), 1, "term count")
        terms = {}
        order = []
        for _ in range(nterms):
            line = src.expect("term: ")
            term = term_lines.get(line)
            if term is None:
                term = term_lines[line] = _parse_term(tower, nv, line)
            exps, coeff = term
            if coeff.is_zero() or exps in terms:
                raise CertificateParseError("non-canonical form term list")
            terms[exps] = coeff
            order.append(exps)
        form = Polynomial(tower, nv, terms)
        if order != [e for e, _ in form.sorted_terms()]:
            raise CertificateParseError("form terms out of canonical order")
        summands.append((scalar, form))

    verified_raw = src.expect("verified: ")
    if verified_raw not in ("true", "false"):
        raise CertificateParseError(f"bad verified flag: {verified_raw!r}")
    nnotes = _int_field(src.expect("provenance: "), 0, "provenance count")
    provenance = tuple(src.expect("note: ") for _ in range(nnotes))
    if src.next() != "end":
        raise CertificateParseError("missing end marker")
    if src.lines[src.pos:] != [""]:
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
