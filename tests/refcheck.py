"""A reference checker for kwaring certificate files that shares no code with
kwaring: the standard library only, so that it can vouch for ``verify``.

It reads a v1 certificate file permissively (the ``key: value`` lines it
needs, in file order, with no canonical-form checks) and decides exactly
whether

    sum_j  scalar_j * (form_j)^k  ==  x^target

in Q[x][g1, ..., gr] modulo each generator's defining polynomial.  A
polynomial is a dict from one exponent tuple, the variables' then the
generators', to a ``Fraction``.  After every product each generator g of
degree d, last first, has g^d replaced by -(c_0 + c_1 g + ... + c_(d-1)
g^(d-1)); the c_m hold only earlier generators, so one pass from the last
generator to the first leaves every generator exponent below its degree.
Each summand is expanded by repeated multiplication.

    python tests/refcheck.py FILE...

prints ``ok`` or ``FAIL`` and the file name per file and exits 1 if any fails.
"""

import sys
from fractions import Fraction


def read(text: str):
    """(k, target, relations, summands) of a certificate file, every element
    a polynomial over all variables and generators."""
    gens, summands = [], []
    for key, _, value in (line.partition(": ") for line in text.splitlines()):
        if key == "variables":
            nv = len(value.split(" "))
        elif key == "k":
            k = int(value)
        elif key == "target":
            target = tuple(map(int, value.split(" ")))
        elif key == "generator":
            name, degree = value.split(" ")
            gens.append((name, int(degree), []))
        elif key == "coeff":
            gens[-1][2].append(value)
        elif key == "scalar":
            summands.append((value, []))
        elif key == "term":
            summands[-1][1].append(value.split(" :: "))
    names = [name for name, _, _ in gens]
    width = nv + len(gens)

    def element(text: str, shift=()) -> dict:
        """The polynomial of ring element text, its exponents plus ``shift``."""
        out = {}
        for term in ([] if text == "0" else text.split(" + ")):
            coeff, *factors = term.split("*")
            exps = list(shift) + [0] * (width - len(shift))
            for factor in factors:
                name, e = factor.split("^")
                exps[nv + names.index(name)] += int(e)
            out[tuple(exps)] = out.get(tuple(exps), 0) + Fraction(coeff[1:-1])
        return out

    relations = []
    for j, (_, degree, coeffs) in enumerate(gens):
        minus_low = {}  # g^degree = -(c_0 + c_1 g + ...)
        for m, c in enumerate(coeffs):
            for e, a in element(c).items():
                e = e[:nv + j] + (e[nv + j] + m,) + e[nv + j + 1:]
                minus_low[e] = minus_low.get(e, 0) - a
        relations.append((nv + j, degree, minus_low))
    forms = []
    for scalar, terms in summands:
        form = {}
        for exps, coeff in terms:
            for e, a in element(coeff, tuple(map(int, exps.split(" ")))).items():
                form[e] = form.get(e, 0) + a
        forms.append((element(scalar), form))
    return k, target + (0,) * len(gens), relations, forms


def reduced(poly: dict, relations) -> dict:
    """poly with every generator exponent below its degree, zeros dropped."""
    for pos, degree, minus_low in reversed(relations):
        high = [e for e in poly if e[pos] >= degree]
        while high:
            for e in high:
                c = poly.pop(e)
                base = e[:pos] + (e[pos] - degree,) + e[pos + 1:]
                for f, a in minus_low.items():
                    g = tuple(x + y for x, y in zip(base, f))
                    poly[g] = poly.get(g, 0) + c * a
            high = [e for e in poly if e[pos] >= degree]
    return {e: c for e, c in poly.items() if c}


def mul(p: dict, q: dict, relations) -> dict:
    out = {}
    for e, a in p.items():
        for f, b in q.items():
            g = tuple(x + y for x, y in zip(e, f))
            out[g] = out.get(g, 0) + a * b
    return reduced(out, relations)


def check(text: str) -> bool:
    """Whether the certificate's identity holds exactly."""
    k, target, relations, forms = read(text)
    total = {target: Fraction(-1)}
    for scalar, form in forms:
        power = form
        for _ in range(k - 1):
            power = mul(power, form, relations)
        for e, a in mul(scalar, power, relations).items():
            total[e] = total.get(e, 0) + a
    return not any(total.values())


if __name__ == "__main__":
    failed = False
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            ok = check(fh.read())
        failed |= not ok
        print("ok  " if ok else "FAIL", path)
    sys.exit(1 if failed else 0)
