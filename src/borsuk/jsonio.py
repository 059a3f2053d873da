"""JSON wire formats with bit-exact rational round-trips.

All coordinates travel as strings in lowest terms ("p/q", or "p" for
integers), so parse -> serialize -> parse is the identity. Emission is
deterministic: sorted keys, fixed indentation, trailing newline. Every
rational written goes through :func:`format_rational`, which raises
:class:`DomainError` for a value too long to write. Parsing raises
:class:`InvalidInput` on any malformed object: bad JSON text, a missing
field, a value of the wrong type, an unparsable rational or a decimal
too long to print back. Every point, vertex, facet normal and class
must be a JSON list, so a string is not read one character each, and
every dim, point count and class index a JSON integer.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

from .bodies import PointSet, SymmetricBody, VPolytope, lift_body
from .covering import Covering
from .errors import BorsukError, DomainError, InvalidInput
from .metric import DiameterGraph
from .partition import BorsukCertificate, Partition


# The most digits a numerator or denominator written as a decimal may
# have: Python's default limit for converting an int to text. Both
# parse_rational and format_rational hold to it.
MAX_DECIMAL_DIGITS = 4300
_LOG10_2 = 0.30102999566398120

# a decimal as Fraction reads it, loosely: integer digits, decimal
# digits, exponent; a pattern string, compiled on first use rather than
# at import
_DECIMAL = r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?\d[\d_]*))?\s*\Z"


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 0, counted without converting n to text.

    With b bits, n has floor(b log10 2) or one more digits."""
    floor = int(n.bit_length() * _LOG10_2)
    return max(1, floor + (n >= 10**floor))


def format_rational(value: Fraction) -> str:
    """Lowest-terms text of an exact rational: "p/q", or "p" for an
    integer. A numerator or denominator of more than
    :data:`MAX_DECIMAL_DIGITS` digits, which Python will not convert to
    text and :func:`parse_rational` would not read back, raises
    :class:`DomainError` naming its digit count."""
    digits = _decimal_digits(max(abs(value.numerator), value.denominator))
    if digits <= MAX_DECIMAL_DIGITS:
        try:
            return str(value)
        except ValueError:  # PYTHONINTMAXSTRDIGITS lowered the interpreter's limit
            pass
    raise DomainError(f"result has {digits} digits, too many to write")


def _vec_to_obj(v):
    return [format_rational(c) for c in v]


def _decimal_too_long(text: str) -> bool:
    # m.d times 10**e is int("md") * 10**shift, shift = e - len(d): in
    # lowest terms its numerator divides int("md") * 10**max(shift, 0)
    # and its denominator 10**max(-shift, 0)
    decimal = re.match(_DECIMAL, text)
    if decimal is None:
        return False
    whole, part, exponent = (g.replace("_", "") if g else "" for g in decimal.groups())
    if len(exponent.lstrip("+-").lstrip("0")) > len(str(MAX_DECIMAL_DIGITS)):
        return True  # |e| >= 10**4 puts 10**4 digits in one of the two
    shift = int(exponent or 0) - len(part)
    numerator = len(whole + part) + max(shift, 0)
    denominator = 1 + max(-shift, 0)
    return max(numerator, denominator) > MAX_DECIMAL_DIGITS


def parse_rational(text) -> Fraction:
    """Exact value of "p/q", "p" or a decimal; JSON numbers go through
    ``str()`` first, so a JSON float 0.1 parses as 1/10, not as its
    binary value. A decimal whose numerator or denominator, counting the
    zeros its exponent stands for and before reducing, would have more
    than :data:`MAX_DECIMAL_DIGITS` digits (such as "1e999999999" or
    "0.1e-4299") is rejected before ``Fraction`` builds it, so every
    parsed value can be printed back."""
    text = str(text)
    if _decimal_too_long(text):
        raise InvalidInput(f"decimal with more than {MAX_DECIMAL_DIGITS} digits: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"not a rational number: {text!r}") from None


def _parses(what):
    """Report a parser's structural failures as InvalidInput."""

    def wrap(parse):
        @functools.wraps(parse)
        def parse_or_raise(*args, **kwargs):
            try:
                return parse(*args, **kwargs)
            except BorsukError:
                raise
            except KeyError as exc:
                raise InvalidInput(f"{what}: missing field {exc.args[0]!r}") from None
            except (TypeError, ValueError, AttributeError, OverflowError, RecursionError) as exc:
                raise InvalidInput(f"{what}: {exc}") from None

        return parse_or_raise

    return wrap


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidInput(f"{what} must be a JSON list, not {value!r}")
    return value


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{what} must be a JSON integer, not {value!r}")
    return value


def _vec_from_obj(coords):
    return tuple(parse_rational(c) for c in _list(coords, "a point"))


def _freeze(value):
    # labels are opaque JSON; tuples keep parsed sets hashable/immutable
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def polytope_to_obj(K: VPolytope) -> dict:
    return {"dim": K.dim, "vertices": [_vec_to_obj(v) for v in K.vertices]}


@_parses("polytope")
def polytope_from_obj(obj) -> VPolytope:
    verts = tuple(_vec_from_obj(v) for v in obj["vertices"])
    return VPolytope(_int(obj["dim"], "dim"), verts)


def body_to_obj(C: SymmetricBody) -> dict:
    if C.vertices is not None:
        return {"dim": C.dim, "vertices": [_vec_to_obj(v) for v in C.vertices]}
    return {
        "dim": C.dim,
        "facets": [{"a": _vec_to_obj(a), "b": format_rational(b)} for a, b in C.facets],
    }


@_parses("body")
def body_from_obj(obj) -> SymmetricBody:
    dim = _int(obj["dim"], "dim")
    if "vertices" in obj and "facets" in obj:
        raise InvalidInput("body: give one of 'vertices' and 'facets', not both")
    if "vertices" in obj:
        return SymmetricBody(dim, vertices=tuple(_vec_from_obj(v) for v in obj["vertices"]))
    facets = tuple(
        (_vec_from_obj(f["a"]), parse_rational(f["b"])) for f in obj["facets"]
    )
    return SymmetricBody(dim, facets=facets)


def pointset_to_obj(S: PointSet) -> dict:
    obj = {"dim": S.dim, "points": [_vec_to_obj(p) for p in S.points]}
    if S.labels is not None:
        obj["labels"] = [list(l) if isinstance(l, tuple) else l for l in S.labels]
    return obj


@_parses("point set")
def pointset_from_obj(obj) -> PointSet:
    points = tuple(_vec_from_obj(p) for p in obj["points"])
    labels = obj.get("labels")
    if labels is not None:
        labels = tuple(_freeze(l) for l in _list(labels, "labels"))
    return PointSet(_int(obj["dim"], "dim"), points, labels)


def lifted_body_to_obj(K: VPolytope) -> dict:
    """The symmetric lift of K, with K as its provenance."""
    return {
        "base_dim": K.dim,
        "body": body_to_obj(lift_body(K)),
        "provenance": polytope_to_obj(K),
    }


def graph_to_obj(G: DiameterGraph) -> dict:
    return {
        "n_points": G.n_points,
        "diameter": format_rational(G.diameter),
        "edges": [list(e) for e in G.edges],
    }


def certificate_to_obj(cert: BorsukCertificate, elapsed: float | None = None) -> dict:
    return {
        "number": cert.number,
        "classes": [list(cls) for cls in cert.partition.classes],
        "clique": list(cert.lower_bound_clique),
        "optimal": cert.optimal,
        "stats": {"nodes": cert.nodes, "time": elapsed},
    }


@_parses("partition")
def partition_from_obj(obj) -> Partition:
    """Accepts either a bare partition object or a certificate; without
    ``n_points`` the classes' sizes add up to it."""
    classes = tuple(tuple(_int(i, "a class index") for i in _list(cls, "a class")) for cls in obj["classes"])
    n_points = _int(obj.get("n_points", 0), "n_points") or sum(len(c) for c in classes)
    return Partition(n_points, classes)


def covering_to_obj(cov: Covering) -> dict:
    return {
        "ratio": format_rational(cov.ratio),
        "centers": [_vec_to_obj(c) for c in cov.centers],
        "certificate_level": cov.certificate_level,
        "witness_count": len(cov.witnesses),
    }


@_parses("point")
def parse_rational_point(text: str):
    """Parse a JSON array of rational strings into a point."""
    return _vec_from_obj(json.loads(text))
