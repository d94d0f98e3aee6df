"""Typed query building for :meth:`ContextBroker.query`.

The broker historically took NGSIv2 ``q``-style filter *strings*
(``"soilMoisture<0.2"``).  The supported surface is now the typed builder:

    Query(type="SoilProbe").where("soilMoisture", "<", 0.2)

or a bare list of :class:`AttrFilter`.  The broker no longer accepts
string expressions (the deprecation cycle is complete — they raise
:class:`~repro.context.errors.QueryError`); callers holding NGSIv2 ``q``
wire strings — the north-facing service layer's ``GET /v2/entities`` —
parse them with :func:`parse_filter_expression` before querying.
"""

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.context.entities import ContextEntity
from repro.context.errors import QueryError

#: Comparison operators of the NGSIv2 ``q`` mini-language, longest first so
#: the string parser prefers ``<=`` over ``<`` at the same position.
OPS = ("<=", ">=", "==", "!=", "<", ">")


@dataclass(frozen=True)
class AttrFilter:
    """One attribute predicate: ``entity.<attr> <op> <value>``."""

    attr: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if not self.attr:
            raise QueryError("filter attribute name must not be empty")
        if self.op not in OPS:
            raise QueryError(f"unknown filter operator {self.op!r}; expected one of {OPS}")

    def matches(self, entity: ContextEntity) -> bool:
        return apply_op(entity.get(self.attr), self.op, self.value)


@dataclass
class Query:
    """Builder for filtered entity listings.

    ``type`` / ``id_pattern`` / ``limit`` mirror the broker keyword
    arguments; :meth:`where` appends attribute predicates and returns the
    query so calls chain.
    """

    type: Optional[str] = None
    id_pattern: Optional[str] = None
    limit: Optional[int] = None
    filters: List[AttrFilter] = field(default_factory=list)

    def where(self, attr: str, op: str, value: Any) -> "Query":
        self.filters.append(AttrFilter(attr, op, value))
        return self


def parse_filter_expression(expression: str) -> AttrFilter:
    """Parse one legacy ``q`` expression (``attr<op>value``) to a filter.

    Splits on the *earliest* operator occurrence by position (an operator
    appearing inside the value, e.g. ``label<a==b``, must not win just
    because it sorts earlier in OPS), preferring the longest operator at
    that position so ``a<=1`` parses as ``<=`` rather than ``<``.
    """
    best_pos = -1
    best_op = None
    for op in OPS:
        pos = expression.find(op)
        if pos < 0:
            continue
        if best_op is None or pos < best_pos or (pos == best_pos and len(op) > len(best_op)):
            best_pos, best_op = pos, op
    if best_op is None:
        raise QueryError(f"cannot parse filter expression {expression!r}")
    attr = expression[:best_pos].strip()
    raw = expression[best_pos + len(best_op):].strip()
    try:
        value: Any = float(raw)
    except ValueError:
        value = raw
    return AttrFilter(attr, best_op, value)


def compile_id_pattern(pattern: Optional[str]) -> Optional[re.Pattern]:
    """An ``idPattern`` compiled, None when empty; a malformed one raises
    :class:`QueryError`."""
    if not pattern:
        return None
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise QueryError(f"invalid idPattern {pattern!r}: {exc}") from None


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def apply_op(actual: Any, op: str, expected: Any) -> bool:
    """Evaluate one predicate against an attribute value (None = absent)."""
    if actual is None:
        return False
    if _is_number(expected) and isinstance(actual, bool):
        return False
    try:
        if op == "==":
            if _is_number(expected):
                return float(actual) == float(expected)
            return str(actual) == expected
        if op == "!=":
            if _is_number(expected):
                return float(actual) != float(expected)
            return str(actual) != expected
        numeric_actual = float(actual)
        numeric_expected = float(expected)
    except (TypeError, ValueError):
        return False
    if op == "<":
        return numeric_actual < numeric_expected
    if op == "<=":
        return numeric_actual <= numeric_expected
    if op == ">":
        return numeric_actual > numeric_expected
    if op == ">=":
        return numeric_actual >= numeric_expected
    return False
