"""Declared input rules for the public config classes.

Each public config class (``ExecutionConfig``, ``LatencyConfig``,
``FaultPlan``, ``PoolConfig``, ``AdaptivePolicy``, ``RetryPolicy``,
``StoreConfig``) declares one :class:`Rule` per field in its ``rules``
table and calls :func:`check_fields` from ``__post_init__``, so a bad
value raises before any work runs, with a message naming the class, the
field, the rule and the value. A rule is data: a kind, its bounds and
whether ``None`` is allowed. ``docs/API.md`` prints each rule's
:attr:`Rule.text`, and the tests derive bad values from the same fields.

Two choices hold for every rule: a ``bool`` is neither an integer nor a
real, and NaN and ±inf fail every real rule.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

INTEGER = "integer"
REAL = "real"
FLAG = "flag"
CHOICE = "choice"
INSTANCE = "instance"


@dataclass(frozen=True)
class Rule:
    """What one field accepts."""

    kind: str
    """:data:`INTEGER`, :data:`REAL`, :data:`FLAG`, :data:`CHOICE` or
    :data:`INSTANCE`."""

    low: float | None = None
    high: float | None = None
    """Bounds of a number rule; ``None`` leaves that side open-ended."""

    low_open: bool = False
    high_open: bool = False
    """Whether the bound itself is excluded."""

    optional: bool = False
    """Whether ``None`` is accepted."""

    choices: tuple[object, ...] = ()
    """The values a :data:`CHOICE` rule accepts (matched by type and value)."""

    types: tuple[type, ...] = ()
    """The classes an :data:`INSTANCE` rule accepts."""

    def admits(self, value: object) -> bool:
        """Whether ``value`` satisfies the rule."""
        if value is None:
            return self.optional
        kind = self.kind
        if kind == FLAG:
            return isinstance(value, bool)
        if kind == CHOICE:
            return any(
                value is option or (type(value) is type(option) and value == option)
                for option in self.choices
            )
        if kind == INSTANCE:
            return isinstance(value, self.types)
        if value is True or value is False:
            return False
        # The exact-type tests skip the slower ABC checks for int and float.
        if kind == INTEGER:
            if type(value) is not int and not isinstance(value, numbers.Integral):
                return False
        elif type(value) is not float and not isinstance(value, numbers.Real):
            return False
        elif not math.isfinite(value):
            return False
        low, high = self.low, self.high
        if low is not None and (value <= low if self.low_open else value < low):
            return False
        return high is None or (value < high if self.high_open else value <= high)

    @property
    def text(self) -> str:
        """The rule in words, as error messages and ``docs/API.md`` print it."""
        kind = self.kind
        if kind == FLAG:
            return "None, True or False" if self.optional else "True or False"
        if kind == CHOICE:
            body = "one of " + ", ".join(_choice_text(c) for c in self.choices)
        elif kind == INSTANCE:
            names = " or ".join(cls.__name__ for cls in self.types)
            body = f"{'an' if names[0] in 'AEIOUaeiou' else 'a'} {names}"
        else:
            body = "an integer" if kind == INTEGER else "a finite real"
            body += self._range_text()
        return f"None or {body}" if self.optional else body

    def _range_text(self) -> str:
        low, high = self.low, self.high
        if low is None and high is None:
            return ""
        if high is None:
            return f" {'>' if self.low_open else '>='} {low:g}"
        if low is None:
            return f" {'<' if self.high_open else '<='} {high:g}"
        left = "(" if self.low_open else "["
        right = ")" if self.high_open else "]"
        return f" in {left}{low:g}, {high:g}{right}"


def _choice_text(choice: object) -> str:
    if isinstance(choice, enum.Enum):
        return f"{type(choice).__name__}.{choice.name}"
    return repr(choice)


def integer(low: int | None = None, high: int | None = None, *, optional: bool = False) -> Rule:
    """An ``int`` (not a ``bool``) in ``[low, high]``."""
    return Rule(INTEGER, low, high, optional=optional)


def real(
    low: float | None = None,
    high: float | None = None,
    *,
    low_open: bool = False,
    high_open: bool = False,
    optional: bool = False,
) -> Rule:
    """A finite real number (not a ``bool``) between the bounds."""
    return Rule(REAL, low, high, low_open, high_open, optional)


def flag(*, optional: bool = False) -> Rule:
    """``True`` or ``False``."""
    return Rule(FLAG, optional=optional)


def choice(*choices: object, optional: bool = False) -> Rule:
    """One of ``choices``."""
    return Rule(CHOICE, optional=optional, choices=choices)


def instance(*types: type, optional: bool = False) -> Rule:
    """An instance of one of ``types``."""
    return Rule(INSTANCE, optional=optional, types=types)


def check_value(owner: str, name: str, value: object, rule: Rule, error: type[Exception]) -> None:
    """Raise ``error`` unless ``value`` satisfies ``rule``; the message
    reads ``<owner>.<name> must be <rule>, got <value!r>``."""
    if not rule.admits(value):
        raise error(f"{owner}.{name} must be {rule.text}, got {value!r}")


def check_fields(obj: object, rules: dict[str, Rule], error: type[Exception]) -> None:
    """Check every field ``rules`` names on ``obj`` (see :func:`check_value`)."""
    for name, rule in rules.items():
        value = getattr(obj, name)
        if not rule.admits(value):
            check_value(type(obj).__name__, name, value, rule, error)
