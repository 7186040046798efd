"""Expression AST for query predicates and select lists.

Expressions are built by the parser (or programmatically) and evaluated
against :class:`~repro.relational.rows.Row` objects. Crowd UDF calls
(:class:`UDFCall`) are *not* evaluated here — the planner extracts them and
turns them into crowd operators; any UDF call reaching ``evaluate`` without a
binding in the environment is an error.

The special value :data:`UNKNOWN` implements the paper's feature-extraction
semantics (§2.4): a worker may answer UNKNOWN, and UNKNOWN compares equal to
every value so that it never prunes join candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.errors import ExecutionError
from repro.relational.rows import Row


class _Unknown:
    """Singleton sentinel for the paper's UNKNOWN feature value."""

    _instance: "_Unknown | None" = None

    def __new__(cls) -> "_Unknown":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False


UNKNOWN = _Unknown()
"""The UNKNOWN feature value: equal to any value in feature comparisons."""


def feature_equal(left: object, right: object) -> bool:
    """Equality with UNKNOWN wildcards (§2.4).

    UNKNOWN "is equal to any other value, so that an UNKNOWN value does not
    remove potential join candidates".
    """
    if left is UNKNOWN or right is UNKNOWN:
        return True
    return left == right


Environment = Mapping[str, Callable[..., object]]
"""Bindings from UDF name to a Python callable used during evaluation."""


class Expression:
    """Base class for all expressions."""

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        """Evaluate against a row with optional UDF bindings."""
        raise NotImplementedError

    def udf_calls(self) -> list["UDFCall"]:
        """All :class:`UDFCall` nodes in this expression subtree."""
        return []

    def references(self) -> set[str]:
        """All column names referenced by this subtree."""
        return set()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: object

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally alias-qualified (``c.img``)."""

    name: str
    qualifier: str | None = None

    @property
    def qualified(self) -> str:
        """The fully qualified column name as stored in join-output rows."""
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        if self.qualified in row.schema:
            return row[self.qualified]
        if self.name in row.schema:
            return row[self.name]
        if self.qualifier is None:
            # Unqualified reference against alias-prefixed rows: resolve by
            # suffix if unambiguous (``img`` → ``squares.img``).
            suffix = f".{self.name}"
            candidates = [name for name in row.schema.names if name.endswith(suffix)]
            if len(candidates) == 1:
                return row[candidates[0]]
            if len(candidates) > 1:
                raise ExecutionError(
                    f"column {self.name!r} is ambiguous: {candidates}"
                )
        raise ExecutionError(
            f"column {self.qualified!r} not found in row with columns "
            f"{list(row.schema.names)}"
        )

    def references(self) -> set[str]:
        return {self.qualified}

    def __str__(self) -> str:
        return self.qualified


@dataclass(frozen=True)
class UDFCall(Expression):
    """A call to a (possibly crowd-powered) UDF, e.g. ``samePerson(c.img, p.img)``.

    ``field`` carries generative-output access like ``animalInfo(img).common``.
    """

    name: str
    args: tuple[Expression, ...]
    field: str | None = None

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        env = env or {}
        if self.name not in env:
            raise ExecutionError(
                f"UDF {self.name!r} has no computer-evaluable binding; "
                "crowd UDFs must be planned into crowd operators"
            )
        values = [arg.evaluate(row, env) for arg in self.args]
        result = env[self.name](*values)
        if self.field is not None:
            if isinstance(result, Mapping):
                return result[self.field]
            return getattr(result, self.field)
        return result

    def udf_calls(self) -> list["UDFCall"]:
        nested = [call for arg in self.args for call in arg.udf_calls()]
        return [self, *nested]

    def references(self) -> set[str]:
        refs: set[str] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def __str__(self) -> str:
        args = ", ".join(str(arg) for arg in self.args)
        suffix = f".{self.field}" if self.field else ""
        return f"{self.name}({args}){suffix}"


_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: feature_equal(a, b),
    "!=": lambda a, b: not feature_equal(a, b),
    "<": lambda a, b: a < b,  # type: ignore[operator]
    "<=": lambda a, b: a <= b,  # type: ignore[operator]
    ">": lambda a, b: a > b,  # type: ignore[operator]
    ">=": lambda a, b: a >= b,  # type: ignore[operator]
}


@dataclass(frozen=True)
class Comparison(Expression):
    """A binary comparison. Equality honours UNKNOWN wildcards."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ExecutionError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        left = self.left.evaluate(row, env)
        right = self.right.evaluate(row, env)
        if self.op in ("<", "<=", ">", ">="):
            if left is UNKNOWN or right is UNKNOWN:
                # Ordered comparisons with UNKNOWN keep the candidate, in the
                # same never-prune spirit as equality (§2.4).
                return True
            if left is None or right is None:
                return False
        return _COMPARATORS[self.op](left, right)

    def udf_calls(self) -> list[UDFCall]:
        return [*self.left.udf_calls(), *self.right.udf_calls()]

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic on numeric expressions (+, -, *, /)."""

    op: str
    left: Expression
    right: Expression

    _OPS = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        left = self.left.evaluate(row, env)
        right = self.right.evaluate(row, env)
        try:
            return self._OPS[self.op](left, right)
        except TypeError as exc:
            raise ExecutionError(
                f"cannot apply {self.op!r} to {left!r} and {right!r}"
            ) from exc

    def udf_calls(self) -> list[UDFCall]:
        return [*self.left.udf_calls(), *self.right.udf_calls()]

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction. The planner issues conjunct HITs serially (§2.5)."""

    operands: tuple[Expression, ...] = field(default_factory=tuple)

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        return all(operand.evaluate(row, env) for operand in self.operands)

    def udf_calls(self) -> list[UDFCall]:
        return [call for operand in self.operands for call in operand.udf_calls()]

    def references(self) -> set[str]:
        refs: set[str] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def __str__(self) -> str:
        return " AND ".join(f"({operand})" for operand in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction. The planner issues disjunct HITs in parallel (§2.5)."""

    operands: tuple[Expression, ...] = field(default_factory=tuple)

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        return any(operand.evaluate(row, env) for operand in self.operands)

    def udf_calls(self) -> list[UDFCall]:
        return [call for operand in self.operands for call in operand.udf_calls()]

    def references(self) -> set[str]:
        refs: set[str] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def __str__(self) -> str:
        return " OR ".join(f"({operand})" for operand in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    """Negation."""

    operand: Expression

    def evaluate(self, row: Row, env: Environment | None = None) -> object:
        return not self.operand.evaluate(row, env)

    def udf_calls(self) -> list[UDFCall]:
        return self.operand.udf_calls()

    def references(self) -> set[str]:
        return self.operand.references()

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Flatten nested ANDs into a list of conjuncts (empty for None)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        flattened: list[Expression] = []
        for operand in expression.operands:
            flattened.extend(conjuncts(operand))
        return flattened
    return [expression]
