"""Relational substrate: schemas, rows, tables, expressions, and the catalog.

Qurk's data model is relational (§2.1); this subpackage provides the storage
and expression layers that the crowd operators are built on. It is an
in-memory engine: tables are lists of immutable rows validated against a
typed schema, and expressions form a small AST that evaluates against rows.
"""

from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    And,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    UDFCall,
)
from repro.relational.rows import Row
from repro.relational.schema import Column, ColumnType, Schema
from repro.relational.table import Table

__all__ = [
    "And",
    "BinaryOp",
    "Catalog",
    "Column",
    "ColumnRef",
    "ColumnType",
    "Comparison",
    "Expression",
    "Literal",
    "Not",
    "Or",
    "Row",
    "Schema",
    "Table",
    "UDFCall",
]
