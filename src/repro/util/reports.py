"""The shape checks every ``validate_*_report`` function shares.

A benchmark report is a JSON object with a schema tag, required
top-level keys and, mostly, a non-empty list of cells, each carrying a
sha256 hex ``digest``.  These helpers check that shape and raise
``ValueError`` naming the first violation; each validator keeps only
its own cross-field invariants.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable

_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


def check_report(
    report: object, what: str, schema: str, keys: Iterable[str]
) -> None:
    """``report`` is a ``schema``-tagged object holding every key."""
    if not isinstance(report, dict):
        raise ValueError(f"{what} report must be a JSON object")
    if report.get("schema") != schema:
        raise ValueError(
            f"{what} report schema is {report.get('schema')!r}, "
            f"expected {schema!r}"
        )
    check_keys(report, keys, f"{what} report")


def check_keys(
    block: Dict[str, object], keys: Iterable[str], where: str
) -> None:
    for key in keys:
        if key not in block:
            raise ValueError(f"{where} is missing {key!r}")


def check_section(block: object, keys: Iterable[str], where: str) -> None:
    """``block`` is an object holding every key."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be an object")
    check_keys(block, keys, where)


def check_digest(value: object, where: str) -> None:
    if not (isinstance(value, str) and _SHA256_HEX.fullmatch(value)):
        raise ValueError(f"{where} is not a sha256 hex digest")


def _label(cell: Dict[str, object]) -> str:
    return repr(cell.get("label"))


def check_cells(
    cells: object,
    keys: Iterable[str],
    what: str,
    where: str = "",
    name: Callable[[Dict[str, object]], str] = _label,
) -> None:
    """``cells`` is a non-empty list of objects, each holding every key
    and a sha256 hex ``digest``.

    ``what`` names one cell (``"latency"`` reads "latency cell 'x'"),
    ``where`` the list (default ``"<what> report"``) and ``name`` picks
    a cell's identity out of it (default: its repr'd ``label``).
    """
    where = where or f"{what} report"
    if not isinstance(cells, list) or not cells:
        raise ValueError(f"{where} has no cells")
    for cell in cells:
        if not isinstance(cell, dict):
            raise ValueError(f"{where} cells must be objects")
        check_keys(cell, keys, f"{what} cell {name(cell)}")
        check_digest(cell["digest"], f"{what} cell {name(cell)} digest")
