#!/usr/bin/env python
"""Lint: no hard-coded ``np.int64`` index allocations in graphs/ and models/.

The dtype discipline (``repro.graphs.dtypes``) stores CSR indices, indptr
and degree arrays at the smallest safe width and *widens at boundaries*.
Casts (``np.asarray(x, dtype=np.int64)``, ``.astype(np.int64)``,
``np.fromiter(..., np.int64)``) are exactly that widening and are always
allowed.  What this lint rejects is a **fresh allocation** hard-coded to
int64 (``np.zeros/empty/full/ones/arange/array(..., dtype=np.int64)``)
inside ``src/repro/graphs`` and ``src/repro/models``: new index storage
must take its width from the ladder, not assume eight bytes per entry.

Escape hatches, because some int64 allocations are *correct*:

* a file-level allowlist below, for engine-internal modules whose int64
  arrays are packed edge keys, BFS position arithmetic, or count
  histograms — values that genuinely need 64 signed bits and are never
  stored as graph indices;
* an inline ``# int64: <reason>`` marker on the allocation's line (or the
  line above it), for one-off API-boundary allocations.

An allowlist entry naming a file that does not exist is itself a
violation, so an exemption cannot outlive its file.

Run from the repository root::

    python scripts/check_dtypes.py

Exit status 0 when clean, 1 with a listing of violations otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: Directories the dtype discipline governs.
CHECKED_DIRS = ("graphs", "models")

#: Allocation constructors that mint new arrays (casts are exempt).
ALLOC_FUNCTIONS = {"zeros", "empty", "full", "ones", "arange", "array"}

#: Inline escape-hatch marker; must carry a reason after the colon.
MARKER = "# int64:"

#: Whole files whose int64 allocations are engine-internal by design.
#: Every entry carries the reason it is exempt.
FILE_ALLOWLIST = {
    "graphs/dtypes.py": "the ladder itself — int64 is its top rung",
    "graphs/statistics.py": (
        "vectorized kernels allocate int64 position/key scratch "
        "(entry offsets, packed u*n+v probes) whose arithmetic overflows "
        "any narrower width; none of it is stored as graph indices"
    ),
    "graphs/components.py": (
        "frontier BFS allocates int64 frontiers/labels so `frontier + 1` "
        "and `owners * n` arithmetic cannot wrap at narrow widths"
    ),
    "models/rewiring.py": (
        "snapshot engines keep directed edge keys u*n+v, which need "
        "int64 whenever n exceeds ~3 billion pairs packed"
    ),
    "models/postprocess.py": (
        "orphan repair works on int64 directed-key tables and "
        "common-neighbour count buffers"
    ),
}


def _is_np_int64(node: ast.AST) -> bool:
    """Whether ``node`` is the expression ``np.int64`` / ``numpy.int64``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "int64"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _alloc_name(call: ast.Call) -> str:
    """The ``np.<name>`` being called, or '' when not an np attribute call."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return ""


def _marked(lines: list, lineno: int) -> bool:
    """Whether the 1-indexed line or the one above carries the marker."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and MARKER in lines[candidate - 1]:
            return True
    return False


def check_file(path: Path) -> list:
    """Return ``(lineno, message)`` violations for one source file."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _alloc_name(node)
        if name not in ALLOC_FUNCTIONS:
            continue
        int64_hit = any(
            _is_np_int64(kw.value)
            for kw in node.keywords
            if kw.arg == "dtype"
        ) or any(_is_np_int64(arg) for arg in node.args)
        if not int64_hit:
            continue
        if _marked(lines, node.lineno):
            continue
        violations.append((
            node.lineno,
            f"np.{name}(..., dtype=np.int64): allocate index arrays via "
            f"repro.graphs.dtypes (storage_index_dtype / "
            f"storage_dtype_for_max), or justify with '{MARKER} <reason>'",
        ))
    return violations


def main() -> int:
    failures = 0
    for relative in sorted(FILE_ALLOWLIST):
        if not (SRC / relative).is_file():
            print(f"scripts/check_dtypes.py: FILE_ALLOWLIST names "
                  f"src/repro/{relative}, which does not exist")
            failures += 1
    for directory in CHECKED_DIRS:
        for path in sorted((SRC / directory).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            if relative in FILE_ALLOWLIST:
                continue
            for lineno, message in check_file(path):
                print(f"{path.relative_to(REPO_ROOT)}:{lineno}: {message}")
                failures += 1
    if failures:
        print(
            f"\n{failures} violation(s); see scripts/check_dtypes.py for "
            f"the discipline and escape hatches."
        )
        return 1
    print("dtype discipline clean: no hard-coded int64 index allocations.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
