"""Helpers shared by the plain-text artifact formats: each design artifact is a
``# frisim <kind> v1`` tag line, ``key=value`` header lines, then one record per line."""

from __future__ import annotations

from pathlib import Path


def format_float(value: float) -> str:
    """Render a float with enough digits to round-trip float64 exactly."""
    return format(float(value), ".17g")


def write_artifact(path, kind: str, header: dict, records=()) -> None:
    """Write the tag line, one ``key=value`` line per header pair, then the records."""
    lines = [f"# frisim {kind} v1", *(f"{key}={value}" for key, value in header.items())]
    Path(path).write_text("\n".join([*lines, *records]) + "\n", encoding="utf-8")


def read_artifact(path, kind: str, keys: tuple[str, ...]) -> tuple[dict[str, str], list[str]]:
    """Header values by key, and the stripped record lines in file order.

    Blank and ``#`` lines are skipped. A ``key=value`` line whose key is in
    ``keys`` is a header line, and each of ``keys`` must occur exactly once.
    """
    header: dict[str, str] = {}
    records: list[str] = []
    for line in map(str.strip, Path(path).read_text(encoding="utf-8").splitlines()):
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip() if sep else None
        if key not in keys:
            records.append(line)
        elif key in header:
            raise ValueError(f"{kind} file repeats key {key!r}")
        else:
            header[key] = value.strip()
    for key in keys:
        if key not in header:
            raise ValueError(f"{kind} file is missing key {key!r}")
    return header, records
