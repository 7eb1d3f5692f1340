"""Deterministic CSV artifacts with versioned headers.

Every file starts with ``#``-prefixed metadata lines (schema version,
tool version, config hash, then sorted key/value pairs) followed by a
column header.  Floats are rendered with a fixed 12-digit exponent
format and files are written atomically (temp file, then rename), so a
given configuration and seed always produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from . import __version__
from .errors import NonPhysicalSpectrum
from .spectral import SpectralDensity

SPECTRAL_SCHEMA = "spectral-density csv v1"
TABLE_SCHEMA = "table csv v1"

_FLOAT_FORMAT = "{:.12e}"


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-serializable configuration mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_lines(schema: str, meta: dict) -> list[str]:
    lines = [f"# {schema}", f"# tool: balhet {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    return lines


def write_spectral_csv(path: str, sd: SpectralDensity, extra_meta: dict) -> None:
    """Serialize a spectral density as ``omega,chi_normalized[,sigma]``.

    ``extra_meta`` carries the run's ``config_hash`` and overrides the
    spectrum's own snapshot keys.
    """
    meta = {"normalization": sd.normalization}
    meta.update(sd.config_snapshot)
    meta.update(extra_meta)
    columns = {"omega": sd.omega_grid, "chi_normalized": sd.chi_normalized}
    if sd.sigma is not None:
        columns["sigma"] = sd.sigma
    _write_rows(path, _meta_lines(SPECTRAL_SCHEMA, meta), columns)


def write_table_csv(path: str, columns: dict, meta: dict | None = None) -> None:
    """Serialize named float columns of equal length with metadata header."""
    _write_rows(path, _meta_lines(TABLE_SCHEMA, meta or {}), columns)


def _write_rows(path: str, lines: list[str], columns: dict) -> None:
    """Append a header and one formatted row per index, then write.

    A column with a non-finite value is refused before anything is written.
    """
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("all columns must have the same length")
    for name, a in zip(columns, arrays):
        if not np.isfinite(a).all():
            raise NonPhysicalSpectrum(f"column {name} is not finite")
    row = ",".join([_FLOAT_FORMAT] * len(arrays))
    lines.append(",".join(columns))
    lines.extend(map(row.format, *(a.tolist() for a in arrays)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    """Serialize a JSON summary deterministically (sorted keys)."""
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2,
                                   default=str) + "\n")
