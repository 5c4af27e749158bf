"""Run manifests: provenance records binding outputs to inputs.

Every pipeline command writes exactly one manifest next to its primary
output (``<out>.manifest.json``). The manifest snapshots the effective
configuration and the SHA-256 fingerprints of all inputs and outputs.
Downstream commands re-hash their inputs and compare against the
sidecar manifest when one exists; a mismatch stops the run. Outputs are
written under a staged name (:func:`staged_name`) and moved into place
after their manifest is written, so no output appears without one.
"""

from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetRagError, FingerprintMismatchError

EPOCH = "1970-01-01T00:00:00Z"


def utc_now(deterministic: bool = False) -> str:
    if deterministic:
        return EPOCH
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def write_jsonl(path: str | Path, rows) -> None:
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path, what: str, parse) -> list:
    """Parse each non-blank line of a JSON-lines artifact with ``parse``.

    A line that is not UTF-8, invalid JSON, a line that is not an object,
    and a ``KeyError``, ``TypeError`` or ``ValueError`` raised by
    ``parse`` (a missing field or a bad value) become a
    :class:`BudgetRagError` naming ``what`` and the line number.
    """
    items = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{what} line {line_no}"
            try:
                obj = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise BudgetRagError(f"{where}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
            except json.JSONDecodeError as exc:
                raise BudgetRagError(f"{where}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise BudgetRagError(f"{where}: expected a JSON object")
            try:
                items.append(parse(obj))
            except KeyError as exc:
                raise BudgetRagError(f"{where}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise BudgetRagError(f"{where}: {exc}") from exc
    return items


def check_types(obj: dict, fields: dict[str, type]) -> None:
    """Raise ``TypeError`` unless each named field of a JSON-lines row has exactly its type (a bool is no int)."""
    for key, kind in fields.items():
        if type(obj[key]) is not kind:
            raise TypeError(f"{key!r} must be {kind.__name__}, got {obj[key]!r:.40}")


def manifest_path(artifact: str | Path) -> Path:
    return Path(f"{artifact}.manifest.json")


def staged_name(path: str | Path) -> str:
    """A hidden name in the same directory, unique to this process, under which ``path`` is
    written until :func:`write_manifest` moves it into place."""
    path = Path(path)
    return str(path.with_name(f".{path.name}.{os.getpid()}.partial"))


def validate_input(path: str | Path) -> str:
    """Hash an input file and check it against its sidecar manifest.

    Returns the fingerprint. Inputs without a sidecar manifest (e.g.
    the raw corpus) are accepted as-is.
    """
    actual = sha256_file(path)
    sidecar = manifest_path(path)
    if sidecar.exists():
        try:
            recorded = json.loads(sidecar.read_text(encoding="utf-8"))
            expected = recorded.get("outputs", {}).get(Path(path).name)
        except (AttributeError, ValueError) as exc:  # not JSON, or not an object of objects
            raise BudgetRagError(f"{sidecar}: not a run manifest: {type(exc).__name__}: {exc}") from exc
        if expected is not None and expected != actual:
            raise FingerprintMismatchError(
                f"{path} does not match its manifest fingerprint "
                f"(recorded {expected}, actual {actual}); the file was modified after it was produced"
            )
    return actual


def write_manifest(
    primary_out: str | Path,
    *,
    command: str,
    config: dict,
    inputs: dict[str, str],
    outputs: dict[str, str],
    started_at: str,
    deterministic: bool = False,
    embedder: str | None = None,
    classifier: dict | None = None,
    extra: dict | None = None,
) -> Path:
    """Write ``<primary_out>.manifest.json``, then move each output into place.

    ``outputs`` maps each final output path to the staged path it was
    written under; the manifest names the final files.
    """
    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": {Path(final).name: sha256_file(staged) for final, staged in outputs.items()},
        "embedder": embedder,
        "classifier": classifier,
        "started_at": started_at,
        "finished_at": utc_now(deterministic),
    }
    if extra:
        manifest.update(extra)
    path = manifest_path(primary_out)
    path.write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    for final, staged in outputs.items():
        os.replace(staged, final)
    return path
