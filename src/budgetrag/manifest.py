"""Run manifests: provenance records binding outputs to inputs.

Every pipeline command writes exactly one manifest next to its primary
output (``<out>.manifest.json``). The manifest snapshots the effective
configuration and the SHA-256 fingerprints of all inputs and outputs,
each keyed by its path relative to the manifest's directory, so it binds
both. Downstream commands re-hash their inputs and compare each against
every sidecar manifest of their inputs that records it, as an output or
as an input (so a ROC CSV is checked against its metrics file's
manifest, and a processed corpus against the manifest of the index built
from it); a mismatch stops the run.
JSON-lines files, the raw corpus included, are read and written by
:func:`read_jsonl` and :func:`write_jsonl` alone. Outputs are
written under a staged name (:func:`staged_name`) and moved into place
after their manifest is written, so no output appears without one.

Note text passes through these files whole, so their per-byte loops run
in C. One block size, :data:`BLOCK`, serves both the hash's reads and
the JSON-lines reader's buffer: at the default 8 KiB buffer, a line of
a 20,000-word record is rebuilt from some 20 reads. Both reader and
writer look for a ``\\u`` escape with a compiled regex, not ``in``:
CPython's two-byte substring search stops at every ``u``, while ``re``
finds the literal about three times faster.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from datetime import datetime, timezone
from pathlib import Path

from .errors import BudgetRagError, CorpusFormatError, FingerprintMismatchError

EPOCH = "1970-01-01T00:00:00Z"
_ENCODER = json.JSONEncoder(ensure_ascii=False)  # json.dumps(row, ensure_ascii=False) would build one per row
_ASCII_ENCODER = json.JSONEncoder()  # ensure_ascii: every character past "~" as \uXXXX, by a faster escaper
BLOCK = 1 << 20  # bytes per read when hashing, and the JSON-lines reader's buffer
_ESCAPE = re.compile(rb"\\u").search  # b"\\u" in line, at C speed (see the module docstring)
_ESCAPE_STR = re.compile(r"\\u").search


def utc_now(deterministic: bool = False) -> str:
    if deterministic:
        return EPOCH
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(BLOCK), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def write_jsonl(path: str | Path, rows) -> None:
    """Write one JSON object per line, non-ASCII text unescaped.

    A row is encoded with the ASCII encoder first. A line with no ``\\u`` holds no character that the two
    encoders write differently (a non-ASCII or DEL character), so it is the unescaped encoder's line too;
    any other line is encoded again without the escapes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            line = _ASCII_ENCODER.encode(row)
            if _ESCAPE_STR(line):
                line = _ENCODER.encode(row)
            fh.write(line)
            fh.write("\n")  # not line + "\n", which would copy the line


def read_jsonl(path: str | Path, what: str, parse) -> list:
    """Parse each non-blank line of a JSON-lines file with ``parse``.

    A line that is not UTF-8, invalid JSON, a line whose ``\\u`` escapes
    leave a lone surrogate (text that no UTF-8 file can hold), a line that
    is not an object, and a ``KeyError``, ``TypeError`` or ``ValueError``
    raised by ``parse`` (a missing field or a bad value) become a
    :class:`CorpusFormatError` naming the path as given, ``what`` and the
    line number.
    """

    def fault(line_no: int, message: str) -> CorpusFormatError:  # formatted only for a line that fails
        return CorpusFormatError(f"{path}: {what} line {line_no}: {message}")

    items = []
    with open(path, "rb", buffering=BLOCK) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.isspace():  # a line read from a file is never empty, so this is `not line.strip()`
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                if _ESCAPE(line):  # only an escape can decode to a lone surrogate
                    _ENCODER.encode(obj).encode("utf-8")
            except UnicodeDecodeError as exc:
                raise fault(line_no, f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
            except UnicodeEncodeError as exc:
                raise fault(line_no, "not valid Unicode: a lone surrogate escape") from exc
            except (ValueError, RecursionError) as exc:  # a number of over 4300 digits, or nesting too deep
                raise fault(line_no, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
            if not isinstance(obj, dict):
                raise fault(line_no, "expected a JSON object")
            try:
                items.append(parse(obj))
            except KeyError as exc:
                raise fault(line_no, f"missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise fault(line_no, str(exc)) from exc
    return items


def check_unique(patient_ids, what: str) -> None:
    """Raise :class:`CorpusFormatError` naming the patients that ``what`` holds more than once."""
    ordered = sorted(patient_ids)
    repeated = sorted({a for a, b in zip(ordered, ordered[1:]) if a == b})
    if repeated:
        raise CorpusFormatError(f"{what}: duplicate patients {repeated[:10]}")


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


def _recorded(sidecar: Path) -> tuple[str, dict[Path, str], dict[Path, str]]:
    """The command a sidecar manifest names, and the input and output fingerprints it records,
    each keyed by resolved path."""
    try:
        run = json.loads(sidecar.read_text(encoding="utf-8"))
        inputs, outputs = ({(sidecar.parent / key).resolve(): digest for key, digest in run.get(field, {}).items()}
                           for field in ("inputs", "outputs"))
        return run.get("command", "the command that wrote it"), inputs, outputs
    except (AttributeError, ValueError, RecursionError) as exc:  # not JSON (or too deep), or not an object of objects
        raise BudgetRagError(f"{sidecar}: not a run manifest: {type(exc).__name__}: {exc}") from exc


def validate_inputs(paths: list[str]) -> dict[str, str]:
    """Hash each input file and check it against every input's sidecar manifest that records it.

    A sidecar binds both the inputs and the outputs of the run that wrote
    its file. So a secondary output read by the same command (a ROC CSV
    next to its metrics file) is checked as well, and so is a file that
    another input was built from (the processed corpus an index was built
    from); files are matched by resolved path. Returns path ->
    fingerprint. Files that no sidecar records (e.g. the raw corpus) are
    accepted as-is.
    """
    fingerprints = {path: sha256_file(path) for path in paths}
    by_resolved = {Path(path).resolve(): path for path in paths}
    for other in paths:
        sidecar = manifest_path(other)
        if not sidecar.exists():
            continue
        command, inputs, outputs = _recorded(sidecar)
        for resolved, expected in [*outputs.items(), *inputs.items()]:
            path = by_resolved.get(resolved)
            if path is None or fingerprints[path] == expected:
                continue
            recorded = f"recorded {expected} in {sidecar}, actual {fingerprints[path]}"
            if resolved in outputs:
                raise FingerprintMismatchError(f"{path} does not match its fingerprint ({recorded}); the file "
                                               f"was modified after it was produced")
            raise FingerprintMismatchError(f"{path} differs from the file {other} was built from ({recorded}); "
                                           f"re-run {command} to rebuild {other} from it")
    return fingerprints


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

    ``inputs`` maps each input path to its fingerprint, and ``outputs``
    maps each final output path to the staged path it was written
    under. The manifest keys every file by its path relative to the
    manifest's directory, so a file next to it goes by its bare name.
    """
    path = manifest_path(primary_out)
    manifest = {
        "command": command,
        "config": config,
        "inputs": {os.path.relpath(file, path.parent): digest for file, digest in inputs.items()},
        "outputs": {os.path.relpath(final, path.parent): sha256_file(staged) for final, staged in outputs.items()},
        "embedder": embedder,
        "classifier": classifier,
        "started_at": started_at,
        "finished_at": utc_now(deterministic),
    }
    if extra:
        manifest.update(extra)
    path.write_bytes((json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode("utf-8"))  # encode, then open
    for final, staged in outputs.items():
        os.replace(staged, final)
    return path
