"""Shared helpers: error types, JSON number checks, canonical serialization,
checksums, worker pool."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import multiprocessing
import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from typing import Any


class GeometryError(ValueError):
    """Domain error: an operation was asked outside its valid inputs."""


class ConfigError(ValueError):
    """A configuration value is inconsistent or unknown."""


class ValidationError(ValueError):
    """A document (scenario spec, serialized surface) fails schema validation.

    Carries the offending field path for diagnostics.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):
        return type(self), (self.path, self.message)


class _InlineExecutor(Executor):
    """Runs each task in this process, when it is submitted."""
    workers = 1

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@contextlib.contextmanager
def worker_pool(tasks: int, cap: int | None = None):
    """An executor for `tasks` independent tasks, with `workers` set to its
    worker count: a process pool of min(tasks, usable CPUs, cap) workers, or
    an inline stand-in when that is 1 or when this process is itself a pool
    worker, so that pools never nest.  A task's result does not depend on
    where it ran."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(tasks, cpus, tasks if cap is None else cap)
    if workers <= 1 or multiprocessing.parent_process() is not None:
        yield _InlineExecutor()
        return
    # spawn, not fork: numpy's BLAS threads make a forked copy unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        pool.workers = workers
        yield pool


def finite_float(value, path: str) -> float:
    """A JSON number as a finite float, else a ValidationError at `path`: a
    bool, NaN, an infinity or an integer beyond the float range is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(path, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError(
            path, "must be finite, got an integer beyond the float range") from None
    if not math.isfinite(number):
        raise ValidationError(path, f"must be finite, got {number}")
    return number


def float_repr(x: float) -> str:
    """Shortest round-trip decimal for a finite float."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value not representable: {x}")
    return repr(float(x))


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, round-trip floats.

    NaN/Inf raise ValidationError with the path of the first offender; the
    path walk runs only once json.dumps has refused the document.
    """
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        _check_finite(obj, "$")
        raise


def _check_finite(obj: Any, path: str) -> None:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValidationError(path, "NaN/Inf forbidden")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def write_text_sha256(path, text: str) -> str:
    """Write text as UTF-8 and return the SHA-256 of the bytes written."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def format_csv_cell(v: Any) -> str:
    """Canonical CSV cell: floats via shortest round-trip repr."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return float_repr(v)
    if v is None:
        return ""
    return str(v)


def write_csv(path, header: list[str], rows: list[list]) -> str:
    """Write CSV with deterministic bytes: '\\n' endings, canonical floats.

    Returns the SHA-256 of the bytes written.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_csv_cell(c) for c in row))
    return write_text_sha256(path, "\n".join(lines) + "\n")
