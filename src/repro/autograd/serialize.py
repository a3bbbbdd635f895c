"""Payload files: named arrays plus JSON metadata in one ``.npz``.

:func:`save_payload` / :func:`load_payload` are the numpy-native
equivalent of ``torch.save`` for a state dict with a config record.  The
serving layer's :class:`repro.serve.snapshot.ModelSnapshot` uses them to
freeze a trained model (weights + model/sampler config) into a single
shippable artefact.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

__all__ = ["save_payload", "load_payload"]

#: reserved npz key carrying the JSON metadata blob of a payload file
_META_KEY = "__meta__"


def _npz_path(path) -> pathlib.Path:
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_payload(path, arrays: dict[str, np.ndarray], meta: dict) -> pathlib.Path:
    """Write named arrays plus a JSON-serialisable ``meta`` dict to one npz.

    ``meta`` must be JSON-encodable (tuples come back as lists); array
    dtypes and shapes round-trip exactly.  Returns the resolved path.
    """
    path = _npz_path(path)
    if _META_KEY in arrays:
        raise ValueError(f"array key {_META_KEY!r} is reserved for metadata")
    blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **{_META_KEY: blob}, **{k: np.asarray(v) for k, v in arrays.items()})
    return path


def load_payload(path) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_payload`: returns ``(arrays, meta)``.

    Applies the same ``.npz`` suffix normalisation as the save side, so
    the exact path handed to :func:`save_payload` loads back regardless
    of whether the caller kept the resolved path.
    """
    path = _npz_path(path)
    with np.load(path) as data:
        if _META_KEY not in data.files:
            raise ValueError(f"{path} is not a payload file (missing {_META_KEY!r})")
        meta = json.loads(bytes(data[_META_KEY].tobytes()).decode("utf-8"))
        arrays = {k: data[k] for k in data.files if k != _META_KEY}
    return arrays, meta
