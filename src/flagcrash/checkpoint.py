"""Flat binary checkpoints for trained graph models.

Layout (little-endian):

    magic    4 bytes  b"FCMD"
    version  u32      currently 1
    n_arrays u64
    array, repeated n_arrays times:
        ndim  u32
        shape ndim * u64
        data  prod(shape) * f64

Arrays appear in a fixed order: for each layer (epsilon, edge_proj, w1,
w2), models concatenated teacher-then-student for distillation, then the
center vector for the one-class model.  A JSON sidecar at `<path>.json`
records the model kind and dimensions needed to rebuild the layout.
`tests/oracles.py` holds a reference reader of this format.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .gnn import GineModel, GlocalState, OcginState

MAGIC = b"FCMD"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")


def _model_arrays(model: GineModel) -> list[np.ndarray]:
    return [t.data for layer in model.layers for t in layer.tensors()]


def _write_arrays(f, arrays: list[np.ndarray]) -> None:
    f.write(_HEAD.pack(MAGIC, VERSION, len(arrays)))
    for arr in arrays:
        arr = np.asarray(arr, dtype="<f8")  # keeps 0-d shapes intact
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        f.write(arr.tobytes(order="C"))


def save_checkpoint(state: OcginState | GlocalState, path) -> None:
    path = Path(path)
    if isinstance(state, OcginState):
        meta = {
            "kind": "ocgin",
            "layers": state.model.n_layers,
            "node_dim": state.model.node_dim,
            "edge_dim": state.model.edge_dim,
            "hidden": state.model.hidden,
        }
        arrays = _model_arrays(state.model) + [state.center]
    elif isinstance(state, GlocalState):
        meta = {
            "kind": "glocalkd",
            "layers": state.teacher.n_layers,
            "node_dim": state.teacher.node_dim,
            "edge_dim": state.teacher.edge_dim,
            "hidden": state.teacher.hidden,
            "lambda": state.lam,
        }
        arrays = _model_arrays(state.teacher) + _model_arrays(state.student)
    else:
        raise DataError(f"cannot checkpoint object of type {type(state).__name__}")
    with open(path, "wb") as f:
        _write_arrays(f, arrays)
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
