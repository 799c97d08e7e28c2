"""Flat binary checkpoints for trained graph models.

Layout (little-endian):

    magic    4 bytes  b"FCMD"
    version  u32      currently 1
    n_arrays u64
    array, repeated n_arrays times:
        ndim  u32
        shape ndim * u64
        data  prod(shape) * f64

Arrays appear in a fixed order: each model's parameters, per layer
(epsilon, edge_proj, w1, w2), teacher before student for distillation,
then the trailing arrays (the one-class center).  A JSON sidecar at
`<path>.json` records the model kind, the first model's dimensions (both
distillation models share them) and, for distillation, `lambda`.
`tests/oracles.py` holds a reference reader of this format.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DataError
from .gnn import GlocalState, OcginState

MAGIC = b"FCMD"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")


def save_checkpoint(state: OcginState | GlocalState, path) -> None:
    """Write every model's parameters, then the trailing arrays, to `path`,
    and the first model's dimensions to the sidecar."""
    if isinstance(state, OcginState):
        kind, models, trailing, extra = "ocgin", [state.model], [state.center], {}
    elif isinstance(state, GlocalState):
        kind, models, trailing = "glocalkd", [state.teacher, state.student], []
        extra = {"lambda": state.lam}
    else:
        raise DataError(f"cannot checkpoint object of type {type(state).__name__}")
    first = models[0]
    meta = {
        "kind": kind,
        "layers": first.n_layers,
        "node_dim": first.node_dim,
        "edge_dim": first.edge_dim,
        "hidden": first.hidden,
        **extra,
    }
    arrays = [t.data for model in models for t in model.parameters()] + trailing
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(arrays)))
        for arr in arrays:
            arr = np.asarray(arr, dtype="<f8")  # keeps 0-d shapes intact
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            f.write(arr.tobytes(order="C"))
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
