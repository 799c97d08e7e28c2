import numpy as np
import pytest

from flagcrash.checkpoint import save_checkpoint
from flagcrash.errors import DataError
from flagcrash.gnn import (
    GlocalConfig,
    OcginConfig,
    attribute_graphs,
    glocalkd_scores,
    glocalkd_train,
    ocgin_scores,
    ocgin_train,
)

from oracles import load_checkpoint, model_checksum, random_graph_sequence


@pytest.fixture(scope="module")
def graphs():
    return attribute_graphs(random_graph_sequence(77, 10, 6))


def test_ocgin_checkpoint_roundtrip(graphs, tmp_path):
    state = ocgin_train(
        graphs, OcginConfig(lr=0.003, batch_size=8, layers=2, hidden=4, epochs=5)
    )
    path = tmp_path / "model.bin"
    save_checkpoint(state, path)
    assert path.exists() and (tmp_path / "model.bin.json").exists()
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.center, state.center)
    for a, b in zip(loaded.model.parameters(), state.model.parameters()):
        assert np.array_equal(a.data, b.data)
    np.testing.assert_array_equal(
        ocgin_scores(loaded, graphs), ocgin_scores(state, graphs)
    )


def test_glocal_checkpoint_roundtrip(graphs, tmp_path):
    state = glocalkd_train(
        graphs,
        GlocalConfig(lr=0.003, batch_size=8, layers=2, hidden=4, lam=0.5, epochs=5),
    )
    path = tmp_path / "kd.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.lam == state.lam
    assert model_checksum(loaded.teacher) == model_checksum(state.teacher)
    assert not loaded.teacher.parameters()[0].requires_grad
    np.testing.assert_array_equal(
        glocalkd_scores(loaded, graphs), glocalkd_scores(state, graphs)
    )


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"WHAT" + b"\x00" * 12)
    (tmp_path / "junk.bin.json").write_text('{"kind": "ocgin", "layers": 1}')
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_missing_sidecar_rejected(tmp_path):
    path = tmp_path / "orphan.bin"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="sidecar"):
        load_checkpoint(path)
