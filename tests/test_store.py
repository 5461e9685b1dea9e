"""Binary format tests: bit-exact round trips and recoverable diagnostics."""

import struct

import numpy as np
import pytest

from csitransfer import channel as ch
from csitransfer import net, store, transfer

RNG = np.random.default_rng


def random_datasets(seed=0, m=6, n_envs=2, n_pairs=7, clean=False):
    """Random datasets; with ``clean`` their clean labels are their labels,
    as clean collection makes them."""
    rng = RNG(seed)
    datasets = []
    for e in range(n_envs):
        f_up, x, y, y_clean, user_index = [], [], [], [], []
        for _ in range(n_pairs):
            f_up.append(float(rng.uniform(1e9, 3e9)))
            x.append(rng.normal(size=2 * m))
            y.append(rng.normal(size=2 * m))
            y_clean.append(rng.normal(size=2 * m))
            user_index.append(int(rng.integers(0, 25)))
        ys = np.array(y)
        datasets.append(ch.TaskDataset(
            e, "adaption", xs=np.array(x), ys=ys, y_clean=ys if clean else np.array(y_clean),
            f_up=np.array(f_up), user_index=np.array(user_index)))
    return datasets


def random_model(seed=0, provenance="meta"):
    spec = net.LayerSpec.fnn(3, (8, 5))
    params = net.init_params(spec, RNG(seed))
    params = params.like(params.flat + RNG(seed + 1).normal(size=params.flat.shape))
    return transfer.TrainedModel(params=params, provenance=provenance,
                                 config={"seed": 7, "beta": 1e-6},
                                 loss_history=[1.0, 0.5], derivative_order=4)


# ---------------------------------------------------------------------------
# dataset round trips


def test_dataset_roundtrip_bit_identical(tmp_path):
    """The file records the Δf it is given, bit for bit, and every pair's
    columns and rows."""
    path = str(tmp_path / "d.bin")
    for delta_f in (120e6, 123.456789e6):
        datasets = random_datasets(n_pairs=20)
        noise = ch.NoiseSpec(snr_db=20.0, pilot_len=64, mode="lmmse")
        store.write_dataset(path, datasets, noise, delta_f)
        blob = store.read_dataset(path)
        assert blob.m == 6 and blob.noise == noise and blob.delta_f == delta_f
        assert len(blob.datasets) == 2
        for orig, back in zip(datasets, blob.datasets):
            assert back.env_id == orig.env_id and back.role == orig.role
            for po, pb in zip(orig.pairs, back.pairs):
                assert po.f_up == pb.f_up
                assert po.user_index == pb.user_index
                assert po.x.tobytes() == pb.x.tobytes()
                assert po.y.tobytes() == pb.y.tobytes()
                assert po.y_clean.tobytes() == pb.y_clean.tobytes()


def test_dataset_write_canonical(tmp_path):
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    datasets = random_datasets(seed=3, clean=True)
    noise = ch.NoiseSpec(mode="clean")
    store.write_dataset(p1, datasets, noise, 120e6)
    store.write_dataset(p2, datasets, noise, 120e6)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_dataset_truncation_reports_lengths(tmp_path):
    path = str(tmp_path / "t.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:len(data) - 40])
    with pytest.raises(store.FormatError, match=r"expected .* bytes"):
        store.read_dataset(path)


def test_dataset_future_version_rejected(tmp_path):
    path = str(tmp_path / "v.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, 4, store.FORMAT_VERSION + 1)
    open(path, "wb").write(bytes(data))
    with pytest.raises(store.FormatError, match="version"):
        store.read_dataset(path)


def test_dataset_without_clean_block(tmp_path):
    """A clean file stores each label once, and its labels read back as its
    clean labels, one array for both; a file of another mode without the
    block has no clean labels, and is refused, naming the file and byte."""
    path = str(tmp_path / "nc.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    assert open(path, "rb").read()[37] == 0  # the header's has_clean byte
    blob = store.read_dataset(path)
    assert all(d.y_clean is d.ys for d in blob.datasets)

    datasets = random_datasets()
    for mode in ("awgn", "lmmse"):
        noisy = _per_pair_file(datasets, ch.NoiseSpec(mode=mode), 120e6, has_clean=False)
        open(path, "wb").write(noisy)
        with pytest.raises(store.FormatError,
                           match=f"^{path}: byte 37 is 0, but {mode} files store clean labels$"):
            store.read_dataset(path)

    # Format v1 also lets a clean file store the block; it reads back as stored.
    open(path, "wb").write(_per_pair_file(datasets, ch.NoiseSpec(mode="clean"), 120e6,
                                          has_clean=True))
    blob = store.read_dataset(path)
    assert np.array_equal(blob.datasets[0].y_clean, datasets[0].y_clean)


def _per_pair_file(datasets, noise, delta_f, has_clean):
    """The dataset format packed pair by pair with ``struct``, field by
    field as the module docstring lays it out."""
    m = datasets[0].xs.shape[1] // 2
    chunks = [struct.pack("<4sIIIddIBB", b"FMCD", 1, m, len(datasets), delta_f,
                          noise.snr_db, noise.pilot_len, ch.NOISE_MODES.index(noise.mode),
                          int(has_clean))]
    for d in datasets:
        chunks.append(struct.pack("<qBI", d.env_id, ch.ROLES.index(d.role), len(d)))
        for p in d.pairs:
            chunks.append(struct.pack("<dI", p.f_up, p.user_index))
            for a in (p.x, p.y, p.y_clean) if has_clean else (p.x, p.y):
                chunks.append(struct.pack(f"<{len(a)}d", *a))
    return b"".join(chunks)


@pytest.mark.parametrize("mode", ["awgn", "lmmse", "clean"])
def test_dataset_file_matches_per_pair_packing(tmp_path, mode):
    """The record-array writer produces the per-pair byte layout exactly,
    with the clean labels stored unless the noise mode is clean, and the
    reader restores every column bit for bit."""
    path = str(tmp_path / "r.bin")
    empty = ch.TaskDataset(9, "test", xs=np.empty((0, 12)), ys=np.empty((0, 12)),
                           y_clean=np.empty((0, 12)), f_up=np.empty(0),
                           user_index=np.empty(0, dtype=int))
    has_clean = mode != "clean"
    datasets = random_datasets(seed=4, clean=not has_clean) + [empty]
    noise = ch.NoiseSpec(snr_db=12.5, pilot_len=16, mode=mode)
    store.write_dataset(path, datasets, noise, 120e6)
    assert open(path, "rb").read() == _per_pair_file(datasets, noise, 120e6, has_clean)

    back = store.read_dataset(path).datasets
    assert [(d.env_id, d.role, len(d)) for d in back] == \
        [(d.env_id, d.role, len(d)) for d in datasets]
    for orig, got in zip(datasets, back):
        assert got.xs.tobytes() == orig.xs.tobytes()
        assert got.ys.tobytes() == orig.ys.tobytes()
        assert got.y_clean.tobytes() == orig.y_clean.tobytes()
        assert (got.y_clean is got.ys) == (not has_clean)
        assert got.f_up.tobytes() == orig.f_up.tobytes()
        assert np.array_equal(got.user_index, orig.user_index)
        got.xs[:1] += 1.0  # read datasets own writable arrays


@pytest.mark.parametrize("m", [0, 2 ** 26])
def test_dataset_implausible_antenna_count_rejected(tmp_path, m):
    path = str(tmp_path / "m.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    data = bytearray(open(path, "rb").read())
    struct.pack_into("<I", data, 8, m)  # header: magic[4] version:u32 m:u32
    open(path, "wb").write(bytes(data))
    with pytest.raises(store.FormatError, match=f"implausible antenna count {m}"):
        store.read_dataset(path)


def test_dataset_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "x.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    with open(path, "ab") as f:
        f.write(b"\0" * 5)
    with pytest.raises(store.FormatError, match="5 trailing bytes"):
        store.read_dataset(path)


def test_dataset_user_index_must_fit_its_field(tmp_path):
    d = random_datasets(n_envs=1, clean=True)[0]
    d.user_index[0] = -1
    with pytest.raises(ValueError, match="32-bit"):
        store.write_dataset(str(tmp_path / "u.bin"), [d], ch.NoiseSpec(mode="clean"), 120e6)


def test_dataset_sidecar_written(tmp_path):
    """The sidecar duplicates the header and the dataset counts. It has no
    ``has_clean``: every readable file has clean labels, stored or (clean
    noise) the labels themselves."""
    import json

    for mode in ("awgn", "clean"):
        path = str(tmp_path / f"{mode}.bin")
        store.write_dataset(path, random_datasets(clean=mode == "clean"),
                            ch.NoiseSpec(mode=mode), 120e6)
        meta = json.load(open(path + ".meta.json"))
        assert meta["magic"] == "FMCD" and meta["noise"]["mode"] == mode
        assert meta["datasets"][0]["n_pairs"] == 7
        assert sorted(meta) == ["datasets", "delta_f", "format", "m", "magic", "n_datasets",
                                "noise", "version"]


def test_clean_write_refuses_differing_clean_labels(tmp_path):
    """A clean file stores each label once, so clean labels that differ from
    the labels would be lost: the writer refuses them, naming the dataset."""
    datasets = random_datasets(clean=True)
    datasets[1].y_clean = datasets[1].ys.copy()  # equal, not the same array
    path = str(tmp_path / "c.bin")
    store.write_dataset(path, datasets, ch.NoiseSpec(mode="clean"), 120e6)
    datasets[1].y_clean[2, 0] += 1.0
    with pytest.raises(ValueError, match=r"^environment 1 \(adaption\): clean labels differ"):
        store.write_dataset(path, datasets, ch.NoiseSpec(mode="clean"), 120e6)


# ---------------------------------------------------------------------------
# checkpoint round trips


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    path = str(tmp_path / "c.bin")
    model = random_model()
    store.write_checkpoint(path, model)
    back = store.read_checkpoint(path)
    assert back.provenance == "meta"
    assert back.derivative_order == 4
    assert back.config == model.config  # restored through the matching sidecar
    for a, b in zip(model.params.weights, back.params.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(model.params.biases, back.params.biases):
        assert a.tobytes() == b.tobytes()


def test_checkpoint_write_canonical(tmp_path):
    p1, p2 = str(tmp_path / "a.ck"), str(tmp_path / "b.ck")
    model = random_model(seed=5)
    store.write_checkpoint(p1, model)
    store.write_checkpoint(p2, model)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_shape_payload_mismatch(tmp_path):
    path = str(tmp_path / "m.ck")
    store.write_checkpoint(path, random_model())
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-16])  # drop part of the last bias
    with pytest.raises(store.FormatError, match="truncated"):
        store.read_checkpoint(path)


def test_reading_dataset_as_checkpoint_fails_on_magic(tmp_path):
    path = str(tmp_path / "x.bin")
    store.write_dataset(path, random_datasets(clean=True), ch.NoiseSpec(mode="clean"), 120e6)
    with pytest.raises(store.FormatError, match="magic"):
        store.read_checkpoint(path)
    cpath = str(tmp_path / "x.ck")
    store.write_checkpoint(cpath, random_model())
    with pytest.raises(store.FormatError, match="magic"):
        store.read_dataset(cpath)


def test_checkpoint_digest_mismatch_drops_config(tmp_path):
    path = str(tmp_path / "d.ck")
    model = random_model()
    store.write_checkpoint(path, model)
    import json

    meta = json.load(open(path + ".meta.json"))
    meta["config"]["seed"] = 999  # sidecar tampered with
    json.dump(meta, open(path + ".meta.json", "w"))
    back = store.read_checkpoint(path)
    assert back.config is None


@pytest.mark.parametrize("sidecar", [b"{not json", b"[1, 2]", b"\xff{}"],
                         ids=["invalid-json", "not-an-object", "not-utf-8"])
def test_unreadable_sidecar_leaves_no_config(tmp_path, sidecar):
    """A sidecar that is not JSON, not a JSON object or not UTF-8 is
    ignored as a missing one is: the config is ``None`` and the binary
    header stands."""
    path = str(tmp_path / "s.ck")
    model = random_model()
    store.write_checkpoint(path, model)
    open(path + ".meta.json", "wb").write(sidecar)
    back = store.read_checkpoint(path)
    assert back.config is None
    assert (back.provenance, back.derivative_order) == (model.provenance, 4)
    assert back.params.flat.tobytes() == model.params.flat.tobytes()


def test_corrupt_activation_code(tmp_path):
    path = str(tmp_path / "a.ck")
    store.write_checkpoint(path, random_model())
    data = bytearray(open(path, "rb").read())
    # header: 4s I B I | I | sizes (4 u32) | activations (3 u8)
    act_offset = 4 + 4 + 1 + 4 + 4 + 4 * 4
    data[act_offset] = 77
    open(path, "wb").write(bytes(data))
    with pytest.raises(store.FormatError, match="activation"):
        store.read_checkpoint(path)


# header: 4s I B I | I | sizes (4 u32) | activations (3 u8) of random_model
_SIZES_OFFSET = 4 + 4 + 1 + 4 + 4
_ACTIVATIONS_OFFSET = _SIZES_OFFSET + 4 * 4


@pytest.mark.parametrize("layer, code", [(0, 1), (1, 1), (2, 0)],
                         ids=["first-hidden-linear", "second-hidden-linear", "output-relu"])
def test_checkpoint_refuses_activations_but_relu_then_linear(tmp_path, layer, code):
    """Every network is ReLU hidden layers and a linear output: another
    known activation code at any layer is a malformed file, named."""
    path = str(tmp_path / "a.ck")
    store.write_checkpoint(path, random_model())
    with open(path, "r+b") as f:
        f.seek(_ACTIVATIONS_OFFSET + layer)
        f.write(bytes([code]))
    with pytest.raises(store.FormatError,
                       match=f"^{path}: activation codes .* at byte {_ACTIVATIONS_OFFSET}, "
                             r"expected \[0, 0, 1\]"):
        store.read_checkpoint(path)


@pytest.mark.parametrize("layer, width, message", [
    (3, 5, "input and output widths must match"),
    (1, 0, "layer widths must be positive"),
], ids=["output-width-5", "hidden-width-0"])
def test_checkpoint_refuses_widths_no_network_has(tmp_path, layer, width, message):
    """Input and output widths that differ, or a zero width, make a
    malformed file, named, before its payload is read."""
    path = str(tmp_path / "w.ck")
    store.write_checkpoint(path, random_model())
    with open(path, "r+b") as f:
        f.seek(_SIZES_OFFSET + 4 * layer)
        f.write(struct.pack("<I", width))
    with pytest.raises(store.FormatError, match=f"^{path}: layer widths .*: {message}"):
        store.read_checkpoint(path)


@pytest.mark.parametrize("fmt, offset, value, message", [
    ("<I", 32, 0, "pilot length must be >= 1, got 0"),
    ("<d", 24, float("nan"), "snr_db must not be NaN or -inf, got nan"),
    ("<d", 24, float("-inf"), "snr_db must not be NaN or -inf, got -inf"),
], ids=["pilot-len-0", "snr-nan", "snr-minus-inf"])
def test_dataset_refuses_a_noise_header_no_collection_has(tmp_path, fmt, offset, value,
                                                          message):
    """A header whose SNR or pilot length no collection has is a malformed
    file, named with the header's offset."""
    path = str(tmp_path / "d.bin")
    store.write_dataset(path, random_datasets(), ch.NoiseSpec(), 120e6)
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(struct.pack(fmt, value))
    with pytest.raises(store.FormatError, match=f"^{path}: noise header at byte 24: {message}$"):
        store.read_dataset(path)
