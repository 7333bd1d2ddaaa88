"""Network container round trips and sidecar contents."""

import json

import numpy as np
import pytest

from advlab.errors import BadFormatError
from advlab.gradnet import (
    build,
    conv,
    dense,
    flatten,
    load_network,
    maxpool,
    relu,
    save_network,
    sigmoid,
)


def small_net(seed=0):
    return build(
        [conv(4), relu(), maxpool(), flatten(), dense(5), relu(), dense(1), sigmoid()],
        (6, 6, 1),
        seed=seed,
    )


class TestSerialize:
    def test_round_trip_preserves_structure_and_values(self, tmp_path):
        net = small_net(seed=21)
        path = tmp_path / "net.bin"
        save_network(net, path)
        back = load_network(path)
        assert [s.kind for s in back.specs] == [s.kind for s in net.specs]
        assert back.input_shape == net.input_shape
        for orig, loaded in zip(net.params, back.params):
            for name in orig:
                # storage is float32, so compare at that precision
                assert np.array_equal(orig[name].astype(np.float32), loaded[name].astype(np.float32))

    def test_round_trip_forward_close(self, tmp_path):
        net = small_net(seed=22)
        path = tmp_path / "net.bin"
        save_network(net, path)
        back = load_network(path)
        x = np.random.default_rng(1).random((6, 6, 1))
        assert abs(float(net.forward(x[None])[0]) - float(back.forward(x[None])[0])) < 1e-5

    def test_sidecar_reports_parameter_count(self, tmp_path):
        net = small_net()
        path = tmp_path / "net.bin"
        save_network(net, path)
        sidecar = json.loads((tmp_path / "net.bin.json").read_text())
        assert sidecar["parameter_count"] == net.parameter_count
        assert sidecar["layers"][0] == "conv"
        assert sidecar["activation_shapes"][0] == [6, 6, 1]

    @pytest.mark.parametrize("extra", [8, 4008])
    def test_rejects_trailing_bytes(self, tmp_path, extra):
        path = tmp_path / "net.bin"
        save_network(small_net(), path)
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(BadFormatError, match="net.bin"):
            load_network(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a network at all")
        with pytest.raises(BadFormatError):
            load_network(path)


def rewrite_header(path, edit):
    """Rewrite a saved container's JSON header through edit(header) -> bytes."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:12], "little")
    header = edit(json.loads(raw[12 : 12 + n]))
    path.write_bytes(raw[:8] + len(header).to_bytes(4, "little") + header + raw[12 + n :])


def edited(change):
    def edit(header):
        change(header)
        return json.dumps(header).encode()

    return edit


MALFORMED = {
    "non_json_header": lambda h: b"{not json",
    "missing_key": edited(lambda h: h.pop("input_shape")),
    # Containers written while convs had a padding mode carry "pad".
    "unknown_spec_field": edited(lambda h: h["specs"][0].update(pad="same")),
    "unknown_layer_kind": edited(lambda h: h["specs"][1].update(kind="gelu")),
    "layer_index_out_of_range": edited(lambda h: h["params"][0].update(layer=99)),
    "parameter_name_mismatch": edited(lambda h: h["params"][0].update(name="v")),
    # Same element count as the conv's (3, 3, 1, 4) weights, so the blobs
    # still line up and only the shape is wrong.
    "parameter_shape_mismatch": edited(lambda h: h["params"][1].update(shape=[36])),
    "zero_width_dense": edited(lambda h: h["specs"][4].update(width=0)),
    # Containers written while layers carried their geometry: the conv
    # spec as conv(4, 3) wrote it.
    "geometry_spec_fields": edited(lambda h: h["specs"][0].update(kernel_size=3, stride=1, window=None)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_header_rejected(tmp_path, case):
    path = tmp_path / "net.bin"
    save_network(small_net(), path)
    rewrite_header(path, MALFORMED[case])
    with pytest.raises(BadFormatError, match="net.bin"):
        load_network(path)
