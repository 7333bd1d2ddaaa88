"""Versioned binary network container with a JSON sidecar.

Layout: 8-byte magic "ADVNET\\x00\\x01", a little-endian uint32 header
length, a JSON header (layer specs, input shape, parameter entries), then
the raw little-endian float32 parameter blobs in header order. The sidecar
`<path>.json` repeats the shapes and the total parameter count.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import BadFormatError
from .layers import LayerSpec
from .network import Network, build

_MAGIC = b"ADVNET\x00\x01"


def save_network(net: Network, path: str | Path) -> None:
    path = Path(path)
    entries = []
    blobs = []
    for i, layer in enumerate(net.params):
        for name in sorted(layer):
            arr = layer[name]
            entries.append({"layer": i, "name": name, "shape": list(arr.shape)})
            blobs.append(arr.astype("<f4").tobytes())
    header = json.dumps(
        {
            "specs": [asdict(s) for s in net.specs],
            "input_shape": list(net.input_shape),
            "params": entries,
        }
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array(len(header), dtype="<u4").tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
    sidecar = {
        "layers": [s.kind for s in net.specs],
        "activation_shapes": [list(s) for s in net.shapes],
        "parameter_count": net.parameter_count,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2))


def load_network(path: str | Path) -> Network:
    """Rebuild a saved network; a container that does not describe one
    buildable network, with exactly its parameters, raises BadFormatError."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise BadFormatError(f"{path}: not a network container")
    off = len(_MAGIC) + 4
    try:
        header_len = int.from_bytes(raw[off - 4 : off], "little")
        header = json.loads(raw[off : off + header_len])
        specs = [LayerSpec(**d) for d in header["specs"]]
        net = build(specs, tuple(header["input_shape"]), seed=0)
        entries = [(e["layer"], e["name"], tuple(e["shape"])) for e in header["params"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadFormatError(f"{path}: malformed header: {exc!r}") from exc
    expected = [(i, name, layer[name].shape) for i, layer in enumerate(net.params) for name in sorted(layer)]
    if entries != expected:
        raise BadFormatError(f"{path}: parameter entries {entries} do not match the layer specs' {expected}")
    off += header_len
    for i, name, shape in expected:
        count = int(np.prod(shape))
        blob = raw[off : off + 4 * count]
        if len(blob) != 4 * count:
            raise BadFormatError(f"{path}: truncated parameter blob")
        net.params[i][name] = np.frombuffer(blob, dtype="<f4").reshape(shape).astype(float)
        off += 4 * count
    if off != len(raw):
        raise BadFormatError(f"{path}: {len(raw) - off} bytes after the last parameter blob")
    return net
