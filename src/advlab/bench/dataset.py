"""Dataset manifests: synthetic emission to disk and validated loading."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import BadFormatError, BadLabelError, MissingFileError
from ..imagekit import read_image, read_mask, write_image, write_mask
from .synth import generate_images


@dataclass
class DatasetManifest:
    root: Path
    entries: list[dict]  # {"image": name, "label": 0|1, "roi": name}
    split: dict = field(default_factory=lambda: {"train": 0.8, "val": 0.0, "test": 0.2})
    seed: int = 0

    def path(self) -> Path:
        return self.root / "manifest.json"


def synth_dataset(
    out_dir: str | Path,
    n: int,
    size: int = 32,
    seed: int = 0,
    split: dict | None = None,
) -> DatasetManifest:
    """Generate the synthetic blob set and write it to disk.

    Emits one PGM per image, the true blob mask of every image under
    rois/, and manifest.json. Output bytes are identical for identical
    arguments.
    """
    out_dir = Path(out_dir)
    (out_dir / "rois").mkdir(parents=True, exist_ok=True)
    images, labels, rois = generate_images(n, size, seed)
    entries = []
    for i in range(n):
        img_name = f"img_{i:05d}.pgm"
        roi_name = f"rois/roi_{i:05d}.pgm"
        write_image(out_dir / img_name, images[i])
        write_mask(out_dir / roi_name, rois[i])
        entries.append({"image": img_name, "label": int(labels[i]), "roi": roi_name})
    manifest = DatasetManifest(
        root=out_dir,
        entries=entries,
        split=split or {"train": 0.8, "val": 0.0, "test": 0.2},
        seed=seed,
    )
    manifest.path().write_text(
        json.dumps(
            {"seed": manifest.seed, "split": manifest.split, "entries": entries},
            indent=1,
            sort_keys=True,
        )
    )
    return manifest


@dataclass
class LoadedDataset:
    images: np.ndarray
    labels: np.ndarray
    rois: np.ndarray | None
    split_indices: dict


def load_dataset(manifest_path: str | Path) -> LoadedDataset:
    """Read a manifest and all referenced files into memory.

    The train/val/test split is a seeded permutation sliced by the
    manifest fractions, so reloading reproduces the same partition.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingFileError(f"no manifest at {manifest_path}")
    try:
        payload = json.loads(manifest_path.read_text())
        entries = payload["entries"]
        split = payload["split"]
        seed = int(payload["seed"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise BadFormatError(f"{manifest_path}: malformed manifest ({exc})") from exc
    if not isinstance(entries, list) or not entries:
        raise BadFormatError(f"{manifest_path}: entries must be a non-empty list, got {entries!r}")
    for i, e in enumerate(entries):
        if not isinstance(e, dict) or "image" not in e:
            raise BadFormatError(f"{manifest_path}: entry {i} has no image: {e!r}")
    if not isinstance(split, dict):
        raise BadFormatError(f"{manifest_path}: split must be an object, got {split!r}")
    for key, frac in split.items():
        if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
            raise BadFormatError(f"{manifest_path}: split {key!r} must be a number in [0, 1], got {frac!r}")
    if split.get("train", 0.0) + split.get("val", 0.0) > 1.0:
        raise BadFormatError(f"{manifest_path}: split train + val exceeds 1: {split!r}")
    root = manifest_path.parent

    images, labels, rois = [], [], []
    have_rois = all("roi" in e for e in entries)
    for e in entries:
        label = e.get("label")
        if label not in (0, 1):
            raise BadLabelError(f"{e.get('image')}: label must be 0 or 1, got {label!r}")
        images.append(read_image(root / e["image"]))
        labels.append(int(label))
        if have_rois:
            rois.append(read_mask(root / e["roi"]))

    n = len(entries)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(split.get("train", 0.0) * n))
    n_val = int(round(split.get("val", 0.0) * n))
    split_indices = {
        "train": order[:n_train],
        "val": order[n_train : n_train + n_val],
        "test": order[n_train + n_val :],
    }
    return LoadedDataset(
        images=np.stack(images),
        labels=np.asarray(labels),
        rois=np.stack(rois) if have_rois else None,
        split_indices=split_indices,
    )
