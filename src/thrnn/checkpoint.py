"""Self-describing binary checkpoints.

Byte layout (all integers little-endian):

    bytes 0..7    magic b"THRNCKPT"
    bytes 8..11   format version, uint32
    bytes 12..19  header length in bytes, uint64
    header        UTF-8 JSON, keys sorted, no whitespace
    payload       raw float64 little-endian C-order arrays, concatenated
                  in header order: model params first, optimizer second

The header carries the full model config, an optional metadata dict
(training progress and the like) and, for each array, its name and
shape, so a checkpoint can be rebuilt with no other inputs. Writing
the same params twice produces identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np

from .model import ModelConfig, ModelParams

MAGIC = b"THRNCKPT"
FORMAT_VERSION = 3  # 3: packed [r|z|c] GRU weights (2: nine per-gate tensors)


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_checkpoint(path: str, params: ModelParams, cfg: ModelConfig,
                    optimizer_state: dict[str, np.ndarray] | None = None,
                    meta: dict | None = None) -> None:
    named = params.named()
    param_names = sorted(named)
    opt_names = sorted(optimizer_state) if optimizer_state is not None else None
    header = {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(cfg),
        "meta": meta,
        "params": [{"name": n, "shape": list(named[n].value.shape)}
                   for n in param_names],
        "optimizer": None if opt_names is None else
                     [{"name": n, "shape": list(optimizer_state[n].shape)}
                      for n in opt_names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in param_names:
            fh.write(_array_bytes(named[n].value))
        if opt_names is not None:
            for n in opt_names:
                fh.write(_array_bytes(optimizer_state[n]))


def _read_array(fh, shape: list[int], path: str, name: str) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise ValueError(f"{path}: truncated payload at array {name!r}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def load_checkpoint(path: str) -> tuple[ModelParams, ModelConfig,
                                        dict[str, np.ndarray] | None,
                                        dict | None]:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        config = header["config"]
        unknown = sorted(set(config) - {f.name for f in dataclasses.fields(ModelConfig)})
        if unknown:
            raise ValueError(f"{path}: unknown config field {unknown[0]!r}")
        try:
            cfg = ModelConfig(**config)
        except (TypeError, ValueError) as err:
            raise ValueError(f"{path}: bad config: {err}") from err

        params = ModelParams.init(cfg, seed=0)
        named = params.named()
        listed = [rec["name"] for rec in header["params"]]
        if sorted(listed) != sorted(named):
            missing = sorted(set(named) - set(listed))
            extra = sorted(set(listed) - set(named))
            raise ValueError(f"{path}: parameter set mismatch "
                             f"(missing {missing}, unexpected {extra})")
        for rec in header["params"]:
            arr = _read_array(fh, rec["shape"], path, rec["name"])
            target = named[rec["name"]]
            if arr.shape != target.value.shape:
                raise ValueError(f"{path}: array {rec['name']!r} has shape "
                                 f"{arr.shape}, config implies {target.value.shape}")
            target.value = arr

        opt_state = None
        if header["optimizer"] is not None:
            opt_state = {rec["name"]: _read_array(fh, rec["shape"], path, rec["name"])
                         for rec in header["optimizer"]}
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after payload")
    return params, cfg, opt_state, header.get("meta")
