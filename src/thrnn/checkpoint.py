"""Self-describing binary checkpoints.

Byte layout (all integers little-endian):

    bytes 0..7    magic b"THRNCKPT"
    bytes 8..11   format version, uint32
    bytes 12..19  header length in bytes, uint64
    header        UTF-8 JSON, keys sorted, no whitespace inside; trailing
                  spaces pad it so that the payload starts at a multiple
                  of 64 bytes
    payload       raw float64 little-endian C-order arrays, concatenated
                  in header order: model params first, optimizer second

The header carries the full model config, an optional metadata dict
(training progress and the like) and, for each array, its name and
shape, so a checkpoint can be rebuilt with no other inputs. Writing
the same params twice produces identical bytes.

A load checks the prefix, the header length against the file size, the
header's fields and array records (each shape a list of non-negative
integers), the config's keys (by data._require's rule) and values, the
model manifest against the config's shapes, and the file length against
both manifests, before it maps the file. The file is
mapped once, copy-on-write: each array is a writeable view of the
mapping, so predict and evaluate read weights straight from the page
cache, and an in-place update (Adam on resume) lands in private pages
and never reaches the file. An array whose view is not 8-byte aligned,
as in a file written before the header was padded, is copied instead.
The Adam moments, two thirds of a trained file, are mapped too; predict
and evaluate never read them, so their pages are never faulted in.

A save writes a temporary file beside the target and renames it over the
target (through a symlink; a target that is not a regular file is
refused), so a failed save leaves the old file as it was, and a process
still mapping the old file keeps its values. Overwriting a checkpoint in
place by other means while a process maps it is unsupported.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import mmap
import os
import struct

import numpy as np

from .data import IngestError, _json_line, _require
from .model import ModelConfig, ModelParams

MAGIC = b"THRNCKPT"
FORMAT_VERSION = 4  # 4: a config of numbers (3: time_unit, gap_bucket_*; 2: per-gate GRU)
PAYLOAD_ALIGN = 64


def save_checkpoint(path: str, params: ModelParams, cfg: ModelConfig,
                    optimizer_state: dict[str, np.ndarray] | None = None,
                    meta: dict | None = None) -> str:
    """Write the checkpoint; returns the SHA-256 hex digest of its bytes."""
    sections = [{n: t.value for n, t in params.named().items()}, optimizer_state or {}]
    params_list, opt_list = [[{"name": n, "shape": list(arrays[n].shape)} for n in sorted(arrays)]
                             for arrays in sections]
    header = {"version": FORMAT_VERSION, "config": dataclasses.asdict(cfg), "meta": meta,
              "params": params_list, "optimizer": None if optimizer_state is None else opt_list}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b" " * (-(20 + len(blob)) % PAYLOAD_ALIGN)
    digest = hashlib.sha256()
    target = os.path.realpath(path)  # through a symlink, as writing in place did
    if os.path.exists(target) and not os.path.isfile(target):
        raise ValueError(f"{path}: not a regular file, so it cannot be replaced")
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for buf in [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob] + [
                    memoryview(np.ascontiguousarray(arrays[n], dtype="<f8")).cast("B")
                    for arrays in sections for n in sorted(arrays)]:
                digest.update(buf)
                fh.write(buf)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def load_checkpoint(path: str) -> tuple[ModelParams, ModelConfig,
                                        dict[str, np.ndarray] | None, dict | None]:
    """The optimizer state is None when the file holds none."""
    with open(path, "rb") as fh:
        size, prefix = os.fstat(fh.fileno()).st_size, fh.read(20)
        if prefix[:8] != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if len(prefix) < 20:
            raise ValueError(f"{path}: truncated: {size} bytes, under the 20-byte prefix")
        version, hlen = struct.unpack("<IQ", prefix[8:])
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if hlen > size - 20:
            raise ValueError(f"{path}: truncated: a {hlen}-byte header in {size} bytes")
        header = _json_line(fh.read(hlen), path, 1)
        _require(header, ("config", "params", "optimizer"), f"{path}: header")
        config = header["config"]
        _require(config, ("num_items", "num_users"), f"{path}: field 'config'",
                 {f.name for f in dataclasses.fields(ModelConfig)})
        opt_recs = [] if header["optimizer"] is None else header["optimizer"]
        for field, recs in (("params", header["params"]), ("optimizer", opt_recs)):
            if not isinstance(recs, list):
                raise IngestError(f"{path}: field {field!r} is {recs!r:.80}, not a list")
            for k, rec in enumerate(recs):
                _require(rec, ("name", "shape"), f"{path}: {field} record {k}")
                if not isinstance(rec["name"], str):
                    raise IngestError(f"{path}: {field} record {k} has name {rec['name']!r:.80}")
                if not isinstance(rec["shape"], list) or any(
                        type(d) is not int or d < 0 for d in rec["shape"]):
                    raise ValueError(f"{path}: array {rec['name']!r} has shape {rec['shape']!r}, "
                                     "not a list of non-negative integers")
        try:
            cfg = ModelConfig(**config)  # which checks every value by field
        except ValueError as err:
            raise ValueError(f"{path}: bad config: {err}") from err

        expected = ModelParams.shapes(cfg)
        listed = [rec["name"] for rec in header["params"]]
        if sorted(listed) != sorted(expected):
            raise ValueError(f"{path}: parameter set mismatch (missing "
                             f"{sorted(set(expected) - set(listed))}, unexpected "
                             f"{sorted(set(listed) - set(expected))})")
        for rec in header["params"]:
            if tuple(rec["shape"]) != expected[rec["name"]]:
                raise ValueError(f"{path}: array {rec['name']!r} has shape {tuple(rec['shape'])}"
                                 f", config implies {expected[rec['name']]}")
        want = 20 + hlen + 8 * sum(math.prod(r["shape"]) for r in header["params"] + opt_recs)
        if size != want:
            raise ValueError(f"{path}: {'truncated' if size < want else 'trailing bytes'}: "
                             f"{size} bytes where the manifest implies {want}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)

    named, offset = [], 20 + hlen
    for rec in header["params"] + opt_recs:
        count = math.prod(rec["shape"])
        view = np.frombuffer(mapped, dtype="<f8", count=count, offset=offset).reshape(rec["shape"])
        named.append((rec["name"], view if view.flags.aligned else view.copy()))
        offset += 8 * count
    n = len(header["params"])
    opt_state = None if header["optimizer"] is None else dict(named[n:])
    return ModelParams.from_arrays(dict(named[:n])), cfg, opt_state, header.get("meta")
