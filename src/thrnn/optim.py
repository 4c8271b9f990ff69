"""Adam with independent parameter groups.

Each group carries its own learning rate and optional gradient-norm
clip. A single shared step counter drives bias correction so that
checkpointed state can resume mid-run.

The update streams each flattened parameter through cache-sized BLOCK
slices and two scratch buffers, in the textbook order of operations, so
it is bit-identical to whole-array Adam. State loaded for a resume is
refused by array name unless each array is present, shaped and in range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

BLOCK = 1 << 14  # elements per slice: five 128 KiB streams fit in a core's L2
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the textbook Adam defaults


def _blocks(flat: np.ndarray):
    return (flat[lo:lo + BLOCK] for lo in range(0, flat.size, BLOCK))


@dataclass
class ParamGroup:
    name: str
    params: list[Tensor]
    lr: float
    clip_norm: float | None = None


@dataclass
class StepReport:
    """What one optimizer step did: applied or skipped, and the raw group norms."""

    applied: bool
    grad_norms: dict[str, float] = field(default_factory=dict)
    skipped_reason: str | None = None


class Adam:
    def __init__(self, groups: list[ParamGroup]):
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ValueError("parameter group names must be unique")
        self.groups = groups
        self.t = 0
        self._m = [[np.zeros_like(p.value) for p in g.params] for g in groups]
        self._v = [[np.zeros_like(p.value) for p in g.params] for g in groups]
        self._s1, self._s2 = np.empty(BLOCK), np.empty(BLOCK)

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g.params:
                p.zero_grad()

    def step(self) -> StepReport:
        """Apply one update. If any gradient in any group is non-finite, the
        whole step is skipped (no moment update, no counter bump)."""
        report = StepReport(applied=False)
        grads: list[tuple[list[np.ndarray], float | None]] = []  # (grads, clip scale)
        for group in self.groups:
            gs = []
            sq = 0.0
            for p in group.params:
                g = p.grad if p.grad is not None else np.zeros_like(p.value)
                sq_p = sum(float(np.sum(np.multiply(b, b, out=self._s1[:b.size])))
                           for b in _blocks(g.reshape(-1)))
                # a finite sum of squares means every entry is finite
                if not np.isfinite(sq_p) and not np.all(np.isfinite(g)):
                    report.skipped_reason = f"non-finite gradient in group {group.name!r}"
                    return report
                gs.append(g)
                sq += sq_p
            norm = float(np.sqrt(sq))
            report.grad_norms[group.name] = norm
            clipped = group.clip_norm is not None and norm > group.clip_norm
            grads.append((gs, group.clip_norm / (norm + 1e-12) if clipped else None))

        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for gi, (group, (gs, scale)) in enumerate(zip(self.groups, grads)):
            for pi, p in enumerate(group.params):
                # views: Tensor values and the moments are C-contiguous
                flat = [a.reshape(-1) for a in (p.value, gs[pi], self._m[gi][pi],
                                                self._v[gi][pi])]
                for pb, g, m, v in zip(*map(_blocks, flat)):
                    s1, s2 = self._s1[:pb.size], self._s2[:pb.size]
                    if scale is not None:
                        g = np.multiply(g, scale, out=s1)
                    m *= BETA1
                    m += np.multiply(1.0 - BETA1, g, out=s2)
                    v *= BETA2
                    v += np.multiply(np.multiply(1.0 - BETA2, g, out=s2), g, out=s2)
                    # lr * (m / b1t) / (sqrt(v / b2t) + eps)
                    np.multiply(group.lr, np.divide(m, b1t, out=s1), out=s1)
                    np.add(np.sqrt(np.divide(v, b2t, out=s2), out=s2), EPS, out=s2)
                    pb -= np.divide(s1, s2, out=s1)
        report.applied = True
        return report

    # -- checkpoint support ------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {"adam_t": np.array([float(self.t)])}
        for gi, group in enumerate(self.groups):
            for pi in range(len(group.params)):
                out[f"adam_m_{group.name}_{pi}"] = self._m[gi][pi]
                out[f"adam_v_{group.name}_{pi}"] = self._v[gi][pi]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Take back what state_arrays gave: each moment finite and shaped as its
        parameter, each second moment >= 0 and adam_t one integer >= 0."""
        def array(name: str, shape: tuple, low: float) -> np.ndarray:
            a = arrays.get(name)
            if a is None:
                raise ValueError(f"optimizer state has no array {name!r}")
            if a.shape != shape:
                raise ValueError(f"optimizer array {name!r} has shape {a.shape}, not {shape}")
            bad = ~(np.isfinite(a) & (a >= low))
            if bad.any():
                raise ValueError(f"optimizer array {name!r} holds {float(a[bad][0])!r}, not a "
                                 f"finite{' non-negative' if low == 0 else ''} number")
            return a.copy()

        t = float(array("adam_t", (1,), 0.0)[0])
        if t != int(t):
            raise ValueError(f"optimizer array 'adam_t' holds {t!r}, not an integer")
        self._m, self._v = ([[array(f"adam_{kind}_{g.name}_{pi}", p.value.shape, low)
                              for pi, p in enumerate(g.params)] for g in self.groups]
                            for kind, low in (("m", -np.inf), ("v", 0.0)))
        self.t = int(t)
