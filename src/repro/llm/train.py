"""Training (and disk caching) of the proxy model zoo.

``get_trained_model`` returns a deterministic trained proxy: the first call
trains with Adam on the synthetic corpus and stores the weights under
``.cache/model_zoo/``; later calls (and other processes) load the cached
checkpoint.  ``finetune_steps`` continues training on a task-only mixture,
the Table 4 "instruct" stand-in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ProxySpec, get_proxy_spec
from .data import SyntheticCorpus
from .model import ProxyModel

__all__ = ["TrainedModel", "get_trained_model", "train_proxy", "zoo_dir"]

_ZOO_VERSION = "v1"


def zoo_dir() -> Path:
    """The proxy-model cache directory (override with ECCO_CACHE_DIR)."""
    # Deliberate escape hatch: ECCO_CACHE_DIR relocates the model-zoo disk
    # cache (CI, read-only checkouts); it decides where weights are stored,
    # never what they contain.
    root = os.environ.get("ECCO_CACHE_DIR")  # repro: ignore[DET003] -- cache location only
    if root is None:
        base = Path(__file__).resolve()
        for parent in base.parents:
            if (parent / "pyproject.toml").exists():
                root = parent / ".cache"
                break
        else:
            root = Path.cwd() / ".cache"
    path = Path(root) / "model_zoo"
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class TrainedModel:
    """A trained proxy plus its data generator and training summary."""

    model: ProxyModel
    generator: SyntheticCorpus
    spec: ProxySpec
    final_loss: float


class _Adam:
    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, param in self.params.items():
            g = param.grad
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            update = (self.m[name] / b1c) / (
                np.sqrt(self.v[name] / b2c) + self.eps
            )
            param.data -= self.lr * update


def train_proxy(
    spec: ProxySpec,
    steps: int | None = None,
    seed: int = 0,
    task_fraction: float | None = None,
    model: ProxyModel | None = None,
    lr: float | None = None,
) -> tuple[ProxyModel, float]:
    """Train a proxy from scratch (or continue ``model``); returns the
    model and the mean loss over the final 20 steps."""
    steps = spec.train_steps if steps is None else steps
    lr = spec.learning_rate if lr is None else lr
    corpus = SyntheticCorpus()
    if task_fraction is not None:
        corpus = SyntheticCorpus(task_fraction=task_fraction)
    if model is None:
        model = ProxyModel(spec, seed=seed)
    optimizer = _Adam(model.params, lr=lr)
    window = spec.seq_len + 1

    # Pre-generate one large token pool and sample training windows from
    # it; sentence generation off the hot loop keeps training numpy-bound.
    pool_tokens = max(400_000, steps * spec.batch_size * 8)
    pool = corpus.token_stream(pool_tokens, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    recent: list[float] = []
    for step in range(steps):
        starts = rng.integers(0, pool.size - window, size=spec.batch_size)
        batch = np.stack([pool[s : s + window] for s in starts])
        model.zero_grads()
        loss = model.loss_and_grads(batch)
        # Linear warmup over the first 5% of steps.
        warmup = max(1, steps // 20)
        optimizer.lr = lr * min(1.0, (step + 1) / warmup)
        optimizer.step()
        recent.append(loss)
        if len(recent) > 20:
            recent.pop(0)
    return model, float(np.mean(recent))


def _checkpoint_path(name: str, finetune_steps: int) -> Path:
    suffix = f"-ft{finetune_steps}" if finetune_steps else ""
    return zoo_dir() / f"{name}{suffix}-{_ZOO_VERSION}.npz"


def get_trained_model(name: str, finetune_steps: int = 0) -> TrainedModel:
    """Load (or train and cache) a proxy model by name."""
    spec = get_proxy_spec(name)
    path = _checkpoint_path(name, finetune_steps)
    generator = SyntheticCorpus()
    if path.exists():
        blob = np.load(path)
        model = ProxyModel(spec, seed=0)
        for key, param in model.params.items():
            param.data = blob[key].astype(np.float32)
        return TrainedModel(
            model=model,
            generator=generator,
            spec=spec,
            final_loss=float(blob["final_loss"]),
        )

    if finetune_steps:
        # Task-heavy mixture, the fine-tuned ("instruct") variant —
        # continued from the cached base model.
        model = get_trained_model(name).model
        model, final_loss = train_proxy(
            spec, steps=finetune_steps, seed=7, task_fraction=1.0,
            model=model, lr=spec.learning_rate * 0.25,
        )
    else:
        model, final_loss = train_proxy(spec, seed=0)
    arrays = {key: param.data for key, param in model.params.items()}
    arrays["final_loss"] = np.float32(final_loss)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)
    return TrainedModel(
        model=model, generator=generator, spec=spec, final_loss=final_loss
    )
