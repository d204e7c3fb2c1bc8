"""Evaluation: held-out perplexity and multiple-choice accuracy."""

from __future__ import annotations

import numpy as np

from .model import ProxyModel

__all__ = ["perplexity", "multiple_choice_accuracy"]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def perplexity(
    model: ProxyModel,
    token_stream: np.ndarray,
    seq_len: int = 64,
    batch: int = 16,
    weights: dict | None = None,
    act_quant=None,
    kv_quant=None,
) -> float:
    """Sliding-window next-token perplexity of a flat token stream."""
    stream = np.asarray(token_stream, dtype=np.int64)
    window = seq_len + 1
    num_rows = stream.size // window
    rows = stream[: num_rows * window].reshape(num_rows, window)
    total_nll = 0.0
    total_tokens = 0
    for start in range(0, num_rows, batch):
        block = rows[start : start + batch]
        inputs, targets = block[:, :-1], block[:, 1:]
        logits = model.forward(
            inputs, weights=weights, act_quant=act_quant, kv_quant=kv_quant
        )
        logp = _log_softmax(logits)
        b_idx, t_idx = np.meshgrid(
            np.arange(block.shape[0]), np.arange(seq_len), indexing="ij"
        )
        total_nll += float(-logp[b_idx, t_idx, targets].sum())
        total_tokens += targets.size
    return float(np.exp(total_nll / max(total_tokens, 1)))


def _continuation_logprob(
    model: ProxyModel,
    prompt: np.ndarray,
    continuation: np.ndarray,
    **hooks,
) -> float:
    """Length-normalized log-likelihood of ``continuation`` after ``prompt``
    (the lm-eval-harness acc_norm protocol)."""
    tokens = np.concatenate([prompt, continuation])[None, :]
    logits = model.forward(tokens[:, :-1], **hooks)
    logp = _log_softmax(logits)[0]
    start = prompt.size - 1
    picks = logp[np.arange(start, start + continuation.size), continuation]
    return float(picks.mean())


def multiple_choice_accuracy(
    model: ProxyModel,
    items: list,
    weights: dict | None = None,
    act_quant=None,
    kv_quant=None,
) -> float:
    """Fraction of items whose correct choice scores highest."""
    hooks = {"weights": weights, "act_quant": act_quant, "kv_quant": kv_quant}
    correct = 0
    for item in items:
        scores = [
            _continuation_logprob(model, item.prompt, choice, **hooks)
            for choice in item.choices
        ]
        if int(np.argmax(scores)) == item.answer:
            correct += 1
    return correct / max(len(items), 1)
