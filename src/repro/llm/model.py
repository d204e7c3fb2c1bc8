"""A small LLaMA-style transformer in pure numpy, with manual backprop.

The proxy models are real trained networks — embeddings, RoPE attention,
SwiGLU FFNs, RMSNorm, tied output head — just small enough that training
runs in seconds on a CPU.  The forward pass takes the quantization hooks
the evaluation layer uses: ``weights`` overrides projection matrices,
``act_quant`` fake-quantizes GEMM inputs, ``kv_quant`` fake-quantizes each
layer's K/V tensors (the KV-cache read path), and ``capture`` records
calibration statistics.
"""

from __future__ import annotations

import numpy as np

from .config import ProxySpec

__all__ = ["Param", "ProxyModel", "LAYER_WEIGHT_KINDS"]

LAYER_WEIGHT_KINDS = [
    "attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.wg", "ffn.wu", "ffn.wd",
]

_EPS = 1e-5


class Param:
    """A trainable tensor with its gradient slot."""

    def __init__(self, data: np.ndarray):
        self.data = data.astype(np.float32)
        self.grad = np.zeros_like(self.data)


def _rmsnorm(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + _EPS)
    return x / r, r


def _rmsnorm_backward(dy: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return dy / r - x * np.sum(dy * x, axis=-1, keepdims=True) / (d * r**3)


def _rope_tables(positions: np.ndarray, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, head_dim // 2) cos/sin tables at absolute ``positions``."""
    half = head_dim // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    angles = np.asarray(positions)[:, None] * freqs[None, :]
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate (..., T, H, hd) queries/keys at the tables' T positions;
    inverse = negate ``sin``."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    c = cos[:, None, :]
    s = sin[:, None, :]
    return np.concatenate([x1 * c - x2 * s, x1 * s + x2 * c], axis=-1)


#: Fraction of heads whose keys are smeared with the previous position's
#: key.  Smearing turns induction (match-then-copy-next) into a one-layer
#: circuit, which tiny models learn reliably (Olsson et al., 2022).
SMEAR = 0.5


def _smear_heads(kh: np.ndarray) -> np.ndarray:
    """Mix k[t-1] into k[t] on the second half of the heads; (B,H,T,hd)."""
    out = kh.copy()
    sm = kh.shape[1] // 2
    out[:, sm:, 1:] = (1.0 - SMEAR) * kh[:, sm:, 1:] + SMEAR * kh[:, sm:, :-1]
    return out


def _smear_heads_backward(dks: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_smear_heads`."""
    dk = dks.copy()
    sm = dks.shape[1] // 2
    dk[:, sm:, 1:] = (1.0 - SMEAR) * dks[:, sm:, 1:]
    dk[:, sm:, :-1] += SMEAR * dks[:, sm:, 1:]
    return dk


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def _silu_grad(x: np.ndarray) -> np.ndarray:
    sig = 1.0 / (1.0 + np.exp(-x))
    return sig * (1.0 + x * (1.0 - sig))


class ProxyModel:
    """Weights + forward/backward for one proxy spec.

    The KV-cache read/write path applies fixed per-channel gains (``q``
    compensates and the inverse folds into ``wo``), an exact
    reparameterization of the network: the function is unchanged, but the
    *cached* K/V tensors carry the strong per-channel scale disparity real
    LLM caches exhibit — which is the structure entropy-aware compression
    feeds on.
    """

    #: Log-std of the fixed per-channel KV gains.
    KV_GAIN_SPREAD = 0.6

    def __init__(self, spec: ProxySpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        d, f, v = spec.d_model, spec.ffn_dim, spec.vocab_size
        scale = 0.02
        out_scale = scale / np.sqrt(2.0 * spec.num_layers)
        gain_rng = np.random.default_rng(0xECC0 + spec.num_layers)
        self.k_gain = np.exp(
            gain_rng.normal(0.0, self.KV_GAIN_SPREAD, size=(spec.num_layers, d))
        ).astype(np.float32)
        self.v_gain = np.exp(
            gain_rng.normal(0.0, self.KV_GAIN_SPREAD, size=(spec.num_layers, d))
        ).astype(np.float32)
        self.params: dict[str, Param] = {
            "embed": Param(rng.normal(0.0, scale, size=(v, d)))
        }
        for layer in range(spec.num_layers):
            p = f"layers.{layer}."
            self.params[p + "attn.wq"] = Param(rng.normal(0.0, scale, size=(d, d)))
            self.params[p + "attn.wk"] = Param(rng.normal(0.0, scale, size=(d, d)))
            self.params[p + "attn.wv"] = Param(rng.normal(0.0, scale, size=(d, d)))
            self.params[p + "attn.wo"] = Param(
                rng.normal(0.0, out_scale, size=(d, d))
            )
            self.params[p + "ffn.wg"] = Param(rng.normal(0.0, scale, size=(f, d)))
            self.params[p + "ffn.wu"] = Param(rng.normal(0.0, scale, size=(f, d)))
            self.params[p + "ffn.wd"] = Param(
                rng.normal(0.0, out_scale, size=(d, f))
            )

    @property
    def weight_names(self) -> list:
        """The quantizable projection matrices, in layer order."""
        return [
            f"layers.{layer}.{kind}"
            for layer in range(self.spec.num_layers)
            for kind in LAYER_WEIGHT_KINDS
        ]

    def _weight(self, name: str, weights: dict | None) -> np.ndarray:
        if weights is not None and name in weights:
            return weights[name]
        return self.params[name].data

    # ------------------------------------------------------------------
    # Forward (with quantization hooks) — used by evaluation/calibration.
    # ------------------------------------------------------------------
    def forward(
        self,
        tokens: np.ndarray,
        weights: dict | None = None,
        act_quant=None,
        kv_quant=None,
        capture: dict | None = None,
    ) -> np.ndarray:
        """Logits for ``tokens`` of shape (B, T)."""
        spec = self.spec
        B, T = tokens.shape
        H, hd = spec.n_heads, spec.head_dim
        aq = act_quant if act_quant is not None else (lambda x: x)
        cos, sin = _rope_tables(np.arange(T), hd)
        mask = np.triu(np.full((T, T), -np.inf, dtype=np.float32), k=1)

        x = self.params["embed"].data[tokens]
        for layer in range(spec.num_layers):
            p = f"layers.{layer}."
            xn, _ = _rmsnorm(x)
            xq = aq(xn)
            if capture is not None:
                self._record_stat(capture, p + "attn.wq", xn)
                self._record_stat(capture, p + "attn.wk", xn)
                self._record_stat(capture, p + "attn.wv", xn)
            q = xq @ self._weight(p + "attn.wq", weights).T
            k = xq @ self._weight(p + "attn.wk", weights).T
            v = xq @ self._weight(p + "attn.wv", weights).T
            q = _rope(q.reshape(B, T, H, hd), cos, sin)
            k = _rope(k.reshape(B, T, H, hd), cos, sin)
            v = v.reshape(B, T, H, hd)
            # The cache path: K/V are stored (and quantized) with the fixed
            # per-channel gains; q and the wo input compensate exactly.
            gk = self.k_gain[layer].reshape(1, 1, H, hd)
            gv = self.v_gain[layer].reshape(1, 1, H, hd)
            q = q / gk
            k = k * gk
            v = v * gv
            if capture is not None:
                capture.setdefault("kv", {})[p + "k_cache"] = k.reshape(
                    B * T, H * hd
                ).astype(np.float32)
                capture["kv"][p + "v_cache"] = v.reshape(B * T, H * hd).astype(
                    np.float32
                )
            if kv_quant is not None:
                k = kv_quant(p + "k_cache", k.reshape(B * T, H * hd)).reshape(
                    B, T, H, hd
                )
                v = kv_quant(p + "v_cache", v.reshape(B * T, H * hd)).reshape(
                    B, T, H, hd
                )
            qh = np.ascontiguousarray(q.transpose(0, 2, 1, 3))  # (B,H,T,hd)
            kh = _smear_heads(np.ascontiguousarray(k.transpose(0, 2, 1, 3)))
            vh = np.ascontiguousarray(v.transpose(0, 2, 1, 3))
            scores = (qh @ kh.transpose(0, 1, 3, 2)) / np.sqrt(hd) + mask[None, None]
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, T, H * hd)
            ctx = ctx / gv.reshape(1, 1, H * hd)
            if capture is not None:
                self._record_stat(capture, p + "attn.wo", ctx)
            x = x + aq(ctx) @ self._weight(p + "attn.wo", weights).T

            xn2, _ = _rmsnorm(x)
            if capture is not None:
                self._record_stat(capture, p + "ffn.wg", xn2)
                self._record_stat(capture, p + "ffn.wu", xn2)
            xq2 = aq(xn2)
            g = xq2 @ self._weight(p + "ffn.wg", weights).T
            u = xq2 @ self._weight(p + "ffn.wu", weights).T
            h = _silu(g) * u
            if capture is not None:
                self._record_stat(capture, p + "ffn.wd", h)
            x = x + aq(h) @ self._weight(p + "ffn.wd", weights).T

        xf, _ = _rmsnorm(x)
        return xf @ self.params["embed"].data.T

    @staticmethod
    def _record_stat(capture: dict, name: str, acts: np.ndarray) -> None:
        stats = capture.setdefault("act_sq", {})
        flat = acts.reshape(-1, acts.shape[-1])
        entry = stats.get(name)
        sq = np.sum(flat.astype(np.float64) ** 2, axis=0)
        if entry is None:
            stats[name] = [sq, flat.shape[0]]
        else:
            entry[0] += sq
            entry[1] += flat.shape[0]

    # ------------------------------------------------------------------
    # Training step: forward with saved intermediates + manual backward.
    # ------------------------------------------------------------------
    def loss_and_grads(self, batch: np.ndarray) -> float:
        """Mean next-token cross-entropy; gradients land in ``.grad``."""
        spec = self.spec
        inputs, targets = batch[:, :-1], batch[:, 1:]
        B, T = inputs.shape
        H, hd = spec.n_heads, spec.head_dim
        cos, sin = _rope_tables(np.arange(T), hd)
        neg_sin = -sin
        mask = np.triu(np.full((T, T), -np.inf, dtype=np.float32), k=1)
        E = self.params["embed"].data

        x = E[inputs]
        saved = []
        for layer in range(spec.num_layers):
            p = f"layers.{layer}."
            Wq = self.params[p + "attn.wq"].data
            Wk = self.params[p + "attn.wk"].data
            Wv = self.params[p + "attn.wv"].data
            Wo = self.params[p + "attn.wo"].data
            Wg = self.params[p + "ffn.wg"].data
            Wu = self.params[p + "ffn.wu"].data
            Wd = self.params[p + "ffn.wd"].data

            xn, r1 = _rmsnorm(x)
            q = _rope((xn @ Wq.T).reshape(B, T, H, hd), cos, sin)
            k = _rope((xn @ Wk.T).reshape(B, T, H, hd), cos, sin)
            v = (xn @ Wv.T).reshape(B, T, H, hd)
            qh = np.ascontiguousarray(q.transpose(0, 2, 1, 3))  # (B,H,T,hd)
            kh = _smear_heads(np.ascontiguousarray(k.transpose(0, 2, 1, 3)))
            vh = np.ascontiguousarray(v.transpose(0, 2, 1, 3))
            scores = (qh @ kh.transpose(0, 1, 3, 2)) / np.sqrt(hd) + mask[None, None]
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, T, H * hd)
            x_attn = x + ctx @ Wo.T

            xn2, r2 = _rmsnorm(x_attn)
            g = xn2 @ Wg.T
            u = xn2 @ Wu.T
            h = _silu(g) * u
            x_out = x_attn + h @ Wd.T
            saved.append(
                (x, xn, r1, qh, kh, vh, probs, ctx, x_attn, xn2, r2, g, u, h)
            )
            x = x_out

        xf, rf = _rmsnorm(x)
        logits = xf @ E.T

        # Softmax cross-entropy over every position.
        logits -= logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        probs_lm = exp / exp.sum(axis=-1, keepdims=True)
        n = B * T
        idx_b, idx_t = np.meshgrid(np.arange(B), np.arange(T), indexing="ij")
        nll = -np.log(probs_lm[idx_b, idx_t, targets] + 1e-12)
        loss = float(np.mean(nll))

        dlogits = probs_lm.copy()
        dlogits[idx_b, idx_t, targets] -= 1.0
        dlogits /= n

        dE = dlogits.reshape(-1, E.shape[0]).T @ xf.reshape(-1, E.shape[1])
        dxf = dlogits @ E
        dx = _rmsnorm_backward(dxf, x, rf)

        for layer in reversed(range(spec.num_layers)):
            p = f"layers.{layer}."
            (x_in, xn, r1, qh, kh, vh, probs, ctx, x_attn, xn2, r2, g, u, h) = saved[
                layer
            ]
            Wo = self.params[p + "attn.wo"].data
            Wq = self.params[p + "attn.wq"].data
            Wk = self.params[p + "attn.wk"].data
            Wv = self.params[p + "attn.wv"].data
            Wg = self.params[p + "ffn.wg"].data
            Wu = self.params[p + "ffn.wu"].data
            Wd = self.params[p + "ffn.wd"].data

            # FFN block.
            dh = dx @ Wd
            self.params[p + "ffn.wd"].grad += (
                dx.reshape(-1, dx.shape[-1]).T @ h.reshape(-1, h.shape[-1])
            )
            dg = dh * u * _silu_grad(g)
            du = dh * _silu(g)
            dxn2 = dg @ Wg + du @ Wu
            self.params[p + "ffn.wg"].grad += (
                dg.reshape(-1, dg.shape[-1]).T @ xn2.reshape(-1, xn2.shape[-1])
            )
            self.params[p + "ffn.wu"].grad += (
                du.reshape(-1, du.shape[-1]).T @ xn2.reshape(-1, xn2.shape[-1])
            )
            dx_attn = dx + _rmsnorm_backward(dxn2, x_attn, r2)

            # Attention block.
            dctx = dx_attn @ Wo
            self.params[p + "attn.wo"].grad += (
                dx_attn.reshape(-1, dx_attn.shape[-1]).T
                @ ctx.reshape(-1, ctx.shape[-1])
            )
            dctx_h = np.ascontiguousarray(
                dctx.reshape(B, T, H, hd).transpose(0, 2, 1, 3)
            )
            dprobs = dctx_h @ vh.transpose(0, 1, 3, 2)
            dv_h = probs.transpose(0, 1, 3, 2) @ dctx_h
            dscores = probs * (
                dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True)
            )
            dq_h = (dscores @ kh) / np.sqrt(hd)
            dk_h = _smear_heads_backward(
                (dscores.transpose(0, 1, 3, 2) @ qh) / np.sqrt(hd)
            )
            dq = _rope(dq_h.transpose(0, 2, 1, 3), cos, neg_sin)
            dk = _rope(dk_h.transpose(0, 2, 1, 3), cos, neg_sin)
            dv = dv_h.transpose(0, 2, 1, 3)
            dq = dq.reshape(B, T, H * hd)
            dk = dk.reshape(B, T, H * hd)
            dv = dv.reshape(B, T, H * hd)
            dxn = dq @ Wq + dk @ Wk + dv @ Wv
            flat_xn = xn.reshape(-1, xn.shape[-1])
            self.params[p + "attn.wq"].grad += (
                dq.reshape(-1, dq.shape[-1]).T @ flat_xn
            )
            self.params[p + "attn.wk"].grad += (
                dk.reshape(-1, dk.shape[-1]).T @ flat_xn
            )
            self.params[p + "attn.wv"].grad += (
                dv.reshape(-1, dv.shape[-1]).T @ flat_xn
            )
            dx = dx_attn + _rmsnorm_backward(dxn, x_in, r1)

        onehot = (
            inputs.ravel()[:, None] == np.arange(E.shape[0])[None, :]
        ).astype(np.float32)
        dE_embed = onehot.T @ dx.reshape(-1, E.shape[1])
        self.params["embed"].grad += dE + dE_embed
        return loss

    def zero_grads(self) -> None:
        for param in self.params.values():
            param.grad[...] = 0.0
