"""Trainable sentence encoder: whitespace/punctuation tokenizer, a
mean-of-embeddings + tanh projection network with a hand-derived backward
pass, Adam updates, and bit-exact checkpointing.

The architecture is deliberately the smallest trainable encoder that supports
the episodic losses in this package: every gradient can be checked against
finite differences.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

UNK = "<unk>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

DEFAULT_EMBED_DIM = 32
DEFAULT_OUTPUT_DIM = 32


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, detach punctuation as separate tokens."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Dense token -> index map with a reserved UNK entry at index 0."""

    def __init__(self, tokens: Iterable[str]):
        ordered = [UNK]
        seen = {UNK}
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                ordered.append(tok)
        self._index = {tok: i for i, tok in enumerate(ordered)}
        self.tokens = ordered

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        # sorted union keeps the index assignment independent of text order
        seen: set[str] = set()
        for text in texts:
            seen.update(tokenize(text))
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._index.get(token, 0)


@dataclass(frozen=True)
class TokenRows:
    """Ragged rows of vocabulary ids in CSR form: every row's ids in one flat
    array, and each row's length (with its offset, `starts`). An empty token
    list is stored as a lone UNK, so every count is at least 1."""

    ids: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_tokens(cls, token_lists: Sequence[Sequence[str]], vocab: Vocabulary) -> "TokenRows":
        rows = [tokens or (UNK,) for tokens in token_lists]
        counts = np.array([len(tokens) for tokens in rows], dtype=np.intp)
        ids = (vocab._index.get(t, 0) for tokens in rows for t in tokens)
        return cls(ids=np.fromiter(ids, dtype=np.intp, count=int(counts.sum())), counts=counts)

    @classmethod
    def from_texts(cls, texts: Iterable[str], vocab: Vocabulary) -> "TokenRows":
        return cls.from_tokens([tokenize(text) for text in texts], vocab)

    @classmethod
    def concat(cls, parts: Sequence["TokenRows"]) -> "TokenRows":
        return cls(
            ids=np.concatenate([p.ids for p in parts]),
            counts=np.concatenate([p.counts for p in parts]),
        )

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.counts) - self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def take(self, rows: np.ndarray) -> "TokenRows":
        """The given rows, in the given order, as one contiguous batch: one
        vectorized ragged gather."""
        counts = self.counts[rows]
        offsets = self.starts[rows] - (np.cumsum(counts) - counts)
        flat = np.repeat(offsets, counts) + np.arange(counts.sum())
        return TokenRows(ids=self.ids[flat], counts=counts)


@dataclass
class EncoderParams:
    """Learnable state: V x d_emb embedding table, d x d_emb projection, d bias.
    Gradients are held in the same shapes."""

    embedding: np.ndarray
    projection: np.ndarray
    bias: np.ndarray

    @classmethod
    def init(
        cls,
        vocab_size: int,
        embed_dim: int = DEFAULT_EMBED_DIM,
        output_dim: int = DEFAULT_OUTPUT_DIM,
        rng: np.random.Generator | None = None,
    ) -> "EncoderParams":
        rng = rng or np.random.default_rng(0)
        embedding = rng.uniform(-0.1, 0.1, size=(vocab_size, embed_dim))
        scale = 1.0 / np.sqrt(embed_dim)
        projection = rng.uniform(-scale, scale, size=(output_dim, embed_dim))
        bias = np.zeros(output_dim)
        return cls(embedding=embedding, projection=projection, bias=bias)

    @property
    def output_dim(self) -> int:
        return self.bias.shape[0]

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            embedding=self.embedding.copy(),
            projection=self.projection.copy(),
            bias=self.bias.copy(),
        )

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.embedding, self.projection, self.bias

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def with_flat(self, flat: np.ndarray) -> "EncoderParams":
        """Rebuild the same shapes from a flat vector (used by gradient checks)."""
        out = []
        offset = 0
        for a in self.arrays():
            out.append(flat[offset : offset + a.size].reshape(a.shape))
            offset += a.size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
        return EncoderParams(*[np.asarray(x, dtype=np.float64) for x in out])


@dataclass(frozen=True)
class Forward:
    """One batch's forward pass, kept for its backward: the batch's token
    rows, per-row mean embeddings (n, d_emb) and outputs (n, d)."""

    rows: TokenRows
    means: np.ndarray
    out: np.ndarray


def forward(params: EncoderParams, rows: TokenRows) -> Forward:
    """tanh(W . mean(embedding rows) + b) for every row, from one gather and
    one matmul."""
    if not len(rows):
        raise ValueError("cannot encode an empty batch")
    means = np.add.reduceat(params.embedding[rows.ids], rows.starts, axis=0) / rows.counts[:, None]
    return Forward(rows=rows, means=means, out=np.tanh(means @ params.projection.T + params.bias))


def encode_batch(
    params: EncoderParams, token_lists: Sequence[Sequence[str]], vocab: Vocabulary
) -> np.ndarray:
    """`forward` over token lists, as an (n, d) array. Empty token lists
    encode as UNK."""
    return forward(params, TokenRows.from_tokens(token_lists, vocab)).out


def encode_batch_backward(
    params: EncoderParams, fwd: Forward, upstream: np.ndarray
) -> EncoderParams:
    """Exact gradients of sum(upstream * fwd.out) w.r.t. all parameters,
    shaped like them; upstream is (n, d), one row per row of the batch.

    Uses the forward's intermediates; rows of tokens absent from the batch
    receive zero gradient.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != fwd.out.shape:
        raise ValueError(f"upstream gradient has shape {upstream.shape}, expected {fwd.out.shape}")
    counts = fwd.rows.counts
    d_pre = upstream * (1.0 - fwd.out * fwd.out)
    d_means = (d_pre @ params.projection) / counts[:, None]
    d_embedding = np.zeros_like(params.embedding)
    np.add.at(d_embedding, fwd.rows.ids, np.repeat(d_means, counts, axis=0))
    return EncoderParams(
        embedding=d_embedding, projection=d_pre.T @ fwd.means, bias=d_pre.sum(axis=0)
    )


def encode(params: EncoderParams, tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """encode_batch for a single token list: a (d,) vector."""
    return encode_batch(params, [tokens], vocab)[0]


def encode_backward(
    params: EncoderParams,
    tokens: Sequence[str],
    vocab: Vocabulary,
    upstream: np.ndarray,
) -> EncoderParams:
    """encode_batch_backward for a single token list and a (d,) upstream,
    running the forward pass first."""
    fwd = forward(params, TokenRows.from_tokens([tokens], vocab))
    return encode_batch_backward(params, fwd, np.asarray(upstream)[None])


@dataclass
class AdamState:
    """Adam moments over the three parameter arrays, plus hyperparameters."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: EncoderParams, learning_rate: float = 1e-3) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        state.m = [np.zeros_like(a) for a in params.arrays()]
        state.v = [np.zeros_like(a) for a in params.arrays()]
        return state


def optimizer_step(state: AdamState, params: EncoderParams, grads: EncoderParams) -> None:
    """One in-place Adam update with bias correction."""
    for g in grads.arrays():
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient passed to optimizer")
    state.step_count += 1
    bc1 = 1.0 - state.beta1**state.step_count
    bc2 = 1.0 - state.beta2**state.step_count
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def save_checkpoint(path: str | Path, params: EncoderParams, vocab: Vocabulary) -> None:
    """Write all matrices (shapes carried in the container) plus the
    vocabulary as a unicode array."""
    np.savez(
        path,
        embedding=params.embedding,
        projection=params.projection,
        bias=params.bias,
        vocab=np.array(vocab.tokens, dtype=str),
    )


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, Vocabulary]:
    """Read a save_checkpoint file; object arrays are refused, so loading
    never unpickles."""
    with np.load(path if str(path).endswith(".npz") else f"{path}.npz", allow_pickle=False) as data:
        params = EncoderParams(
            embedding=data["embedding"],
            projection=data["projection"],
            bias=data["bias"],
        )
        tokens = [str(t) for t in data["vocab"]]
    if tokens[0] != UNK:
        raise ValueError("corrupt checkpoint: UNK not at index 0")
    return params, Vocabulary(tokens[1:])
