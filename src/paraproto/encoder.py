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
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import numerics

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
        self.tokens = list(dict.fromkeys([UNK, *tokens]))  # first occurrences, in order
        self._index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        return cls.from_tokens(tokenize(text) for text in texts)

    @classmethod
    def from_tokens(cls, token_lists: Iterable[Sequence[str]]) -> "Vocabulary":
        # sorted union keeps the index assignment independent of text order
        return cls(sorted({tok for tokens in token_lists for tok in tokens}))

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

    @property
    def starts(self) -> np.ndarray:
        return self.counts.cumsum() - self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def take(self, rows: np.ndarray) -> "TokenRows":
        """The given rows, in the given order, as one contiguous batch: one
        vectorized ragged gather."""
        counts = self.counts[rows]
        offsets = self.starts[rows] - (counts.cumsum() - counts)
        flat = offsets.repeat(counts) + np.arange(np.add.reduce(counts))
        return TokenRows(ids=self.ids[flat], counts=counts)

    def split(self, n: int) -> list["TokenRows"]:
        """These rows in `n` consecutive parts of equal size, each over views
        of `ids` and `counts`."""
        if n < 1 or len(self) % n:
            raise ValueError(f"cannot split {len(self)} rows into {n} equal parts")
        counts = self.counts.reshape(n, -1)
        ends = np.cumsum(counts.sum(axis=1)).tolist()
        return [TokenRows(ids=self.ids[a:b], counts=c) for a, b, c in zip([0, *ends], ends, counts)]


class EncoderParams:
    """Learnable state in one contiguous float64 `vector`: a V x d_emb
    embedding table, a d x d_emb projection and a d bias are reshaped views of
    it, `dims` = (V, d_emb, d). Gradients and Adam moments share the layout."""

    def __init__(self, embedding: np.ndarray, projection: np.ndarray, bias: np.ndarray):
        """Copies the three arrays into one new vector."""
        e, p, b = (np.asarray(a) for a in (embedding, projection, bias))
        if e.ndim != 2 or b.ndim != 1 or p.shape != (len(b), e.shape[1]):
            raise ValueError(f"parameter shapes disagree: embedding {e.shape}, projection {p.shape}, bias {b.shape}")
        self._bind(np.concatenate([e.ravel(), p.ravel(), b], dtype=np.float64), (*e.shape, len(b)))

    def _bind(self, vector: np.ndarray, dims: tuple[int, int, int]) -> "EncoderParams":
        self.vector, self.dims = vector, dims
        v, e, d = dims
        self.embedding = vector[: v * e].reshape(v, e)
        self.projection = vector[v * e : (v + d) * e].reshape(d, e)
        self.bias = vector[(v + d) * e :]
        return self

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

    def copy(self) -> "EncoderParams":
        return self.with_flat(self.vector.copy())

    def with_flat(self, flat: np.ndarray) -> "EncoderParams":
        """Params of these dims whose arrays are views of `flat`, not copies."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.vector.shape:
            raise ValueError(f"flat vector has shape {flat.shape}, expected {self.vector.shape}")
        return object.__new__(EncoderParams)._bind(flat, self.dims)


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


def encode_batch_backward(
    params: EncoderParams, fwd: Forward, upstream: np.ndarray
) -> EncoderParams:
    """Exact gradients of sum(upstream * fwd.out) w.r.t. all parameters, in
    one new vector of the parameters' layout; upstream is (n, d), one row per
    row of the batch.

    Uses the forward's intermediates; rows of tokens absent from the batch
    receive zero gradient.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != fwd.out.shape:
        raise ValueError(f"upstream gradient has shape {upstream.shape}, expected {fwd.out.shape}")
    counts = fwd.rows.counts
    d_pre = upstream * (1.0 - fwd.out * fwd.out)
    d_means = (d_pre @ params.projection) / counts[:, None]
    # the embedding block summed by cell, the rest of the vector zeros
    d_rows = d_means.repeat(counts, axis=0)
    grads = params.with_flat(numerics.add_rows_at(fwd.rows.ids, d_rows, params.vector.size))
    np.matmul(d_pre.T, fwd.means, out=grads.projection)
    np.add.reduce(d_pre, axis=0, out=grads.bias)
    return grads


def encode(params: EncoderParams, tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """`forward` over a single token list, as a (d,) vector; an empty list
    encodes as UNK."""
    return forward(params, TokenRows.from_tokens([tokens], vocab)).out[0]


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


# Adam's moment decay rates and denominator term (Kingma and Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments `m` and `v`, each one vector in the parameters' layout,
    plus the learning rate, checked when built."""

    learning_rate: float = 1e-3
    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")

    @classmethod
    def for_params(cls, params: EncoderParams, learning_rate: float = 1e-3) -> "AdamState":
        zeros = np.zeros_like(params.vector)
        return cls(learning_rate=learning_rate, m=zeros, v=zeros.copy())


def optimizer_step(state: AdamState, params: EncoderParams, grads: EncoderParams) -> None:
    """One in-place Adam update with bias correction, over the whole vector."""
    g = grads.vector
    if grads.dims != params.dims or state.m.shape != g.shape:
        raise ValueError(f"gradients {grads.dims} or moments {state.m.shape} do not fit params {params.dims}")
    if not np.isfinite(g).all():
        raise ValueError("non-finite gradient passed to optimizer")
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1**state.step_count
    bc2 = 1.0 - ADAM_BETA2**state.step_count
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (g * g)
    params.vector -= state.learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPSILON)


def save_checkpoint(path: str | Path, params: EncoderParams, vocab: Vocabulary, extra: dict | None = None) -> None:
    """Write all matrices (shapes carried in the container) plus the
    vocabulary and each opaque `extra` string or string list as unicode arrays."""
    np.savez(
        path,
        embedding=params.embedding,
        projection=params.projection,
        bias=params.bias,
        vocab=np.array(vocab.tokens, dtype=str),
        **{name: np.array(value, dtype=str) for name, value in (extra or {}).items()},
    )


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, Vocabulary, dict[str, str | list[str]]]:
    """Read a save_checkpoint file, with its extra fields as strings or
    string lists; object arrays are refused, so loading never unpickles."""
    with np.load(path if str(path).endswith(".npz") else f"{path}.npz", allow_pickle=False) as data:
        params = EncoderParams(data["embedding"], data["projection"], data["bias"])
        tokens = [str(t) for t in data["vocab"]]
        extra = {k: data[k].tolist() for k in data.files if k not in ("embedding", "projection", "bias", "vocab")}
    if not tokens or tokens[0] != UNK:
        raise ValueError("corrupt checkpoint: UNK not at index 0")
    vocab = Vocabulary(tokens[1:])
    if params.dims[0] != len(vocab):
        raise ValueError(f"corrupt checkpoint: embedding has {params.dims[0]} rows, vocabulary has {len(vocab)} tokens")
    return params, vocab, extra
