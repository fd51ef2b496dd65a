"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed from here, around the library functions listed in
LAYERS, and removed again afterwards; the library itself carries no
tracing code. The program is single-threaded, so spans form a stack: a
span's children never overlap one another and lie inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute) pairs wrapped in a traced run. "Class.method" entries
# are patched on the class; plain functions are patched in every paraproto
# module namespace that holds them, because modules bind them with
# `from .x import f`.
LAYERS: tuple[tuple[str, str], ...] = (
    ("numerics", "softmax_over_neg_distances"),
    ("encoder", "tokenize"),
    ("encoder", "encode"),
    ("encoder", "encode_backward"),
    ("encoder", "optimizer_step"),
    ("encoder", "Vocabulary.from_texts"),
    ("data", "load_dataset"),
    ("data", "sample_episode"),
    ("data", "restrict_low_profile"),
    ("protonet", "evaluate"),
    ("protonet", "classify"),
    ("protonet", "supervised_episode_loss"),
    ("protonet", "softmax_cross_entropy_episode"),
    ("consistency", "combined_training_step"),
    ("consistency", "unsupervised_loss"),
    ("decoding", "generate_paraphrases"),
    ("decoding", "diverse_beam_search"),
    ("decoding", "SynonymBigramLM.next_logprobs"),
    ("decoding", "select_most_diverse"),
    ("decoding", "build_unigram_constraints"),
    ("decoding", "SynonymBigramLM.__init__"),
    ("metrics", "bleu"),
    ("experiment", "train_single_seed"),
    ("synth", "generate_synthetic_dataset"),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    request id, in columnar arrays kept in memory until `spans()`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.requests: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._request_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._request = array("i")
        self._stack: list[int] = []
        self._current_request = -1

    def set_request(self, request: str) -> None:
        """Tag every span opened from now on with this request id."""
        if request not in self._request_ids:
            self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        self._current_request = self._request_ids[request]

    def wrap(self, label: str, fn):
        if label not in self._name_ids:
            self._name_ids[label] = len(self.names)
            self.names.append(label)
        name_id = self._name_ids[label]
        stack, now = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._start)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._request.append(self._current_request)
            self._end.append(0.0)
            stack.append(index)
            self._start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                self._end[index] = now()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every LAYERS entry for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "paraproto" or n.startswith("paraproto.")]
        try:
            for module_name, attr in LAYERS:
                module = sys.modules[f"paraproto.{module_name}"]
                label = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(label, raw.__func__))
                    else:
                        wrapped = self.wrap(label, raw)
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(label, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def spans(self) -> "Spans":
        if self._stack:
            raise RuntimeError("spans read while a span is still open")
        return Spans(
            names=list(self.names),
            requests=list(self.requests),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int64).copy(),
            request=np.frombuffer(self._request, dtype=np.int32).copy(),
        )


@dataclass
class Spans:
    names: list[str]
    requests: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    request: np.ndarray

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            requests=np.array(self.requests, dtype=str),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            request=self.request,
        )


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children of one span never overlap each other (spans form a stack), so
    the covered part is the sum of the children's durations, each clipped to
    the parent's interval.
    """
    has_parent = parent >= 0
    p = parent[has_parent]
    covered = np.minimum(end[has_parent], end[p]) - np.maximum(start[has_parent], start[p])
    child = np.bincount(p, weights=np.clip(covered, 0.0, None), minlength=len(start))
    return (end - start) - child


@dataclass
class LayerTotals:
    calls: int
    s: float
    self_s: float


def layer_totals(spans: Spans, requests: set[str]) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive seconds and self seconds, over
    the spans tagged with one of `requests`."""
    selves = self_times(spans.start, spans.end, spans.parent)
    wanted = np.array([r in requests for r in spans.requests] + [False], dtype=bool)
    keep = wanted[spans.request]  # request -1 (untagged) maps to the False pad
    name = spans.name[keep]
    dur = (spans.end - spans.start)[keep]
    own = selves[keep]
    n = len(spans.names)
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n)
    self_total = np.bincount(name, weights=own, minlength=n)
    return {
        label: LayerTotals(int(calls[i]), float(total[i]), float(self_total[i]))
        for i, label in enumerate(spans.names)
    }
