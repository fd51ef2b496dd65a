"""Synthetic intent corpus generator.

Builds a desk-scale JSONL dataset from per-class templates: each class owns a
discriminative noun (with synonyms), verbs are shared across classes within a
domain, and filler words are shared globally. Classes stay separable by
keyword group while surface forms vary, so lexical matching alone cannot
solve the task when synonym_rate > 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# class name -> (domain, verb, noun)
CLASS_POOL: list[tuple[str, str, str, str]] = [
    ("play_music", "media", "play", "music"),
    ("play_video", "media", "play", "movie"),
    ("start_podcast", "media", "open", "podcast"),
    ("read_book", "media", "open", "audiobook"),
    ("book_flight", "travel", "book", "flight"),
    ("order_taxi", "travel", "book", "taxi"),
    ("reserve_hotel", "travel", "reserve", "hotel"),
    ("plan_route", "travel", "find", "route"),
    ("order_pizza", "food", "order", "pizza"),
    ("reserve_table", "food", "reserve", "table"),
    ("find_recipe", "food", "find", "recipe"),
    ("order_coffee", "food", "order", "coffee"),
    ("set_alarm", "device", "set", "alarm"),
    ("start_timer", "device", "set", "timer"),
    ("dim_lights", "device", "adjust", "lights"),
    ("check_battery", "device", "check", "battery"),
    ("check_balance", "finance", "check", "balance"),
    ("send_transfer", "finance", "send", "transfer"),
    ("pay_bill", "finance", "pay", "bill"),
    ("block_card", "finance", "block", "card"),
]

# symmetric synonym groups; nouns stay unique to their class across groups
SYNONYM_GROUPS: list[tuple[str, ...]] = [
    ("music", "tunes", "songs"),
    ("movie", "film", "clip"),
    ("podcast", "broadcast", "episode"),
    ("audiobook", "novel", "story"),
    ("flight", "plane", "airfare"),
    ("taxi", "cab", "ride"),
    ("hotel", "room", "lodging"),
    ("route", "directions", "path"),
    ("pizza", "margherita", "calzone"),
    ("table", "booth", "seat"),
    ("recipe", "instructions", "dish"),
    ("coffee", "espresso", "latte"),
    ("alarm", "wakeup", "buzzer"),
    ("timer", "countdown", "stopwatch"),
    ("lights", "lamps", "bulbs"),
    ("battery", "power", "juice"),
    ("balance", "funds", "savings"),
    ("transfer", "payment", "remittance"),
    ("bill", "invoice", "dues"),
    ("card", "visa", "debit"),
    ("play", "start", "put"),
    ("open", "launch", "begin"),
    ("book", "arrange", "schedule"),
    ("reserve", "hold", "secure"),
    ("find", "locate", "lookup"),
    ("order", "buy", "request"),
    ("set", "create", "configure"),
    ("adjust", "dim", "change"),
    ("check", "verify", "view"),
    ("send", "move", "wire"),
    ("pay", "settle", "clear"),
    ("block", "freeze", "cancel"),
]

TEMPLATES: list[str] = [
    "can you {verb} the {noun}",
    "please {verb} my {noun}",
    "i want to {verb} a {noun}",
    "i need to {verb} the {noun} now",
    "could you {verb} that {noun} for me",
    "help me {verb} my {noun} please",
    "{verb} the {noun}",
    "would you {verb} a {noun} today",
]


def default_synonym_table() -> dict[str, tuple[str, ...]]:
    """Word -> sorted tuple of alternates, symmetric over each group."""
    table: dict[str, tuple[str, ...]] = {}
    for group in SYNONYM_GROUPS:
        for word in group:
            table[word] = tuple(sorted(w for w in group if w != word))
    return table


def generate_synthetic_dataset(
    path: str | Path,
    n_classes: int = 20,
    sentences_per_class: int = 30,
    synonym_rate: float = 0.5,
    seed: int = 0,
) -> Path:
    """Write a JSONL intent corpus and return its path.

    synonym_rate is the per-slot probability of replacing the canonical verb
    or noun with one of its synonyms; 0 gives a fixed-surface corpus that is
    trivially separable by token identity.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if n_classes > len(CLASS_POOL):
        raise ValueError(f"at most {len(CLASS_POOL)} classes available")
    if sentences_per_class < 1:
        raise ValueError(f"need at least 1 sentence per class, got {sentences_per_class}")
    if not 0.0 <= synonym_rate <= 1.0:
        raise ValueError("synonym_rate must be in [0, 1]")
    synonyms = default_synonym_table()
    rng = np.random.default_rng(seed)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    with open(path, "w", encoding="utf-8") as handle:
        for label, domain, verb, noun in CLASS_POOL[:n_classes]:
            for _ in range(sentences_per_class):
                template = TEMPLATES[rng.integers(len(TEMPLATES))]
                surface_verb, surface_noun = verb, noun
                if rng.random() < synonym_rate:
                    options = synonyms[verb]
                    surface_verb = options[rng.integers(len(options))]
                if rng.random() < synonym_rate:
                    options = synonyms[noun]
                    surface_noun = options[rng.integers(len(options))]
                text = template.format(verb=surface_verb, noun=surface_noun)
                record = {"text": text, "label": label, "domain": domain}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path
