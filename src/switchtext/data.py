"""Corpus handling: whitespace-unigram vocabulary, encoding, batch padding
with masks and back to lengths, stratified 80/10/10 splitting,
inverse-frequency class weights, JSON-lines dataset files whose records are
checked field by field, a synthetic note generator with planted keywords,
and ``write_artifact``, the one function through which every file is written.

Tokenization lowercases and strips punctuation while preserving accents
(the corpora are French-like).  The shipped stop-word and negation lists
are illustrative, not canonical.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .layers import PAD_ID, UNK_ID

_TOKEN_CLEANER = re.compile(r"[^\w\s]", flags=re.UNICODE)

# Illustrative French stop-word and negation lists; callers may supply
# their own.
FRENCH_STOPWORDS = frozenset(
    "le la les un une des de du au aux et ou mais donc or ni car a est sont "
    "ce cette ces il elle on nous vous ils elles dans sur sous avec pour par "
    "plus tres que qui quoi dont".split()
)
NEGATION_MARKERS = frozenset({"pas", "sans", "no", "non", "aucun", "aucune"})


def tokenize(text: str, stopwords=None, merge_negations: bool = False) -> list[str]:
    """Lowercase, strip punctuation (accents preserved), split on whitespace.

    With ``merge_negations``, a negation marker fuses with the following
    token into a single ``NEG_<token>`` unigram.
    """
    tokens = _TOKEN_CLEANER.sub(" ", text.lower()).split()
    if merge_negations:
        merged, i = [], 0
        while i < len(tokens):
            if tokens[i] in NEGATION_MARKERS and i + 1 < len(tokens):
                merged.append(f"NEG_{tokens[i + 1]}")
                i += 2
            else:
                merged.append(tokens[i])
                i += 1
        tokens = merged
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


@dataclass
class Vocabulary:
    """Token ids with PAD=0 and UNK=1 reserved; bijective elsewhere.
    ``token_to_id`` is derived from ``id_to_token``."""

    id_to_token: list[str]
    merge_negations: bool = False
    stopwords: frozenset[str] | None = None
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def to_dict(self) -> dict:
        return {
            "id_to_token": self.id_to_token,
            "merge_negations": self.merge_negations,
            "stopwords": sorted(self.stopwords) if self.stopwords else None,
        }

    @staticmethod
    def from_dict(d: dict) -> "Vocabulary":
        """The inverse of ``to_dict``; a dict it cannot have written raises TypeError."""
        tokens, merge, stopwords = d["id_to_token"], d.get("merge_negations", False), d.get("stopwords")
        if not (_strings(tokens) and tokens[:2] == ["<pad>", "<unk>"] and len(set(tokens)) == len(tokens)
                and type(merge) is bool and (stopwords is None or _strings(stopwords))):
            raise TypeError("a vocabulary needs distinct string tokens from <pad>, <unk>, a bool "
                            "merge_negations, and null or a list of strings as stopwords")
        return Vocabulary(tokens, merge, frozenset(stopwords) if stopwords else None)


def _strings(value) -> bool:
    return isinstance(value, list) and all(type(t) is str for t in value)


def build_vocab(corpus, min_frequency: int = 1, stopwords=None,
                merge_negations: bool = False) -> Vocabulary:
    """Count unigrams over ``corpus`` (an iterable of texts) and keep those
    at or above ``min_frequency``; rarer tokens map to UNK.  Id assignment
    is deterministic: frequency-descending, ties alphabetical."""
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        counts.update(tokenize(text, stopwords=stopwords, merge_negations=merge_negations))
    if n_texts == 0:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_frequency),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(
        id_to_token=["<pad>", "<unk>"] + kept,
        merge_negations=merge_negations,
        stopwords=frozenset(stopwords) if stopwords else None,
    )


def encode(text: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Tokenize and map to ids (UNK for out-of-vocabulary), truncating to the
    first ``max_len`` tokens.  Empty text encodes as a single UNK, never an
    all-PAD sequence.  Batches are padded by ``pad_batch``."""
    tokens = tokenize(text, stopwords=vocab.stopwords, merge_negations=vocab.merge_negations)
    ids = [vocab.lookup(t) for t in tokens[:max_len]] or [UNK_ID]
    return np.asarray(ids, dtype=np.int64)


def decode(ids, vocab: Vocabulary) -> list[str]:
    """Inverse of encode for in-vocabulary tokens; PAD positions are dropped."""
    return [vocab.id_to_token[i] for i in np.asarray(ids) if i != PAD_ID]


def pad_batch(sequences: list[np.ndarray]):
    """Right-pad sequences with PAD to the batch maximum; returns [B, L] ids
    and a boolean mask of real positions."""
    lengths = np.array([len(s) for s in sequences])
    mask = np.arange(lengths.max()) < lengths[:, None]
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    ids[mask] = np.concatenate(sequences)
    return ids, mask


def mask_lengths(ids, pad_mask) -> np.ndarray:
    """The inverse of ``pad_batch``: the lengths of a mask shaped as the
    [batch, len] ids, each row a non-empty prefix of True, else ContractError."""
    ids, mask = np.asarray(ids), np.asarray(pad_mask, dtype=bool)
    if mask.ndim != 2 or mask.shape != ids.shape:
        raise ContractError(f"pad mask shape {mask.shape} does not match the ids {ids.shape}")
    lengths = mask.sum(axis=1)
    if not lengths.all() or (mask != (np.arange(mask.shape[1]) < lengths[:, None])).any():
        raise ContractError("each pad mask row must mark a prefix of at least one real token")
    return lengths


# ---------------------------------------------------------------------------
# labeled datasets


@dataclass
class Example:
    example_id: int
    text: str
    label: int


@dataclass
class LabeledDataset:
    examples: list[Example]

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> np.ndarray:
        return np.asarray([e.label for e in self.examples])


def read_jsonl(path) -> LabeledDataset:
    """One record per non-blank line: a JSON object with a string ``text``,
    a ``label`` that is the integer 0 or 1, and optionally an ``id``, an
    integer or a string, defaulting to the record's index.  Ids must be
    unique; any other record raises DataError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as e:
        raise DataError(f"cannot read dataset {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"dataset {path} is not UTF-8 text: {e}") from e
    examples, seen = [], set()
    for line_no, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{line_no + 1}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise DataError(f"{where}: invalid JSON record") from e
        if not isinstance(record, dict) or "text" not in record or "label" not in record:
            raise DataError(f"{where}: record needs to be a JSON object with 'text' and 'label'")
        example_id, text, label = record.get("id", len(examples)), record["text"], record["label"]
        if type(example_id) not in (int, str):
            raise DataError(f"{where}: id must be an integer or a string, got {example_id!r}")
        if example_id in seen:
            raise DataError(f"{where}: duplicate id {example_id!r}")
        if not isinstance(text, str):
            raise DataError(f"{where}: text must be a string, got {text!r}")
        if type(label) is not int or label not in (0, 1):
            raise DataError(f"{where}: label must be the integer 0 or 1, got {label!r}")
        seen.add(example_id)
        examples.append(Example(example_id=example_id, text=text, label=label))
    if not examples:
        raise DataError(f"{path}: no records found")
    return LabeledDataset(examples=examples)


def write_artifact(path, parts) -> None:
    """Replace the file at ``path`` whole with the concatenated ``parts``
    (``str`` parts UTF-8 encoded, bytes-like parts as they are).

    The parts stream into a sibling temporary file, which ``os.replace``
    then puts at ``path``: an interrupted or failing write leaves the
    previous file as it was and no temporary file behind.  An OSError
    becomes a ConfigError naming ``path``.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                if isinstance(part, str):
                    part = part.encode("utf-8")
                fh.write(part)
        os.replace(tmp, path)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def write_jsonl(path, dataset: LabeledDataset) -> None:
    write_artifact(path, (json.dumps({"id": e.example_id, "text": e.text, "label": e.label},
                                     ensure_ascii=False) + "\n" for e in dataset.examples))


# ---------------------------------------------------------------------------
# splitting and class balance


def split_dataset(dataset: LabeledDataset, seed: int = 0,
                  stratify: bool = False) -> dict[str, np.ndarray]:
    """Deterministic shuffled train/val/test assignment of example indices.

    Validation and test sizes are round(0.1 * n) each; train takes the
    remainder.  With ``stratify`` the assignment is made per label so each
    split keeps the global positive fraction within rounding."""
    rng = np.random.default_rng(seed)

    def assign(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shuffled = rng.permutation(indices)
        n_val = n_test = round(0.1 * len(indices))
        return shuffled[: len(indices) - n_val - n_test], \
            shuffled[len(indices) - n_val - n_test: len(indices) - n_test], \
            shuffled[len(indices) - n_test:]

    if stratify:
        labels = dataset.labels()
        parts = {"train": [], "val": [], "test": []}
        for value in np.unique(labels):
            tr, va, te = assign(np.nonzero(labels == value)[0])
            parts["train"].append(tr)
            parts["val"].append(va)
            parts["test"].append(te)
        splits = {k: rng.permutation(np.concatenate(v)) for k, v in parts.items()}
    else:
        tr, va, te = assign(np.arange(len(dataset)))
        splits = {"train": tr, "val": va, "test": te}
    return splits


def class_weights(labels) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (num_classes * N_c) for binary
    labels, so the weighted loss expectation is equal across classes."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=2)
    if (counts == 0).any():
        raise ConfigError(
            f"class weights need both classes present, got counts {counts.tolist()}"
        )
    return len(labels) / (2.0 * counts)


# ---------------------------------------------------------------------------
# synthetic corpus

POSITIVE_KEYWORDS = [
    "milrinone", "milri", "aorte", "aortique", "cardiomégalie", "dobutamine",
    "souffle", "ventricule", "œdème", "lasix",
]
NEGATIVE_KEYWORDS = [
    "respiratoire", "détresse", "bronchiolite", "oxygène", "ventolin",
    "pneumonie", "saturation", "toux", "wheezing", "crépitants",
]
FILLER_WORDS = [
    "patient", "admis", "pour", "examen", "jour", "soins", "suivi", "stable",
    "nuit", "dose", "traitement", "contrôle", "bilan", "radiographie",
    "perfusion", "alimentation", "poids", "température", "fréquence",
    "antibiotique", "observation", "transfert", "urgence", "consultation",
    "médicament", "voie", "orale", "tolérance", "surveillance", "évolution",
    "favorable", "parents", "pédiatrie", "prise", "sang", "glycémie",
    "résultat", "normale", "dossier", "note",
]


def generate_synthetic_corpus(n: int, positive_fraction: float = 0.36,
                              noise: float = 0.05, seed: int = 0,
                              min_tokens: int = 15, max_tokens: int = 45) -> LabeledDataset:
    """Template-generated short notes whose label is recoverable from planted
    keyword sets mixed into shared filler vocabulary.

    With probability ``noise`` a note carries the opposite class's keywords,
    so the best achievable accuracy from text alone is 1 - noise (1.0 at
    noise=0).  Deterministic per seed.
    """
    if n < 10:
        raise ConfigError(f"synthetic corpus needs n >= 10, got {n}")
    if not 0.0 < positive_fraction < 1.0:
        raise ConfigError(f"positive_fraction must be in (0, 1), got {positive_fraction}")
    if not 0.0 <= noise <= 1.0:
        raise ConfigError(f"noise must be in [0, 1], got {noise}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if min_tokens > max_tokens:
        raise ConfigError(f"min_tokens must be <= max_tokens, got {min_tokens} > {max_tokens}")
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = int(rng.random() < positive_fraction)
        keyword_class = label if rng.random() >= noise else 1 - label
        pool = POSITIVE_KEYWORDS if keyword_class == 1 else NEGATIVE_KEYWORDS
        length = int(rng.integers(min_tokens, max_tokens + 1))
        n_keywords = int(rng.integers(2, 5))
        words = list(rng.choice(FILLER_WORDS, size=max(1, length - n_keywords)))
        words += list(rng.choice(pool, size=n_keywords))
        rng.shuffle(words)
        examples.append(Example(example_id=i, text=" ".join(words), label=label))
    return LabeledDataset(examples=examples)


def keyword_label_guess(text: str) -> int:
    """Best-possible label guess from planted keywords (the generator's
    Bayes-optimal rule): 1 if positive keywords outnumber negative ones."""
    tokens = set(tokenize(text))
    pos = len(tokens & set(POSITIVE_KEYWORDS))
    neg = len(tokens & set(NEGATIVE_KEYWORDS))
    return int(pos > neg)
