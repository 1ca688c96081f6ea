"""Data pipeline tests: vocabulary thresholds and determinism, encode and
padding semantics, split arithmetic, class weights, the synthetic corpus,
and JSON-lines round trips."""

import json

import numpy as np
import pytest

from switchtext.data import (FRENCH_STOPWORDS, LabeledDataset, Example,
                             build_vocab, class_weights, decode, encode,
                             generate_synthetic_corpus, keyword_label_guess,
                             pad_batch, read_jsonl, split_dataset, tokenize,
                             write_jsonl)
from switchtext.errors import ConfigError, DataError
from switchtext.layers import PAD_ID, UNK_ID


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Souffle 3/6, très FAIBLE!") == ["souffle", "3", "6", "très", "faible"]

    def test_accents_preserved(self):
        assert tokenize("détresse respiratoire œdème") == ["détresse", "respiratoire", "œdème"]

    def test_negation_merge(self):
        assert tokenize("pas de souffle", merge_negations=True) == ["NEG_de", "souffle"]
        assert tokenize("sans fièvre stable", merge_negations=True) == ["NEG_fièvre", "stable"]

    def test_stopword_filtering(self):
        out = tokenize("le patient est stable", stopwords=FRENCH_STOPWORDS)
        assert out == ["patient", "stable"]


class TestVocabulary:
    def test_basic_build(self):
        vocab = build_vocab(["a b", "b c"], min_frequency=1)
        assert len(vocab) == 5  # PAD, UNK, a, b, c
        assert vocab.id_to_token[:2] == ["<pad>", "<unk>"]
        assert vocab.lookup("b") != UNK_ID

    def test_min_frequency_threshold(self):
        vocab = build_vocab(["a b", "b c"], min_frequency=2)
        assert len(vocab) == 3  # PAD, UNK, b
        assert vocab.lookup("a") == UNK_ID
        assert vocab.lookup("c") == UNK_ID
        assert vocab.lookup("b") == 2

    def test_deterministic_assignment(self):
        corpus = ["c a b a", "b a d"]
        v1 = build_vocab(corpus)
        v2 = build_vocab(list(corpus))
        assert v1.id_to_token == v2.id_to_token
        # frequency-descending, ties alphabetical
        assert v1.id_to_token[2] == "a"
        assert v1.id_to_token[3] == "b"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab([])

    def test_roundtrip_dict(self):
        vocab = build_vocab(["a b c"], min_frequency=1, merge_negations=True)
        from switchtext.data import Vocabulary

        assert set(vocab.to_dict()) == {"id_to_token", "merge_negations", "stopwords"}
        clone = Vocabulary.from_dict(vocab.to_dict())
        assert clone.id_to_token == vocab.id_to_token
        assert clone.token_to_id == {t: i for i, t in enumerate(vocab.id_to_token)}
        assert clone.merge_negations is True


class TestEncode:
    def setup_method(self):
        self.vocab = build_vocab(["un deux trois quatre"], min_frequency=1)

    def test_empty_text_single_unk(self):
        ids = encode("", self.vocab, max_len=8)
        np.testing.assert_array_equal(ids, [UNK_ID])

    def test_head_truncation(self):
        text = " ".join(["deux"] * 300)
        ids = encode(text, self.vocab, max_len=256)
        assert len(ids) == 256
        assert (ids == self.vocab.lookup("deux")).all()

    def test_roundtrip_in_vocab_tokens(self):
        text = "trois un quatre deux"
        ids = encode(text, self.vocab, max_len=16)
        assert decode(ids, self.vocab) == ["trois", "un", "quatre", "deux"]

    def test_oov_maps_to_unk(self):
        ids = encode("un cinq", self.vocab, max_len=8)
        assert ids[1] == UNK_ID

    def test_pad_batch(self):
        a = encode("un", self.vocab, 8)
        b = encode("un deux trois", self.vocab, 8)
        ids, mask = pad_batch([a, b])
        assert ids.shape == (2, 3)
        np.testing.assert_array_equal(ids[0, 1:], [PAD_ID] * 2)
        np.testing.assert_array_equal(mask, [[True, False, False], [True, True, True]])
        assert mask.any(axis=1).all()

    def test_ids_always_below_vocab_size(self):
        for text in ("", "zz yy xx", "un deux zz"):
            ids = encode(text, self.vocab, max_len=8)
            assert ids.max() < len(self.vocab)
            assert len(ids) >= 1


def labeled(labels) -> LabeledDataset:
    return LabeledDataset([Example(example_id=i, text="", label=int(y)) for i, y in enumerate(labels)])


class TestSplit:
    def test_corpus_scale_sizes(self):
        splits = split_dataset(labeled(np.zeros(5444)), seed=1)
        assert len(splits["val"]) == 544 and len(splits["test"]) == 544
        assert len(splits["train"]) == 4356

    def test_partition_property(self):
        splits = split_dataset(labeled(np.zeros(1003)), seed=2)
        merged = np.concatenate([splits["train"], splits["val"], splits["test"]])
        assert len(merged) == 1003
        assert len(np.unique(merged)) == 1003

    def test_stratified_keeps_label_ratio(self):
        labels = np.array([1] * 1941 + [0] * 3503)
        splits = split_dataset(labeled(labels), seed=3, stratify=True)
        for name, idx in splits.items():
            frac = labels[idx].mean()
            assert 0.34 <= frac <= 0.38, f"{name} positive fraction {frac}"
            assert abs(len(idx) - {"train": 4356, "val": 544, "test": 544}[name]) <= 1

    def test_same_seed_identical(self):
        a = split_dataset(labeled(np.zeros(500)), seed=9)
        b = split_dataset(labeled(np.zeros(500)), seed=9)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])


class TestClassWeights:
    def test_balanced(self):
        np.testing.assert_array_equal(class_weights([0, 1, 0, 1]), [1.0, 1.0])

    def test_corpus_scale_counts(self):
        labels = np.array([1] * 1941 + [0] * 3503)
        w = class_weights(labels)
        np.testing.assert_allclose(w, [0.777, 1.402], atol=1e-3)

    def test_duplication_invariance(self):
        labels = np.array([0, 0, 0, 1])
        np.testing.assert_allclose(class_weights(labels),
                                   class_weights(np.tile(labels, 5)), atol=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            class_weights([1, 1, 1])

    def test_weighted_expectation_equal_across_classes(self):
        labels = np.array([0] * 30 + [1] * 10)
        w = class_weights(labels)
        assert abs(w[0] * 30 - w[1] * 10) < 1e-9


class TestSyntheticCorpus:
    def test_determinism(self):
        a = generate_synthetic_corpus(50, seed=4)
        b = generate_synthetic_corpus(50, seed=4)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]
        assert [e.label for e in a.examples] == [e.label for e in b.examples]

    def test_positive_count_binomial(self):
        ds = generate_synthetic_corpus(5444, positive_fraction=0.36, seed=0)
        positives = ds.labels().sum()
        assert 1910 <= positives <= 2010  # 1960 +- 50

    def test_noise_free_labels_recoverable(self):
        ds = generate_synthetic_corpus(300, noise=0.0, seed=5)
        hits = sum(keyword_label_guess(e.text) == e.label for e in ds.examples)
        assert hits == len(ds)

    def test_noisy_ceiling(self):
        ds = generate_synthetic_corpus(2000, noise=0.2, seed=6)
        hits = sum(keyword_label_guess(e.text) == e.label for e in ds.examples)
        assert 0.75 <= hits / len(ds) <= 0.85  # ceiling 1 - noise

    def test_minimum_size(self):
        with pytest.raises(ConfigError):
            generate_synthetic_corpus(5)


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        ds = generate_synthetic_corpus(20, seed=1)
        path = tmp_path / "data.jsonl"
        write_jsonl(path, ds)
        back = read_jsonl(path)
        assert len(back) == 20
        assert [e.text for e in back.examples] == [e.text for e in ds.examples]
        assert [e.label for e in back.examples] == [e.label for e in ds.examples]

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"text": "x", "label": 2}) + "\n")
        with pytest.raises(DataError):
            read_jsonl(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"text": "x"}) + "\n")
        with pytest.raises(DataError):
            read_jsonl(path)

    @pytest.mark.parametrize("record,message", [
        ({"id": [1, 2], "text": "x", "label": 0}, "id must be an integer or a string"),
        ({"id": 1.5, "text": "x", "label": 0}, "id must be an integer or a string"),
        ({"id": True, "text": "x", "label": 0}, "id must be an integer or a string"),
        ({"id": None, "text": "x", "label": 0}, "id must be an integer or a string"),
        ({"id": 0, "text": "x", "label": 0}, "duplicate id 0"),
        ({"text": "x", "label": 0}, "duplicate id 2"),  # defaults to its index, 2
        ({"id": 9, "text": None, "label": 0}, "text must be a string"),
        ({"id": 9, "text": 5, "label": 0}, "text must be a string"),
        ({"id": 9, "text": "x", "label": True}, "label must be the integer 0 or 1"),
        ({"id": 9, "text": "x", "label": 1.0}, "label must be the integer 0 or 1"),
    ])
    def test_malformed_record_rejected_naming_its_line(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        lines = [{"id": 0, "text": "a", "label": 1}, {"id": 2, "text": "b", "label": 0}, record]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        with pytest.raises(DataError, match=f"bad.jsonl:3: {message}"):
            read_jsonl(path)

    def test_string_and_integer_ids_kept(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        lines = [{"id": "n-7", "text": "a", "label": 1}, {"id": 7, "text": "b", "label": 0},
                 {"text": "c", "label": 0}]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        assert [e.example_id for e in read_jsonl(path).examples] == ["n-7", 7, 2]
