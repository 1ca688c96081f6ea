"""Integrated-gradients attribution: which tokens pushed the classifier
toward its decision, with the completeness residual as a quality check.

Run:  python demos/05_token_attribution.py
"""

import numpy as np

from switchtext import RunConfig, generate_synthetic_corpus
from switchtext.data import decode
from switchtext.interpret import integrated_gradients, rank_misclassified
from switchtext.training import train

# Train a small dense model on noise-free data so attributions have a
# known ground truth: the planted keywords decide the label.
corpus = generate_synthetic_corpus(300, positive_fraction=0.4, noise=0.0,
                                   seed=11, min_tokens=8, max_tokens=18)
config = RunConfig(variant="dense", num_layers=1, num_heads=2, d_model=16,
                   d_ff=32, max_len=24, dropout=0.0, seed=5, epochs=10,
                   batch_size=16, grad_accumulation=1, peak_lr=2e-3,
                   early_stopping=False, min_frequency=1)
result = train(config, corpus, out_dir=None, quiet=True)
model, vocab = result.model, result.vocab

example = next(e for e in result.encoded["val"] if e.label == 1)
print("note:", " ".join(decode(example.ids, vocab)))
print("true label:", example.label)

report = integrated_gradients(model, example.ids, np.ones(len(example.ids), bool),
                              target_class=1, vocab=vocab, num_steps=128)
print(f"\nprediction: {report.predicted_class}   "
      f"logit change vs PAD baseline: {report.output_delta:+.3f}")
print(f"completeness residual: {report.completeness_residual:+.4f} "
      "(attributions should sum to the logit change)")

print("\ntokens ranked by |attribution| (sign = direction of influence):")
for token, score in report.ranked_tokens()[:8]:
    bar = "+" * min(20, int(abs(score) * 10)) if score > 0 else "-" * min(20, int(abs(score) * 10))
    print(f"  {token:<16} {score:+7.3f} {bar}")

# Misclassification triage: every wrong prediction, false negatives first,
# each attributed against the true class.
wrong = rank_misclassified(model, result.encoded["val"], vocab=vocab, num_steps=64)
print(f"\nmisclassified validation examples: {len(wrong)}")
for ex, rep in wrong[:2]:
    top = ", ".join(f"{t} ({s:+.2f})" for t, s in rep.ranked_tokens()[:3])
    print(f"  id {ex.example_id}: true {ex.label}, predicted {rep.predicted_class}; drivers: {top}")
