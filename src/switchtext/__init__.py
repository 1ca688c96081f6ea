"""switchtext: small-scale dense and expert-routed transformer encoders for
binary text classification, built on a float64 numpy autodiff core.

Headline pieces: a tape-based tensor library with gradient checking, the
encoder stack (multi-head attention + dense FFN or top-1 routed experts),
an AdamW/cosine-warmup training engine with early stopping, evaluation
metrics, a synthetic note generator, and integrated-gradients attribution.
"""

__version__ = "0.1.0"

from .tensor import Tape, Tensor, finite_difference_check  # noqa: F401
from .layers import (  # noqa: F401
    EmbeddingTable, LayerNormParams, LinearParams,
    embed, layer_norm, linear, dropout,
)
from .attention import (  # noqa: F401
    FfnParams, MultiHeadParams,
    multi_head_attention, position_wise_ffn,
)
from .moe import (  # noqa: F401
    RoutingRecord, SwitchParams, gate_probs, load_balance_loss, switch_forward,
)
from .model import (  # noqa: F401
    EncoderModel, ModelConfig, export_hidden_embeddings, load_checkpoint, parameter_count,
    save_checkpoint,
)
from .optim import AdamW, cosine_warmup_lr  # noqa: F401
from .data import (  # noqa: F401
    LabeledDataset, Vocabulary, build_vocab, class_weights, encode,
    generate_synthetic_corpus, read_jsonl, split_dataset, write_jsonl,
)
from .metrics import ConfusionMatrix, EvalReport, classification_metrics, confusion, roc_auc  # noqa: F401
from .interpret import AttributionReport, integrated_gradients, rank_misclassified  # noqa: F401
from .training import RunConfig, evaluate, train  # noqa: F401
