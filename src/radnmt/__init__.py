"""Character-level Japanese-Chinese NMT with Kangxi radical input features.

A self-contained numpy engine: radical feature extraction, character
vocabularies and batching, a reverse-mode differentiation tape, an
attentional bidirectional-LSTM encoder-decoder with input feeding,
plain-SGD training with gradient clipping, beam-search decoding, and
BLEU/perplexity evaluation.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, backward, clip_by_global_norm, grad_check, uniform_init
from .corpus import (
    BOS,
    EOS,
    EOS_FEATURE,
    FEATURE_VOCAB_SIZE,
    PAD,
    UNK,
    Batch,
    ExamplePair,
    Vocab,
    build_vocab,
    encode_corpus,
    encode_pair,
    make_batches,
    read_parallel,
    toy_corpus_paths,
)
from .decoding import (
    Hypothesis,
    beam_search,
    beam_search_many,
    translate_file,
    translate_line,
    translate_lines,
)
from .evaluation import BleuReport, bleu, evaluate
from .model import (
    ModelConfig,
    ModelParams,
    decode_step,
    encode,
    forward_loss,
    load_checkpoint,
    save_checkpoint,
)
from .radicals import (
    KANGXI_GLYPHS,
    N_RADICALS,
    RadicalTable,
    load_bundled_table,
    load_radical_table,
    radical_glyph,
)
from .training import TrainConfig, TrainReport, perplexity, sgd_step, train

__all__ = [name for name in dir() if not name.startswith("_")]
