"""text2vis: learn a text-to-visual-feature mapping and retrieve images by
similarity in that space.

The pieces: `textvec` turns captions into string tokens and binary
bag-of-words vectors (with optional POS-pattern n-grams), `nn` is the
two-branch network with analytic gradients, `optim` trains it (stochastic
loss selection, aggregated loss, or visual-only), `retrieval` does exact
nearest-neighbor search over normalized vectors, `evaluation` builds each
compared method's rankings and scores them with ROUGE-L relevance and DCG,
`data` handles files and the synthetic dataset, and `cli` glues it together.
"""

from .data import (CaptionedImage, DatasetSplit, FormatError, SynthConfig,
                   SynthGroundTruth, generate_synthetic, join_captions_features,
                   load_captions, load_features, save_captions, save_features,
                   split_dataset)
from .evaluation import (EvalReport, Query, collection_queries, dcg, evaluate,
                         lcs_length, rank_methods, relevance, rouge_l, rrank_ranking,
                         vissim_ranking)
from .nn import (ForwardResult, Model, forward, init_model, load_checkpoint, relu,
                 save_checkpoint)
from .optim import (Adam, EncodedDataset, TrainConfig, TrainHistory, TrainResult,
                    TrainingDiverged, aggregated_train, early_stop_check,
                    encode_dataset, pick_captions, sl_train, visreg_train)
from .retrieval import (RankEntry, RankedList, VisualIndex, build_index,
                        l2_normalize, query)
from .textvec import (BowVector, Vocabulary, build_vocabulary, caption_terms,
                      extract_ngrams, pos_tag, tokenize)

__version__ = "0.1.0"
