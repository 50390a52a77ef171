"""Link prediction via attribute-enhanced graphs and random-walk similarity.

The pipeline: augment the edge set with the most attribute-similar
non-edges, learn per-edge weights with a small MLP, score candidate pairs
with the Autocovariance random-walk similarity of the enhanced graph, and
train end-to-end with an N-pair ranking loss on unbiased
(class-imbalance-preserving) negative samples. Evaluation streams the
full negative pool, never a downsampled stand-in, unless the biased
comparison mode is explicitly requested.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, GelatoError, NumericError
from .graph import (AttributeMatrix, Graph, add_self_loops, build_graph,
                    cosine_pairs, cosine_similarity)
from .io import (load_graph, read_attributes, read_edge_list,
                 write_attributes_binary, write_attributes_csv,
                 write_edge_list)
from .splits import (EdgeSplit, MaskedBatch, negative_pool_size,
                     positive_masking_batches, read_split, sample_negatives,
                     split_edges, write_split)
from .heuristics import local_heuristic
from .enhancer import (EnhancedGraph, EnhancerConfig, MlpParams,
                       build_enhanced_graph, init_mlp_params, load_params,
                       mlp_edge_weight, save_params,
                       select_augmentation_pairs)
from .trainer import (AdamState, EpochRecord, TrainConfig, adam_update,
                      bce_loss, compute_gradients, forward_loss, npair_loss,
                      standardize_scores, train)
from .evaluator import (MetricsReport, RankSummary, auc, average_precision,
                        biased_sample_metrics, compute_report, hits_at_k,
                        pr_curve, precision_at_k, rank_summary,
                        report_to_json, write_pr_csv)
from .scorers import (AutocovarianceScorer, CosineScorer,
                      LocalHeuristicScorer, MlpScorer)
from .config import ExperimentConfig, config_from_text, config_to_text
