"""fuseprune: operator fusion and dynamic filter pruning for conv nets.

The package rewrites convolutional inference graphs in two coordinated
steps: an equivalence-preserving fusion pass that absorbs element-wise
adds, identity/projection shortcuts and batch normalization into enlarged
convolutions, and a dynamic L2-norm filter pruning pass that first restores
the original layer widths ("conservative" pruning of the fused filters)
and can then keep shrinking the network at a configurable rate. Pruned
models are materialized into physically smaller graphs, and an analysis
module reports FLOP budgets, measured per-operator time and projected
speedups.
"""

from .tensor import (
    ConvSpec,
    Tensor,
    TensorError,
)
from .graph import (
    CycleDetected,
    DanglingInput,
    Graph,
    GraphError,
    ModelFormatError,
    Node,
    ShapeMismatch,
    UnreachableNode,
    execute,
    load,
    save,
    validate,
)
from .fusion import (
    BlockMatch,
    BnWithoutPrecedingConv,
    ConvFusion,
    FusionError,
    FusionOption,
    FusionReport,
    NearZeroOmega,
    NonOddKernel,
    PatternMismatch,
    StrideMismatch,
    adjust_identity_for_bn,
    find_residual_blocks,
    fold_bn,
    fuse,
    fuse_block,
    make_identity_weights,
    pad_conv_weights,
)
from .pruning import (
    InconsistentMask,
    MaterializeResult,
    PruneConfig,
    PruneError,
    PruneMask,
    dynamic_prune,
    filter_l2_norms,
    materialize,
    select_prune_indices,
    soft_prune_epoch,
)
from .trainer import (
    SynthDataset,
    TrainConfig,
    TrainerError,
    evaluate,
    fit,
    forward_backward,
    make_epoch_hook,
    parse_dataset_spec,
    sgd_step,
    softmax_cross_entropy,
    train_epoch,
    training_forward,
)
from .analysis import (
    CostReport,
    DeltaReport,
    NodeCost,
    amdahl_bound,
    compare,
    count_flops,
    load_profile,
    profile,
    speedup,
    speedup_from_profile,
)
from .zoo import ZooSpec, build, init_weights

__version__ = "0.1.0"
