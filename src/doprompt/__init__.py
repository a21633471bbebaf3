"""Domain-prompt learning for small vision transformers.

Per-domain prompt tokens carry domain-specific knowledge; a prompt adapter
composes them into an input-conditioned prompt for unseen-domain inference.
Built on an in-package reverse-mode tensor engine, exercised on a procedural
multi-domain image dataset.
"""

from .config import DataConfig, RunConfig, TrainConfig, VARIANTS
from .datagen import DomainBatch, DomainStyleSpec, SyntheticDataset, generate_dataset
from .objectives import LossBreakdown, loss_prompt, loss_w, total_loss, variant_loss
from .pipeline import (
    ModelState,
    infer,
    init_state,
    per_prompt_logits,
    run_experiment,
    train_step,
)
from .prompting import (
    AdapterParams,
    PromptBank,
    adapter_forward,
    compose_adapted_prompts,
    domain_prompts,
)
from .tensor import Tensor
from .vit import ViTConfig, ViTParams, forward

__version__ = "0.1.0"
