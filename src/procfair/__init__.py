"""Procedural-fairness auditing for tabular binary classifiers.

Trains small neural classifiers, explains their decisions with Shapley-value
feature attributions, measures group procedural fairness as the permutation
p-value of an MMD two-sample test between the explanation sets of matched
cross-group samples, detects the features responsible for procedural
unfairness, and mitigates it by retraining or by gradient-penalty model
modification.
"""

from ._version import __version__

from .datasets import (
    SplitDataset,
    SyntheticConfig,
    TabularDataset,
    generate_synthetic,
    load_csv,
    pearson_correlation,
    select_fair_features,
    standardized_split,
)
from .models import (
    LogisticModel,
    MlpModel,
    TrainConfig,
    fit_logistic,
    fit_mlp,
    init_mlp,
    predict_labels,
    set_sensitive_weight,
    train,
)
from .attribution import (
    ExplanationSet,
    ShapConfig,
    explain_set,
    sample_background,
)
from .two_sample import (
    KernelConfig,
    PermutationConfig,
    pca_project,
    permutation_memberships,
    permutation_pvalue,
)
from .fairness import (
    AuditConfig,
    AuditReport,
    GpfPlan,
    PairSelection,
    audit,
    dp,
    gpf_plan,
    gpf_run,
    prediction_metrics,
    select_pairs,
)
from .mitigation import (
    ModifyConfig,
    UnfairFeatureSet,
    detect_unfair_features,
    explanation_loss,
    modify_model,
    retrain_without,
    unfair_features_from_sets,
)
