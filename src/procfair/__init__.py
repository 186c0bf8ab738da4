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
    dataset_dp,
    generate_synthetic,
    load_csv,
    oversample_to_dp,
    pearson_correlation,
    select_fair_features,
    standardized_split,
    train_test_split,
    zscore_normalize,
)
from .models import (
    LogisticModel,
    MlpModel,
    TrainConfig,
    bce_loss,
    fit_logistic,
    fit_mlp,
    init_mlp,
    input_gradient,
    predict_labels,
    predict_proba,
    set_sensitive_weight,
    soft_dp,
    train,
)
from .attribution import (
    Explanation,
    ExplanationSet,
    ShapConfig,
    exact_shapley,
    explain_set,
    kernel_shap,
    sample_background,
)
from .two_sample import (
    KernelConfig,
    PermutationConfig,
    euclidean,
    kernel_matrix,
    mmd2,
    pca_project,
    permutation_pvalue,
)
from .fairness import (
    AuditConfig,
    AuditReport,
    PairSelection,
    audit,
    dp,
    eo,
    eod,
    gpf_fae,
    individual_fairness,
    select_pairs,
)
from .mitigation import (
    ModifyConfig,
    UnfairFeatureSet,
    alpha_sweep,
    detect_unfair_features,
    explanation_loss,
    modify_model,
    retrain_without,
    unfair_features_from_sets,
)
