"""ML algorithm library built on the session's operator set."""

from repro.ml.cleaning import (
    impute_by_mean,
    impute_by_mode,
    normalize,
    outlier_by_iqr,
    pca_project,
    scale,
    under_sampling,
)
from repro.ml.l2svm import (
    l2svm,
    l2svm_accuracy,
    l2svm_core_iteration,
    l2svm_predict,
)
from repro.ml.linreg import lin_reg_ds, lin_reg_predict, r2_score
from repro.ml.mlogreg import mlogreg, mlogreg_accuracy, mlogreg_predict
from repro.ml.nn import (
    Autoencoder,
    CnnModel,
    ConvSpec,
    MlpModel,
    affine,
    alexnet,
    init_weights,
    resnet18,
    vgg16,
)
from repro.ml.pnmf import pnmf, pnmf_iteration, pnmf_loss
from repro.ml.transforms import (
    equi_width_bin,
    minibatch,
    one_hot,
    recode,
    transform_encode,
)
from repro.ml.tuning import kfold_indices, successive_halving, weighted_ensemble

__all__ = [
    "impute_by_mean", "impute_by_mode", "normalize", "outlier_by_iqr",
    "pca_project", "scale", "under_sampling",
    "l2svm", "l2svm_accuracy", "l2svm_core_iteration", "l2svm_predict",
    "lin_reg_ds", "lin_reg_predict", "r2_score",
    "mlogreg", "mlogreg_accuracy", "mlogreg_predict",
    "Autoencoder", "CnnModel", "ConvSpec", "MlpModel", "affine",
    "alexnet", "init_weights", "resnet18", "vgg16",
    "pnmf", "pnmf_iteration", "pnmf_loss",
    "equi_width_bin", "minibatch", "one_hot", "recode", "transform_encode",
    "kfold_indices", "successive_halving", "weighted_ensemble",
]
