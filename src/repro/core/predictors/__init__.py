"""Online predictors and their regret-minimizing combination (§4.4-4.5.1).

Four learning algorithms, as in the paper: two trivial (``mean`` and
``weatherman``) and two interesting (logistic regression on bits, linear
regression on 32-bit words), combined per-bit by the (Randomized)
Weighted Majority Algorithm.
"""

from repro.core.predictors.base import Predictor
from repro.core.predictors.mean import MeanPredictor
from repro.core.predictors.weatherman import WeathermanPredictor
from repro.core.predictors.logistic import LogisticPredictor
from repro.core.predictors.linreg import LinearRegressionPredictor
from repro.core.predictors.ensemble import PredictorEnsemble, default_ensemble

__all__ = [
    "Predictor",
    "MeanPredictor",
    "WeathermanPredictor",
    "LogisticPredictor",
    "LinearRegressionPredictor",
    "PredictorEnsemble",
    "default_ensemble",
]
