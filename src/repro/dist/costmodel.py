"""Per-job runtime prediction for the fleet scheduler.

The fleet matrix is a (scenario × budget × replication-block) job list
whose cells differ in runtime by orders of magnitude — a 256-cluster
mesh sizing takes minutes while a ``single-bus-4`` replication block is
subsecond.  Arrival-order dispatch leaves the classic makespan money on
the table when a long cell is pulled last: one worker grinds while the
rest of the fleet idles.  :class:`CostModel` is the predictor the
broker orders such batches with (longest predicted first — LPT) and
sizes prefetch leases from.

Prediction is deliberately simple and cheap (the broker holds its one
lock while predicting):

* every job payload is reduced to a small **feature** dict
  (:func:`job_features`): a ``kind`` (the job function's name), the
  scenario/backend/budget when the payload carries them, and ``units``
  — the job's linear work measure (``duration × replications`` for
  ``run_block`` blocks, the declared duration otherwise);
* the model keeps an EWMA of observed *per-unit* runtime under one key
  per ``kind|scenario|sim_backend|budget`` and predicts that rate times
  the job's units — **only** for a key it has observed.  An unseen job
  predicts ``None``, and the broker dispatches unseen jobs first, in
  arrival order, with plain ``prefetch``-sized leases.  A guess would
  be worse than no guess: a cold fleet cell's first block pays the
  cell's sizing, so a default rate sized every lease to one job and
  made both blocks of a cell size the same cell at once.

The model is a pure *hint*: predictions order the queue and size
leases, never touch a payload or a result, so a wildly wrong model can
cost time but never a bit (the determinism contract of
:mod:`repro.dist`).  State round-trips through JSON
(:meth:`~CostModel.save` / :meth:`~CostModel.load`) so a broker —
pointed at a model file or seeded from a journal — carries the last
fleet's rates forward.  A restored rate is history, not a prediction:
the broker predicts a key only once it has completed a job of that key
itself (see :meth:`repro.dist.queue.Broker.submit`), because the last
fleet's shared cache, with every cell's sizing, died with its broker.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional

__all__ = ["CostModel", "feature_key", "job_features"]

#: EWMA smoothing factor for per-unit rates: heavy enough that one
#: outlier block (cold solver, page cache miss) cannot flip the LPT
#: order, light enough that a fleet's rates converge within a few
#: blocks per cell.
DEFAULT_ALPHA = 0.25

#: Bump when the persisted-state layout changes; a mismatched file is
#: ignored (cold start) instead of misread.
STATE_SCHEMA = 2


def job_features(fn: Any, item: Any) -> Dict[str, Any]:
    """Reduce one (job function, payload) pair to scheduler features.

    Driver-side companion of the broker's model: the executor extracts
    features once at submit time (the broker never introspects
    payloads).  Works for any payload — unknown shapes reduce to
    ``kind`` plus one work unit.
    """
    kind = getattr(fn, "__name__", None) or str(fn)
    features: Dict[str, Any] = {"kind": kind, "units": 1.0}
    if isinstance(item, dict):
        for key in ("scenario", "sim_backend", "budget"):
            value = item.get(key)
            if value is not None:
                features[key] = value
        duration = item.get("duration")
        if isinstance(duration, (int, float)) and duration > 0:
            start, stop = item.get("start"), item.get("stop")
            if isinstance(start, int) and isinstance(stop, int):
                reps = max(stop - start, 1)
            else:
                reps = 1
            features["units"] = float(duration) * reps
    return features


def feature_key(features: Dict[str, Any]) -> str:
    """The one model key a job's rate is learned and predicted under."""
    return "|".join(
        str(features.get(name))
        for name in ("kind", "scenario", "sim_backend", "budget")
    )


def _units(features: Dict[str, Any]) -> float:
    return float(features.get("units", 1.0)) or 1.0


class CostModel:
    """EWMA per-unit runtime model behind LPT dispatch and lease sizing.

    Not thread-safe by itself — the broker calls it under its queue
    lock, which is also what keeps predictions and observations
    consistent with the queue state they order.

    Attributes
    ----------
    observations:
        Completed jobs folded into the rates so far.
    mean_abs_rel_err:
        EWMA of ``|predicted - actual| / actual`` over observations
        that carried a prediction — the accuracy figure ``repro dist
        top`` shows.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        # key -> [ewma unit cost, observation count]
        self._rates: Dict[str, List[float]] = {}
        self.observations = 0
        self.mean_abs_rel_err: Optional[float] = None

    # -- predict / observe ---------------------------------------------

    def predict(self, features: Optional[Dict[str, Any]]) -> Optional[float]:
        """Predicted runtime (seconds) of one job, or ``None`` if unseen.

        Only a job whose exact ``kind|scenario|sim_backend|budget`` key
        has been observed gets a prediction.  Deterministic in the
        model state: equal features always predict equal costs, so
        stable sorts preserve submission order among indistinguishable
        jobs.
        """
        if not features:
            return None
        entry = self._rates.get(feature_key(features))
        if entry is None:
            return None
        return entry[0] * _units(features)

    def observe(
        self,
        features: Optional[Dict[str, Any]],
        runtime: float,
        predicted: Optional[float] = None,
    ) -> None:
        """Fold one observed job runtime into its key's rate."""
        if runtime is None or runtime < 0 or not math.isfinite(runtime):
            return
        self.observations += 1
        if predicted is not None and runtime > 0:
            err = abs(predicted - runtime) / runtime
            self.mean_abs_rel_err = (
                err
                if self.mean_abs_rel_err is None
                else (1 - 0.2) * self.mean_abs_rel_err + 0.2 * err
            )
        if not features:
            return
        unit_cost = runtime / _units(features)
        key = feature_key(features)
        entry = self._rates.get(key)
        if entry is None:
            self._rates[key] = [unit_cost, 1]
        else:
            entry[0] = (1 - self.alpha) * entry[0] + self.alpha * unit_cost
            entry[1] += 1

    # -- persistence ----------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """JSON-compatible snapshot of the learned rates."""
        return {
            "schema": STATE_SCHEMA,
            "alpha": self.alpha,
            "rates": {
                key: [entry[0], int(entry[1])]
                for key, entry in self._rates.items()
            },
            "observations": self.observations,
        }

    def from_state(self, state: Dict[str, Any]) -> bool:
        """Restore a :meth:`to_state` snapshot; ``False`` = ignored."""
        if not isinstance(state, dict) or state.get("schema") != STATE_SCHEMA:
            return False
        try:
            self._rates = {
                str(key): [float(value[0]), int(value[1])]
                for key, value in state.get("rates", {}).items()
            }
            self.observations = int(state.get("observations", 0))
        except (TypeError, ValueError, IndexError):
            self._rates = {}
            self.observations = 0
            return False
        return True

    def save(self, path) -> None:
        """Atomically persist the model state as JSON."""
        data = json.dumps(self.to_state(), sort_keys=True) + "\n"
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)

    def load(self, path) -> bool:
        """Restore a saved state; missing/damaged files are a cold
        start (``False``), never an error."""
        try:
            with open(path) as fh:
                return self.from_state(json.load(fh))
        except (OSError, ValueError):
            return False

    # -- diagnostics ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The scheduler rows of ``repro dist top`` / ``obs dump``."""
        return {
            "observations": self.observations,
            "entries": len(self._rates),
            "mean_abs_rel_err": self.mean_abs_rel_err,
        }
