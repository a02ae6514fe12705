"""Centralized references on the pooled rows, and the result comparison.

Federation changes where a computation runs, not what it computes, so every
experiment the benchmark runs is checked against the same statistic computed
directly on the union of the selected datasets' rows. References are keyed
by request, so a request repeated in a run is computed once, after the timed
region.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

import numpy as np

#: (relative, absolute, share of the standard error) tolerance per
#: aggregation mode. Plain aggregation sums float64 partials in another order
#: than the reference does. SMPC encodes every partial in fixed point with 16
#: fractional bits (resolution 2**-16 ~ 1.5e-5), so moments, and what is
#: derived from them, carry that rounding; in a regression on near-collinear
#: covariates (left and right amygdala) the rounding is amplified as much as
#: the coefficient's standard error is, so regression coefficients must agree
#: to a thousandth of their standard error rather than to a share of their
#: value, which for a coefficient near zero means little.
TOLERANCE = {
    "plain": (1e-6, 1e-8, 0.0),
    "smpc": (1e-4, 1e-6, 1e-3),
}


class Pooled:
    """Column arrays of every dataset, NULL as NaN (numeric) or None."""

    def __init__(self, tables: Mapping[str, Any]) -> None:
        self._columns: dict[str, dict[str, np.ndarray]] = {}
        for dataset, table in tables.items():
            self._columns[dataset] = {
                spec.name: table.column(spec.name).to_numpy() for spec in table.schema
            }

    def column(self, datasets: Sequence[str], name: str) -> np.ndarray:
        return np.concatenate([self._columns[d][name] for d in sorted(datasets)])

    def numeric(self, datasets: Sequence[str], names: Sequence[str]) -> np.ndarray:
        """Rows of ``names`` complete on every one of them (complete cases)."""
        matrix = np.column_stack(
            [self.column(datasets, n).astype(np.float64) for n in names]
        )
        return matrix[~np.isnan(matrix).any(axis=1)]


def request_key(request: Mapping[str, Any]) -> str:
    return json.dumps(request, sort_keys=True)


def _design(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(intercept + covariates, response) from rows laid out as [y, x...]."""
    return np.column_stack([np.ones(len(rows)), rows[:, 1:]]), rows[:, 0]


def _newton_logistic(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    beta = np.zeros(X.shape[1])
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        gradient = X.T @ (y - p)
        hessian = (X * (p * (1.0 - p))[:, None]).T @ X
        step = np.linalg.solve(hessian, gradient)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13 * max(1.0, np.max(np.abs(beta))):
            break
    return beta


def reference(pooled: Pooled, request: Mapping[str, Any]) -> dict[str, Any]:
    """The centralized answer to one request, as comparable numbers."""
    algorithm = request["algorithm"]
    datasets = request["datasets"]
    y, x = list(request["y"]), list(request["x"])
    if algorithm == "linear_regression":
        X, target = _design(pooled.numeric(datasets, y + x))
        beta = np.linalg.lstsq(X, target, rcond=None)[0]
        residual_variance = np.sum((target - X @ beta) ** 2) / (len(target) - X.shape[1])
        covariance = residual_variance * np.linalg.inv(X.T @ X)
        return {
            "coefficients": beta,
            "coefficient_se": np.sqrt(np.diag(covariance)),
            "n_observations": len(target),
        }
    if algorithm == "logistic_regression":
        X, target = _design(pooled.numeric(datasets, y + x))
        beta = _newton_logistic(X, target)
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        covariance = np.linalg.inv((X * (p * (1.0 - p))[:, None]).T @ X)
        return {"coefficients": beta, "coefficient_se": np.sqrt(np.diag(covariance))}
    if algorithm == "pearson_correlation":
        rows = pooled.numeric(datasets, y + x)
        return {"correlations": np.corrcoef(rows, rowvar=False), "n_observations": len(rows)}
    if algorithm == "ttest_independent":
        response = pooled.column(datasets, y[0]).astype(np.float64)
        group = pooled.column(datasets, x[0])
        keep = ~np.isnan(response) & np.array([g is not None for g in group])
        response, group = response[keep], group[keep]
        levels = sorted(set(group.tolist()), key=_level_order(request))
        first = response[group == levels[0]]
        second = response[group == levels[1]]
        standard_error = np.sqrt(first.var(ddof=1) / len(first) + second.var(ddof=1) / len(second))
        return {
            "n_observations": [len(first), len(second)],
            "means": [first.mean(), second.mean()],
            "t_statistic": (first.mean() - second.mean()) / standard_error,
        }
    if algorithm == "descriptive_stats":
        pooled_stats = {}
        for variable in y:
            values = pooled.column(datasets, variable).astype(np.float64)
            present = values[~np.isnan(values)]
            pooled_stats[variable] = {
                "count": len(values),
                "datapoints": len(present),
                "mean": present.mean(),
                "std": present.std(ddof=1),
                "min": present.min(),
                "max": present.max(),
            }
        return {"pooled": pooled_stats}
    raise ValueError(f"no reference for algorithm {algorithm!r}")


def _level_order(request: Mapping[str, Any]):
    """Nominal levels in catalogue order, as the federated t-test reports them."""
    from repro.data.cdes import cde_registry

    order = list(cde_registry.get(request["data_model"]).cde(request["x"][0]).enumerations)
    return order.index


def _close(actual: Any, expected: Any, rtol: float, atol: Any) -> bool:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= atol + rtol * np.abs(expected))
    )


def compare(expected: Mapping[str, Any], result: Mapping[str, Any], mode: str) -> str | None:
    """None when ``result`` matches ``expected`` within the mode's tolerance,
    else a one-line description of the first mismatch."""
    rtol, atol, se_share = TOLERANCE[mode]
    for key, want in expected.items():
        if key == "coefficient_se":
            continue
        if key == "coefficients":
            if key not in result or not _close(
                result[key], want, rtol, atol + se_share * expected["coefficient_se"]
            ):
                return f"{key}: {result.get(key)} != {np.asarray(want).tolist()}"
            continue
        if key not in result:
            return f"result lacks {key!r}"
        got = result[key]
        if isinstance(want, dict):
            for variable, fields in want.items():
                entry = got.get(variable, {})
                for field, value in fields.items():
                    if field not in entry or not _close(entry[field], value, rtol, atol):
                        return f"{key}.{variable}.{field}: {entry.get(field)} != {value}"
        elif not _close(got, want, rtol, atol):
            return f"{key}: {got} != {np.asarray(want).tolist()}"
    return None
