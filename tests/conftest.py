import numpy as np
import pytest

import evprofiler.experiments as experiments
from evprofiler.features import FEATURE_NAMES, FeatureMatrix, SelectionModel


@pytest.fixture
def feature_matrix_builder():
    """Build a FeatureMatrix with a given sessions-per-EV layout.

    Rows are cheap separable stand-ins (a distinct per-EV offset plus noise
    in the leading columns), enough for the sampling/balancing machinery
    that only cares about labels and row identity.
    """

    def build(counts: dict[str, int], seed: int = 0) -> FeatureMatrix:
        rng = np.random.default_rng(seed)
        ids, labels, rows = [], [], []
        for index, ev in enumerate(sorted(counts)):
            for k in range(counts[ev]):
                ids.append(f"{ev}-{k:04d}")
                labels.append(ev)
                row = rng.normal(0, 0.05, len(FEATURE_NAMES))
                row[0] += 3.0 * index
                row[1] += 1.5 * index
                row[2] += 0.5 * (index % 7)
                rows.append(row)
        return FeatureMatrix(tuple(ids), tuple(labels),
                             np.array(rows).reshape(len(ids), len(FEATURE_NAMES)))

    return build


class CellRecorder:
    """What each experiment cell's fitted stages receive, read off the real
    arguments of the functions ``experiments.run_cell`` calls.

    ``cells`` holds one dict per ``run_cell`` call: ``dataset``, the cell's
    session ids; ``held-out``, the ids of the rows ``stratified_split``
    holds out; and ``fits``, a list of (stage, ids). Stage ``selection``
    carries the rows ``fit_selection`` was fitted on, and
    ``grid-search:<family>`` the rows of the array grid search was given,
    or None when that array is not one ``SelectionModel.transform``
    returned.
    """

    def __init__(self, monkeypatch):
        self.cells: list[dict] = []
        transformed: list[tuple[np.ndarray, tuple[str, ...]]] = []
        run_cell = experiments.run_cell
        split = experiments.stratified_split
        fit_selection = experiments.fit_selection
        transform = SelectionModel.transform
        grid_search = experiments.grid_search

        def recorded_cell(job, dataset, *args, **kwargs):
            self.cells.append({"dataset": dataset.session_ids,
                               "held-out": set(), "fits": []})
            return run_cell(job, dataset, *args, **kwargs)

        def recorded_split(*args, **kwargs):
            train_idx, test_idx = split(*args, **kwargs)
            cell = self.cells[-1]
            cell["held-out"] = {cell["dataset"][i] for i in test_idx}
            return train_idx, test_idx

        def recorded_fit(train, *args, **kwargs):
            self.cells[-1]["fits"].append(("selection", set(train.session_ids)))
            return fit_selection(train, *args, **kwargs)

        def recorded_transform(model, matrix):
            out = transform(model, matrix)
            transformed.append((out.x, matrix.session_ids))
            return out

        def recorded_search(family, grid, x, *args, **kwargs):
            ids = next((set(ids) for array, ids in transformed if array is x),
                       None)
            self.cells[-1]["fits"].append((f"grid-search:{family}", ids))
            return grid_search(family, grid, x, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_cell", recorded_cell)
        monkeypatch.setattr(experiments, "stratified_split", recorded_split)
        monkeypatch.setattr(experiments, "fit_selection", recorded_fit)
        monkeypatch.setattr(SelectionModel, "transform", recorded_transform)
        monkeypatch.setattr(experiments, "grid_search", recorded_search)

    def violations(self) -> int:
        """Fits that saw a held-out row or an array ``transform`` did not
        return; every cell must hold some rows out."""
        count = 0
        for cell in self.cells:
            assert cell["held-out"], "cell recorded no held-out rows"
            count += sum(ids is None or bool(ids & cell["held-out"])
                         for _, ids in cell["fits"])
        return count


@pytest.fixture
def cell_recorder(monkeypatch):
    return CellRecorder(monkeypatch)
