"""Every `experiment` mode end to end through the CLI: output bytes pinned by
sha256 at two worker counts, and one worker pool per command."""

import hashlib
import multiprocessing
import os

import pytest

from evprofiler.cli import main

MODES = {
    "binary": ["--values", "1,2", "--min-target", "10",
               "--classifiers", "dt,knn"],
    "multiclass": ["--size", "complete", "--classifiers", "dt,knn"],
    "grid": ["--evs", "3,5", "--samples", "8,12", "--classifier", "dt"],
    "distribution": ["--shape", "uniform", "--bins", "2", "--per-bin", "1",
                     "--classifiers", "dt,knn"],
}

# sha256 of every report file, recorded with the code before the experiment
# modes shared one cell runner
DIGESTS = {
    "binary/cells.csv":
        "6eeaba394462e551e367ce6b003f6d53ca542bcb03578c24bac7242b38b6965a",
    "binary/f1_vs_balance.csv":
        "088ea0145e6eb0bdbdf6b05c82c1c4dd87aee39ee399f4d767dc8c78f4e4bc1d",
    "binary/summary.csv":
        "8da43dd326d56b784116c814dcb99c4cee2055d2d029a4dfdab1518237231a14",
    "binary/summary.md":
        "85d109d500d4a74da5097f5ccd1d43c91a05a2310ab7e2ff31edd5f24db1ae90",
    "multiclass/accuracy_vs_dataset.csv":
        "bcc65a365ad792c1b6af6289caee8de1dcf97ef32f9d74c320c0bad72468595d",
    "multiclass/cells.csv":
        "31ea02bd0261049886a76f5c56a211c9f1ada9eddcd897ee65ff02f4e35d3fae",
    "multiclass/summary.csv":
        "6205336bc215f1e8d82f534c29c5ba87b8e2a8c4cf39b329955e3f8923f1432b",
    "multiclass/summary.md":
        "acb0fad115f7a2234a7c70e1329ea6f4c26f749ed128b9a868eaee9bb676dc1d",
    "grid/accuracy_grid.csv":
        "8e1651d27d70dc009a231efadcddc1179b8819f35ad1a97a78d95e2bb8ce166c",
    "grid/cells.csv":
        "3ea85552673cbeddeecda9ea1f9f3aa9e9cd9759891394f907b4ab6a834d20c1",
    "grid/summary.csv":
        "21cd3ae99cff87a0a54aa8f503dcae5a70419297e597cd1ed258e5642d233891",
    "grid/summary.md":
        "d8ff6e957a09aaf62b59397a566b6c72489fdb05a3773f8153ff27ca87a898c4",
    "distribution/accuracy_vs_distribution.csv":
        "8928f22e736a070a4bcb7b90317da5c16ea9009e4ff030a3ab804e0648fe724c",
    "distribution/cells.csv":
        "194b9a7c3279f56412973ad6b53d9e4ed1c0fab32e479d97e26902b16a47992c",
    "distribution/summary.csv":
        "eae2ecfd41e073845236850122895f9c37f1816dc087376c84b40f59cb972c3a",
    "distribution/summary.md":
        "8ae37cef10f2d79763d64d20788e6d2ac2e0eb53d4c8de5ffd89e43c23a9f921",
}


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    root = tmp_path_factory.mktemp("modes")
    raw, segments, feats = (str(root / name) for name in
                            ("raw.jsonl", "segments.jsonl", "features.csv"))
    assert main(["synth", "--evs", "6", "--sessions", "20", "--seed", "11",
                 "--separation", "overlapping", "--truncate-prob", "0.3",
                 "--out", raw]) == 0
    assert main(["extract", "--sessions", raw, "--out", segments]) == 0
    assert main(["featurize", "--segments", segments, "--out", feats]) == 0
    return feats


def run_mode(features, mode, out, workers):
    assert main(["experiment", mode, *MODES[mode], "--features", features,
                 "--reps", "2", "--seed", "12", "--workers", workers,
                 "--out", out]) == 0
    assert main(["report", "--in", out]) == 0


@pytest.mark.parametrize("workers", ["1", "2"])
def test_every_mode_and_report_is_byte_identical(features, tmp_path, workers):
    digests = {}
    for mode in MODES:
        out = str(tmp_path / mode)
        run_mode(features, mode, out, workers)
        for name in sorted(os.listdir(out)):
            if name != "manifest.json":  # it carries wall-clock timings
                with open(os.path.join(out, name), "rb") as fh:
                    digests[f"{mode}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == DIGESTS


def test_grid_opens_one_pool(features, tmp_path, monkeypatch):
    opened = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        opened.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    run_mode(features, "grid", str(tmp_path / "grid"), "2")
    assert len(opened) == 1
