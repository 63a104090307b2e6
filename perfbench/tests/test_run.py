import json

import pytest

import run


def _result(path, backend="python", blas="1", value=2.0):
    env = {"backend": backend, "blas_threads": dict(run.BLAS_THREADS, OPENBLAS_NUM_THREADS=blas)}
    with open(path, "w") as fh:
        json.dump({"workload": "null_packed", "trace": 0, "fingerprint": env,
                   "metrics": {"wall_s": {"value": value, "unit": "s"}}}, fh)
    return str(path)


def test_compare_prints_relative_change(tmp_path, capsys):
    assert run.compare(_result(tmp_path / "a.json"), _result(tmp_path / "b.json", value=2.5)) == 0
    assert "+25.00%" in capsys.readouterr().out


@pytest.mark.parametrize("change", [{"backend": "compiled"}, {"blas": "2"}])
def test_compare_refuses_other_backend_or_threads(tmp_path, change):
    assert run.compare(_result(tmp_path / "a.json"), _result(tmp_path / "b.json", **change)) == 3
