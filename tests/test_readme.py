"""README's code runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(tmp_path, monkeypatch):
    # the Python block under "## Library sketch"; it writes out/ in the
    # working directory
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, f"{README} (Library sketch)", "exec"), namespace)
    assert (tmp_path / "out" / "bound.csv").is_file()
    assert (tmp_path / "out" / "r_seq.csv").is_file()
    res, tres = namespace["res"], namespace["tres"]
    assert len(res.log_delta_n) == 2001 and res.log_delta_n[-1] < -709  # below 1e-308
    assert (tres.log_delta_n <= tres.log_rhs_n).all()
    moment = namespace["moment"]  # (log lhs, log rhs) for n = 1..2000, all finite
    assert moment.shape == (2000, 2) and (abs(moment) < float("inf")).all()
