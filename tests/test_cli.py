import json

import pytest

from looppres.cli import load_complex, main
from looppres.exactlin import ZZ
from looppres.presentation import build_presentation, presentation_to_dict


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    return write(tmp_path, "pentagon.json",
                 {"m": 5, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]})


@pytest.fixture
def square_file(tmp_path):
    return write(tmp_path, "square.json",
                 {"facets": [[1, 2], [2, 3], [3, 4], [1, 4]]})


@pytest.fixture
def hollow_file(tmp_path):
    return write(tmp_path, "hollow.json",
                 {"m": 3, "facets": [[1, 2], [2, 3], [1, 3]]})


def test_analyze_pentagon(pentagon_file, capsys):
    assert main(["analyze", pentagon_file]) == 0
    out = capsys.readouterr().out
    assert "flag: true" in out
    assert "h = (1, 3, 1)" in out


def test_analyze_infers_m(square_file, capsys):
    assert main(["analyze", square_file]) == 0
    out = capsys.readouterr().out
    assert "m = 4" in out


def test_analyze_non_flag_exit_3(hollow_file, capsys):
    assert main(["analyze", hollow_file]) == 3
    out = capsys.readouterr().out
    assert "flag: false" in out
    assert "witness: [1, 2, 3]" in out


def test_skeleton_clique_rescues(hollow_file, capsys):
    assert main(["analyze", hollow_file, "--skeleton-clique"]) == 0
    out = capsys.readouterr().out
    assert "flag: true" in out  # analyzed the simplex on 3 vertices


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    path2 = write(tmp_path, "bad2.json", {"facets": "nope"})
    assert main(["analyze", path2]) == 2
    path3 = write(tmp_path, "bad3.json", {"facets": [[1, 2]], "m": 9})
    assert main(["analyze", path3]) == 2  # ghost vertices
    assert main(["analyze", "/nonexistent/file.json"]) == 2
    capsys.readouterr()


def test_bad_ring_exit_2(pentagon_file, capsys):
    assert main(["analyze", pentagon_file, "--ring", "F4"]) == 2
    capsys.readouterr()


def test_presentation_pentagon_text(pentagon_file, capsys):
    assert main(["presentation", pentagon_file, "--ring", "Z"]) == 0
    out = capsys.readouterr().out
    assert "generators: 10" in out
    assert "relations: 1" in out
    assert "[u4,[u5,u2]]" in out  # a degree-3 generator appears rendered


PENTAGON_GOLDEN = """\
generators: 10
  deg 2   [u3,u1]                  = u1*u3 + u3*u1
  deg 2   [u4,u1]                  = u1*u4 + u4*u1
  deg 2   [u4,u2]                  = u2*u4 + u4*u2
  deg 2   [u5,u2]                  = u2*u5 + u5*u2
  deg 2   [u5,u3]                  = u3*u5 + u5*u3
  deg 3   [u2,[u4,u1]]             = -u1*u2*u4 - u1*u4*u2 + u2*u4*u1 - u4*u1*u2
  deg 3   [u3,[u4,u1]]             = u1*u3*u4 + u3*u1*u4 + u3*u4*u1 - u4*u1*u3
  deg 3   [u1,[u5,u3]]             = u1*u3*u5 + u1*u5*u3 + u3*u1*u5 - u5*u3*u1
  deg 3   [u3,[u5,u2]]             = -u2*u3*u5 - u2*u5*u3 + u3*u5*u2 - u5*u2*u3
  deg 3   [u4,[u5,u2]]             = u2*u4*u5 + u4*u2*u5 + u4*u5*u2 - u5*u2*u4
relations: 1 (multi-graded)
  deg 5   (J=[1, 2, 3, 4, 5])
    [[u3,u1],[u4,[u5,u2]]] - [[u4,u1],[u3,[u5,u2]]] - [[u3,[u4,u1]],[u5,u2]]\
 - [[u4,u2],[u1,[u5,u3]]] + [[u2,[u4,u1]],[u5,u3]] = 0
"""


def test_presentation_pentagon_golden_text(pentagon_file, capsys):
    # output ordering is deterministic end to end
    assert main(["presentation", pentagon_file]) == 0
    assert capsys.readouterr().out == PENTAGON_GOLDEN


def test_presentation_json_roundtrip(pentagon_file, capsys):
    assert main(["presentation", pentagon_file, "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert len(data["generators"]) == 10
    # idempotent rendering: dumping the parsed object reproduces the text
    assert json.dumps(data, indent=2, sort_keys=True) == out.strip()


@pytest.mark.parametrize("m", [5, 6])
def test_presentation_json_matches_dumps(tmp_path, capsys, m):
    # streamed JSON is byte for byte the one-shot indented dump
    path = write(tmp_path, "gon%d.json" % m,
                 {"m": m, "facets": [[i, i % m + 1] for i in range(1, m + 1)]})
    assert main(["presentation", path, "--json"]) == 0
    pres = build_presentation(load_complex(path), ZZ, "multi")
    assert capsys.readouterr().out == json.dumps(
        presentation_to_dict(pres), indent=2, sort_keys=True) + "\n"


def test_homotopy_square(square_file, capsys):
    assert main(["homotopy", square_file]) == 0
    out = capsys.readouterr().out
    assert "D_3=2" in out


def test_homotopy_json(pentagon_file, capsys):
    assert main(["homotopy", pentagon_file, "--json", "--trunc", "10"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["D"]["3"] == 5 and data["D"]["4"] == 5
    assert data["P"] == [1, 0, -5, -5, 0, 1]


def test_hilbert(pentagon_file, capsys):
    assert main(["hilbert", pentagon_file, "--trunc", "6"]) == 0
    out = capsys.readouterr().out
    assert "agreement: yes" in out


def test_verify_hexagon(tmp_path, capsys):
    path = write(tmp_path, "hexagon.json",
                 {"m": 6, "facets": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6],
                                     [1, 6]]})
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "1/1 vanish in k[K]!" in out
    assert "verification passed" in out


def test_max_m_env(monkeypatch, pentagon_file, capsys):
    monkeypatch.setenv("LOOPPRES_MAX_M", "4")
    assert main(["analyze", pentagon_file]) == 2  # m=5 over the cap
    capsys.readouterr()
    monkeypatch.setenv("LOOPPRES_MAX_M", "junk")
    assert main(["analyze", pentagon_file]) == 2
    capsys.readouterr()
