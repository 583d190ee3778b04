import hashlib
import io
import itertools
import json
import random

import pytest

import looppres.cli as cli
import looppres.presentation as presentation
import looppres.torbar as torbar
from corpus import gnp_flag
from looppres.cli import load_complex, main
from looppres.exactlin import GF, ZZ, parse_ring
from looppres.presentation import (
    build_presentation,
    presentation_to_dict,
    render_relation,
)
from looppres.simplicial import (
    all_subsets,
    cycle_complex,
    octahedron,
    path_complex,
    reduced_homology,
    rp2_minimal,
)


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
    path4 = write(tmp_path, "bad4.json", {"m": "5", "facets": [[1, 2]]})
    assert main(["analyze", path4]) == 2  # not a TypeError traceback
    path5 = write(tmp_path, "bad5.json", {"m": 2.5, "facets": [[1, 2]]})
    assert main(["analyze", path5]) == 2
    # booleans are not vertices, though isinstance(True, int) holds
    path6 = write(tmp_path, "bad6.json",
                  {"facets": [[True, 2], [2, 3], [3, 1]]})
    assert main(["analyze", path6]) == 2
    capsys.readouterr()


def test_bad_ring_exit_2(pentagon_file, capsys):
    assert main(["analyze", pentagon_file, "--ring", "F4"]) == 2
    capsys.readouterr()


def test_huge_prime_ring_refused(pentagon_file, capsys):
    # trial division on 2^61 - 1 would run for hours; p >= 2^40 is refused
    assert main(["analyze", pentagon_file,
                 "--ring", "F2305843009213693951"]) == 2
    assert "2^40" in capsys.readouterr().err
    assert main(["analyze", pentagon_file, "--ring", "F1000003"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command,trunc", [("hilbert", "-1"),
                                           ("homotopy", "-2")])
def test_negative_trunc_exit_2(pentagon_file, capsys, command, trunc):
    with pytest.raises(SystemExit) as exc:
        main([command, pentagon_file, "--trunc", trunc])
    assert exc.value.code == 2
    assert "--trunc: must be >= 0" in capsys.readouterr().err
    assert main([command, pentagon_file, "--trunc", "0"]) == 0
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


def assert_presentation_json_is_dict_dump(tmp_path, capsys, k, name):
    # presentation --json streams its document: byte for byte the indented
    # dump of presentation_to_dict, over each ring and grading
    path = write(tmp_path, name, k.to_json_dict())
    for ring, grading in itertools.product(("Z", "F2", "Q"), ("multi", "z")):
        pres = build_presentation(load_complex(path), parse_ring(ring),
                                  grading)
        assert main(["presentation", path, "--json", "--ring", ring,
                     "--grading", grading]) == 0
        assert capsys.readouterr().out == json.dumps(
            presentation_to_dict(pres), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("m", [5, 6])
def test_presentation_json_matches_dumps(monkeypatch, tmp_path, capsys, m):
    # every other --json output is byte for byte the one-shot indented dump
    # of the payload the command built
    path = write(tmp_path, "gon%d.json" % m,
                 {"m": m, "facets": [[i, i % m + 1] for i in range(1, m + 1)]})
    payloads = []
    real = cli.write_json

    def recorded(payload, fp=None):
        payloads.append(payload)
        real(payload, fp)
    monkeypatch.setattr(cli, "write_json", recorded)
    for command in ("analyze", "homotopy", "hilbert", "verify"):
        payloads.clear()
        assert main([command, path, "--json", "--trunc", "6"]) == 0
        assert len(payloads) == 1, command
        assert capsys.readouterr().out == json.dumps(
            payloads[0], indent=2, sort_keys=True) + "\n", command
    monkeypatch.undo()
    assert_presentation_json_is_dict_dump(tmp_path, capsys, cycle_complex(m),
                                          "gon%d.json" % m)


@pytest.mark.parametrize("name", ["G(7,0.4) draw 1", "path on 4 vertices"])
def test_presentation_json_streams_dict_bytes(tmp_path, capsys, name):
    k = gnp_flag(7, 1, p=0.4) if name.startswith("G") else path_complex(4)
    assert_presentation_json_is_dict_dump(tmp_path, capsys, k, "k.json")
    if k.m == 4:  # no 1-cycles, so no relations
        assert main(["presentation", str(tmp_path / "k.json"), "--json"]) == 0
        assert '\n  "relations": [],\n' in capsys.readouterr().out


def random_payload(rng, depth=0):
    """A seeded JSON-ready container: half its values are containers down to
    depth 4, the rest leaves."""
    kind = rng.randrange(3) if depth == 0 else rng.randrange(
        0 if depth < 4 else 3, 6)
    if kind == 0:
        return {random_text(rng): random_payload(rng, depth + 1)
                for _ in range(rng.randrange(5))}
    if kind == 1:
        return [random_payload(rng, depth + 1)
                for _ in range(rng.randrange(5))]
    if kind == 2:
        return tuple(random_payload(rng, depth + 1)
                     for _ in range(rng.randrange(4)))
    return rng.choice([
        lambda: random_text(rng),
        lambda: rng.randrange(-10 ** 30, 10 ** 30),
        lambda: rng.choice([0, -1, 2 ** 64, -(2 ** 100)]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.uniform(-1e6, 1e6),
        lambda: rng.choice([0.0, -0.0, 1e300, 5e-324, 0.1, -2.5]),
        lambda: rng.choice([{}, [], ()]),
    ])()


def random_text(rng):
    alphabet = 'ab"\\/\n\t\r\x00\x1f\x7f é€\u2028\ud7ff\udc00\U0001f600'
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def test_write_json_matches_dumps_on_random_payloads():
    rng = random.Random(1402)
    for _ in range(400):
        payload = random_payload(rng)
        out = io.StringIO()
        cli.write_json(payload, out)
        assert out.getvalue() == json.dumps(
            payload, indent=2, sort_keys=True) + "\n", payload


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": 1, 2: "b"},
                                     [{"a": {None: 0}}]])
def test_write_json_refuses_non_str_keys(payload):
    with pytest.raises(TypeError):
        cli.write_json(payload, io.StringIO())


class Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_json_writes_in_bounded_chunks():
    payload = {"rows": [{"coeff": str(n), "word": ["u%d" % n] * 3}
                        for n in range(20000)]}
    fp = Recorder()
    cli.write_json(payload, fp)
    text = "".join(fp.writes)
    same = text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert same  # not compared in the assert: a diff of 4 MB takes minutes
    assert len(fp.writes) > 1
    assert max(map(len, fp.writes)) < len(text) // 4


def test_presentation_json_writes_in_bounded_chunks():
    pres = build_presentation(cycle_complex(8), ZZ, "multi")
    fp = Recorder()
    cli.write_presentation_json(pres, fp)
    text = "".join(fp.writes)
    same = text == json.dumps(presentation_to_dict(pres), indent=2,
                              sort_keys=True) + "\n"
    assert same
    assert len(fp.writes) > 1
    assert max(map(len, fp.writes)) < len(text) // 4


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


# malformed or borderline inputs: wrong JSON types, floats, bools, nested
# lists, empty or duplicate facets, ghost and out-of-range vertices, negative
# or huge m, a non-flag triangle, and text that is no JSON object at all
FUZZ_INPUTS = [json.dumps(payload) for payload in (
    [], "facets", None, {"facets": 5}, {"facets": {"1": 2}}, {"facets": [1, 2]},
    {"facets": [[1.0, 2]]}, {"facets": [[True, 2]]}, {"facets": [[[1], 2]]},
    {"facets": [["1", 2]]}, {"facets": []}, {"facets": [[]]},
    {"m": 0, "facets": []}, {"m": 1, "facets": [[1]]},
    {"facets": [[1, 2], [2, 1], [1, 2]]}, {"m": 4, "facets": [[1, 2], [2, 3]]},
    {"facets": [[0, 1]]}, {"facets": [[-1, 2]]}, {"m": 2, "facets": [[1, 5]]},
    {"facets": [[10 ** 20]]}, {"m": -3, "facets": []},
    {"m": 10 ** 12, "facets": [[1]]}, {"m": 1.5, "facets": [[1]]},
    {"m": True, "facets": [[1]]}, {"m": None, "facets": [[1, 2]]},
    {"facets": [[1, 2, 3]]}, {"facets": [[1, 2], [2, 3], [1, 3]]})] + [
    "", "{", "[1,", "NaN", "1e400",
    # deep enough that json's decoder raises RecursionError
    '{"m": 3, "facets": %s}' % ("[" * 1000 + "]" * 1000),
    "[" * 10 ** 5 + "]" * 10 ** 5]
ODD_RINGS = ["F1", "F4", "F", "F0", "F-3", "ZZ", "F2305843009213693951"]


def test_malformed_inputs_exit_cleanly(tmp_path, capsys):
    # seeded: every input under every command, four times with random
    # options, ends in exit 0, 2 or 3 and prints no traceback; argparse's
    # SystemExit(2) counts as exit 2
    rng = random.Random(2306)
    codes = set()
    for n, text in enumerate(FUZZ_INPUTS):
        path = tmp_path / ("in%d.json" % n)
        path.write_text(text)
        for command in ["analyze", "presentation", "homotopy", "verify",
                        "hilbert"]:
            for _ in range(4):
                ring = rng.choice(["Z", "Q", "F2", "F3"] if rng.random() < 0.75
                                  else ODD_RINGS)
                argv = [command, str(path), "--ring", ring,
                        "--trunc", rng.choice("01")]
                argv += [flag for flag in ("--json", "--skeleton-clique")
                         if rng.random() < 0.5]
                argv += ["--grading", "z"] if rng.random() < 0.5 else []
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                err = capsys.readouterr().err
                assert code in (0, 2, 3) and "Traceback" not in err, (
                    text, argv, code, err)
                codes.add(code)
    assert codes == {0, 2, 3}


def test_max_m_env(monkeypatch, pentagon_file, capsys):
    monkeypatch.setenv("LOOPPRES_MAX_M", "4")
    assert main(["analyze", pentagon_file]) == 2  # m=5 over the cap
    capsys.readouterr()
    monkeypatch.setenv("LOOPPRES_MAX_M", "junk")
    assert main(["analyze", pentagon_file]) == 2
    capsys.readouterr()


# sha256 of `analyze rp2.json --ring R --json` stdout, recorded from the
# cycle-representative homology scan that the invariant-factor scan replaced
RP2_ANALYZE_SHA256 = {
    "Z": "24febc767a354dc0f9c1cae6120a2b6c6c32a287246cb3860b99f7c9c69ed206",
    "F2": "76a74ee3d4c1c306ade04636d154178c97a4ecf03b4e6db01cf0994db5aa520e",
    "Q": "c8592b1393743238a2f324280c13f621fd38687f76ebf692ce583342a58e91f9",
    "F3": "9379ab6b2b6936d4510ff681ca295ef86946978ce08371e669d82b61a6ed6607",
}


@pytest.mark.parametrize("ring", sorted(RP2_ANALYZE_SHA256))
def test_analyze_rp2_torsion(tmp_path, capsys, ring):
    # H_1(RP^2) = Z/2: torsion over Z, a free class over F2, nothing over Q, F3
    path = write(tmp_path, "rp2.json", rp2_minimal().to_json_dict())
    assert main(["analyze", path, "--ring", ring, "--json"]) == 3  # not flag
    out = capsys.readouterr().out
    rows = {tuple(r["J"]): r for r in json.loads(out)["subsets"]}
    full = tuple(range(1, 7))
    if ring == "Z":
        assert rows[full]["h1_rank"] == 0 and rows[full]["h1_torsion"] == ["2"]
    elif ring == "F2":
        assert rows[full]["h1_rank"] == 1 and rows[full]["h1_torsion"] == []
    else:
        assert full not in rows
    assert all(r["h1_torsion"] == [] for j, r in rows.items() if j != full)
    assert hashlib.sha256(out.encode()).hexdigest() == RP2_ANALYZE_SHA256[ring]


def verify_json(tmp_path, capsys, k, ring):
    path = write(tmp_path, "k.json", k.to_json_dict())
    code = main(["verify", path, "--json", "--ring", ring])
    out = capsys.readouterr().out
    return code, out, {c["name"]: c for c in json.loads(out)["checks"]}


def test_verify_tor_row_fails_on_broken_dbar(monkeypatch, tmp_path, capsys):
    # the strand kernel writes dbar's columns; each loses its first term
    real = torbar.strand_columns

    def strand_dropping_a_term(faces, j_set, sizes):
        out = real(faces, j_set, sizes)
        for col in (col for cols in out for col in cols.values()):
            if len(col) > 1:
                del col[next(iter(col))]
        return out
    monkeypatch.setattr(torbar, "strand_columns", strand_dropping_a_term)
    code, _, checks = verify_json(tmp_path, capsys, cycle_complex(5), "Z")
    assert code == 1
    assert not checks["Tor strand cross-check"]["ok"]
    assert all(c["ok"] for name, c in checks.items()
               if name != "Tor strand cross-check")


@pytest.mark.parametrize("ring", ["Z", "F3"])
def test_verify_bar_cycles_cover_every_cycle(tmp_path, capsys, ring):
    # the bar-cycle loop lifts cycles only where the invariants are nonzero;
    # it must still see every generating cycle of H_0, H_1, H_2 of every K_J
    complexes = [cycle_complex(5), octahedron(), gnp_flag(7, 1),
                 gnp_flag(7, 2)]
    for k in complexes:
        want = sum(len(reduced_homology(k, j, GF(3) if ring == "F3" else ZZ,
                                        degree=n)[1])
                   for j in all_subsets(k.m) for n in (1, 2, 3))
        code, _, checks = verify_json(tmp_path, capsys, k, ring)
        assert code == 0
        assert checks["bar cycles closed"]["detail"] == (
            "%d/%d generating cycles" % (want, want)), k


# sha256 of `verify --json --ring R` stdout, recorded before the Tor
# cross-check and the bar-cycle loop read integer Smith invariants first
VERIFY_SHA256 = {
    ("7-gon", "Z"):
        "2d5618ed3480674d34b3e5caab6e531b7fe64dbba8e3664cef86d77d3aaf1d46",
    ("7-gon", "F3"):
        "2d5618ed3480674d34b3e5caab6e531b7fe64dbba8e3664cef86d77d3aaf1d46",
    ("octahedron", "Z"):
        "58011ff802e0ae55f34652430df570a7fcda34ffb242a9f27e3810b3800a777d",
}


@pytest.mark.parametrize("name,ring", sorted(VERIFY_SHA256))
def test_verify_json_pinned(tmp_path, capsys, name, ring):
    k = cycle_complex(7) if name == "7-gon" else octahedron()
    code, out, _ = verify_json(tmp_path, capsys, k, ring)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_SHA256[(name, ring)]


# sha256 of `verify --json --ring R` stdout at m = 8, recorded while the
# rewrites and relations were still evaluated through the normal form; the
# JSON names no ring, so Z, F3 and Q print the same bytes
VERIFY_M8_SHA256 = {
    ("8-gon", "Z"):
        "7985aa5c7a6aa1e1baa904b6eab594326c44fae7d9ef5804fcce7f2a8974b20b",
    ("8-gon", "F3"):
        "7985aa5c7a6aa1e1baa904b6eab594326c44fae7d9ef5804fcce7f2a8974b20b",
    ("8-gon", "Q"):
        "7985aa5c7a6aa1e1baa904b6eab594326c44fae7d9ef5804fcce7f2a8974b20b",
    ("G(8,0.4) seed 1", "Z"):
        "ed766459e77405a800daf8399a4c2dde092394b3f251228820147067a819c2ea",
    ("G(8,0.4) seed 1", "F3"):
        "ed766459e77405a800daf8399a4c2dde092394b3f251228820147067a819c2ea",
    ("G(8,0.4) seed 1", "Q"):
        "ed766459e77405a800daf8399a4c2dde092394b3f251228820147067a819c2ea",
}


@pytest.mark.parametrize("name,ring", sorted(VERIFY_M8_SHA256))
def test_verify_json_pinned_m8(tmp_path, capsys, name, ring):
    k = cycle_complex(8) if name == "8-gon" else gnp_flag(8, 1, p=0.4)
    code, out, _ = verify_json(tmp_path, capsys, k, ring)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_M8_SHA256[(name, ring)]


def test_verify_lifts_each_h1_once(monkeypatch, tmp_path, capsys):
    # the bar-cycle loop reads the H_1 cycles that the build lifted
    seen = []
    real = reduced_homology

    def counted(k, j_set, ring, degree):
        result = real(k, j_set, ring, degree)
        if not result[0].is_zero():
            seen.append((j_set, degree))
        return result
    monkeypatch.setattr(presentation, "reduced_homology", counted)
    for k in (cycle_complex(6), gnp_flag(7, 1, p=0.4), octahedron()):
        seen.clear()
        code, _, _ = verify_json(tmp_path, capsys, k, "Z")
        assert code == 0
        h1 = [key for key in seen if key[1] == 2]
        assert h1 and len(h1) == len(set(h1))


# sha256 of `presentation --json --ring R --grading G` stdout, recorded while
# the kernel coordinates of im d2 came from a third elimination that solved
# K*x = t; the cycle representatives must not move.  The multigraded seed-3
# cases have K_J with H_1 of rank 2, so they also pin the generator order
PRESENTATION_SHA256 = {
    ("hexagon", "Q", "multi"):
        "5f482d31e6cd9d099609128764728014a758b0ccef15caa26fff2094b4015306",
    ("hexagon", "F3", "multi"):
        "2c729cdaacc3596d3952c9315fc123642cea268de8d12b3ec7642d7a57958a8e",
    ("octahedron", "Q", "multi"):
        "d7f426590c1a296415a5eaf16d34f8a96b2762b5aee447155dd6c16d13d49143",
    ("octahedron", "F3", "multi"):
        "a1455a94a8ff608062ebdb5db8e9d0cfa836bd0cabc112e7b6e798634a3e2a70",
    ("G(7,0.5) seed 3", "Q", "multi"):
        "67eb5d25af7aedffbc258d084809bb48f2d80bd1454c28641430e154a2c17dbc",
    ("G(7,0.5) seed 3", "F3", "multi"):
        "02105822f937f604553edca074537e0240f167a0c944604bd82613b08e2eb60f",
    ("G(7,0.5) seed 3", "Z", "z"):
        "63eb6779dbb550b1c6ee07d70d42591bb2243a506f68fc9619f47f89deaf20dc",
    ("G(7,0.5) seed 3", "Q", "z"):
        "fe1c42c312fa5bc278368763718218a3d59ab4bfc2e9bb97d349990d126d2320",
}


@pytest.mark.parametrize("name,ring,grading", sorted(PRESENTATION_SHA256))
def test_presentation_json_pinned(tmp_path, capsys, name, ring, grading):
    k = {"hexagon": cycle_complex(6), "octahedron": octahedron(),
         "G(7,0.5) seed 3": gnp_flag(7, 3)}[name]
    path = write(tmp_path, "k.json", k.to_json_dict())
    assert main(["presentation", path, "--json", "--ring", ring,
                 "--grading", grading]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        PRESENTATION_SHA256[(name, ring, grading)]


@pytest.mark.parametrize("ring", ["F2", "F3"])
def test_render_relation_over_fields_matches_cli(tmp_path, capsys, ring):
    # the library renders a field relation over its own ring, as the CLI does
    k = cycle_complex(5)
    path = write(tmp_path, "k.json", k.to_json_dict())
    assert main(["presentation", path, "--ring", ring]) == 0
    printed = capsys.readouterr().out.splitlines()[-1].strip()
    (rel,) = build_presentation(k, GF(int(ring[1:]))).relations
    assert render_relation(k, rel) == printed
