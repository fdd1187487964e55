import errno
import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from polynorm import bounds, cli, invariants
from polynorm.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    cache_key,
    main,
    report_dict_for,
    run_check_suite,
)
from polynorm.catalog import bruns_gubeladze, cube

# The CSV header and the table layout are part of the output contract, so
# they are pinned here literally rather than derived from the report fields.
CSV_HEADER = (
    "name,dim,num_vertices,num_lattice_points,volume_normalized,degree,d_P,nu_P,"
    "m_P,k_P,very_ample,smooth,normal,gamma,m_prime,regularity,bounds.theorem,"
    "bounds.refined,bounds.smooth_corner,bounds.smooth_volume,bounds.smooth_min,"
    "bounds.mumford_general,bounds.mumford_table,bounds.sturmfels,"
    "bounds.sturmfels_kp,bounds.sturmfels_table,eg_rhs,eg_holds"
)

BRUNS4_TABLE = """\
name                bruns:4
dim                 3
num_vertices        8
num_lattice_points  8
volume_normalized   10
degree              2
d_P                 2
nu_P                2
m_P                 3
k_P                 3
very_ample          True
smooth              False
normal              False
gamma               undefined
m_prime             undefined
regularity          4
bounds:
  theorem           9             (bounds k_P)
  refined           3             (bounds k_P)
  smooth_corner     n/a           (bounds k_P)
  smooth_volume     n/a           (bounds k_P)
  smooth_min        n/a           (bounds k_P)
  mumford_general   34            (bounds reg)
  mumford_table     33            (bounds k_P)
  sturmfels         120           (bounds reg)
  sturmfels_kp      319           (bounds k_P)
  sturmfels_table   240           (bounds reg)
eg_rhs              6
eg_holds            True
witness hole: {"k": 2, "point": [1, 1, 3]}
witness sigma_max: {"x": [1, 1, 3], "vertex": [0, 0, 0], "parts": [[0, 0, 1], [0, 1, 1], [1, 0, 1]], "length": 3}
"""

REEVE_TABLE = """\
name                reeve
dim                 3
num_vertices        4
num_lattice_points  4
volume_normalized   2
degree              2
d_P                 2
nu_P                2
m_P                 undefined
k_P                 undefined
very_ample          False
smooth              False
normal              False
gamma               undefined
m_prime             undefined
regularity          undefined
bounds:
  theorem           n/a           (bounds k_P)
  refined           n/a           (bounds k_P)
  smooth_corner     n/a           (bounds k_P)
  smooth_volume     n/a           (bounds k_P)
  smooth_min        n/a           (bounds k_P)
  mumford_general   n/a           (bounds reg)
  mumford_table     n/a           (bounds k_P)
  sturmfels         n/a           (bounds reg)
  sturmfels_kp      n/a           (bounds k_P)
  sturmfels_table   n/a           (bounds reg)
eg_rhs              2
eg_holds            undefined
witness non_saturation: {"x": [1, 1, 1], "vertex": [0, 0, 0]}
"""

BRUNS4_CSV = (CSV_HEADER + "\r\n"
              + "bruns:4,3,8,8,10,2,2,2,3,3,True,False,False,,,4,9,3,,,,34,33,120,319,240,6,True\r\n")
REEVE_CSV = (CSV_HEADER + "\r\n"
             + "reeve,3,4,4,2,2,2,2,,,False,False,False,,,,,,,,,,,,,,2,\r\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_table_default(self, capsys):
        code, out, _ = run(capsys, "analyze", "bruns:4")
        assert code == EXIT_OK
        assert "k_P" in out and "regularity" in out
        assert "bounds k_P" in out

    def test_json_cube(self, capsys):
        code, out, _ = run(capsys, "analyze", "cube:3", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["k_P"] == 1
        assert data["volume_normalized"] == 6
        assert data["bound_targets"]["theorem"] == "k_P"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "analyze", "cube:2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("cube:2,2,4,4,2,")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "./missing.json")
        assert code == EXIT_INPUT
        assert "missing.json" in err

    def test_bad_family_parameters(self, capsys):
        code, _, err = run(capsys, "analyze", "bruns:2")
        assert code == EXIT_INPUT

    def test_require_kp_on_reeve(self, capsys):
        code, out, err = run(capsys, "analyze", "reeve", "--require-kp")
        assert code == EXIT_VIOLATION
        assert "not very ample" in err

    def test_file_inputs(self, capsys, tmp_path):
        jpath = tmp_path / "square.json"
        jpath.write_text('{"name": "sq", "vertices": [[0,0],[1,0],[0,1],[1,1]]}')
        code, out, _ = run(capsys, "analyze", str(jpath), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["name"] == "sq"
        tpath = tmp_path / "square.txt"
        tpath.write_text("# square\n0 0\n1 0\n0 1\n1 1\n")
        code, out, _ = run(capsys, "analyze", str(tpath), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["num_vertices"] == 4

    def test_non_full_dim_file(self, capsys, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert "full-dimensional" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "square.txt"
        path.write_bytes(b"\xff\xfe0 0\n1 0\n0 1\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    def test_points_without_coordinates(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"vertices": [[], []]}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {path}: points must have at least one coordinate\n"

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "0x1", "+-1"])
    def test_coordinates_are_ascii_integers(self, capsys, tmp_path, token):
        path = tmp_path / "triangle.txt"
        path.write_text(f"0 0\n{token} 0\n0 3\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == (f"error: {path}: line 2: coordinates must be integers, "
                       f"got {token!r}\n")

    def test_signed_coordinates(self, capsys, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text("+0 -0\n+3 0\n0 -3\n")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["num_vertices"] == 3

    def test_cube5_bytes(self, capsys):
        # sha256 of the output of the d-subset hull, which took about 20 s
        code, out, _ = run(capsys, "analyze", "cube:5", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8c6f233523568b8c8428dcd48940039153853d2efa997132eff872c9455c5292")
        p = cube(5)
        assert json.loads(out)["num_vertices"] == p.num_vertices == 32
        assert len(p.facets) == 10


EXPECTED_OUTPUT = {
    ("bruns:4", "table"): BRUNS4_TABLE,
    ("reeve", "table"): REEVE_TABLE,
    ("bruns:4", "csv"): BRUNS4_CSV,
    ("reeve", "csv"): REEVE_CSV,
}


class TestOutputContract:
    @pytest.mark.parametrize("spec, fmt", EXPECTED_OUTPUT)
    def test_exact_bytes(self, capsys, tmp_path, spec, fmt):
        expected = EXPECTED_OUTPUT[spec, fmt]
        code, out, _ = run(capsys, "analyze", spec, "--format", fmt)
        assert code == EXIT_OK
        assert out == expected
        # a cached report renders the same bytes
        cache = str(tmp_path / "cache")
        for _ in range(2):
            code, out, _ = run(capsys, "analyze", spec, "--format", fmt, "--cache-dir", cache)
            assert code == EXIT_OK
            assert out == expected


def damaged(entry: bytes, how: str) -> bytes:
    """A cache entry cut in half, or with its key and version kept and a
    value that is not a report."""
    if how == "truncated":
        return entry[:len(entry) // 2]
    stored = json.loads(entry)
    report = stored["value"]
    stored["value"] = {
        "value not a report": {"name": "x"},
        "value keys reordered": dict(reversed(report.items())),
        "value key added": {**report, "note": "hand-edited"},
    }[how]
    return json.dumps(stored).encode()


class TestCache:
    def test_transparent_and_byte_identical(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        _, plain, _ = run(capsys, "analyze", "bruns:4", "--format", "json")
        _, first, _ = run(capsys, "analyze", "bruns:4", "--format", "json",
                          "--cache-dir", str(cache))
        _, second, _ = run(capsys, "analyze", "bruns:4", "--format", "json",
                           "--cache-dir", str(cache))
        assert plain == first == second
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        assert files[0].stem == cache_key(bruns_gubeladze(4))

    def test_indented_entry_is_a_hit(self, capsys, tmp_path):
        # entries are written compact; one written with indentation, as
        # earlier versions did, is read as it is and stays a hit
        cache = tmp_path / "cache"
        _, plain, _ = run(capsys, "analyze", "bruns:4", "--format", "json")
        run(capsys, "analyze", "bruns:4", "--format", "json", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        stored = json.loads(entry.read_bytes())
        assert entry.read_bytes() == json.dumps(stored, separators=(",", ":")).encode()
        indented = json.dumps(stored, indent=2).encode()
        entry.write_bytes(indented)
        code, out, _ = run(capsys, "analyze", "bruns:4", "--format", "json",
                           "--cache-dir", str(cache))
        assert code == EXIT_OK
        assert out == plain
        assert entry.read_bytes() == indented
        assert list(cache.iterdir()) == [entry]

    def test_same_vertices_other_name_misses(self, capsys, tmp_path):
        # the report holds the name, so a vertex file with cube:2's vertices
        # must not be answered with cube:2's entry
        cache = tmp_path / "cache"
        square = tmp_path / "square.txt"
        square.write_text("0 0\n1 0\n0 1\n1 1\n")
        _, plain, _ = run(capsys, "analyze", str(square), "--format", "json")
        run(capsys, "analyze", "cube:2", "--format", "json", "--cache-dir", str(cache))
        _, cached, _ = run(capsys, "analyze", str(square), "--format", "json",
                           "--cache-dir", str(cache))
        assert json.loads(cached)["name"] == "square"
        assert cached == plain
        assert len(list(cache.glob("*.json"))) == 2

    def test_version_mismatch_recomputes(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, "analyze", "cube:2", "--format", "json", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        stored = json.loads(entry.read_text())
        stored["tool_version"] = "0.0.0"
        stored["value"]["k_P"] = 99
        entry.write_text(json.dumps(stored))
        _, out, _ = run(capsys, "analyze", "cube:2", "--format", "json",
                        "--cache-dir", str(cache))
        assert json.loads(out)["k_P"] == 1

    @pytest.mark.parametrize("corrupt", [
        b"[1]",
        b"\xff\xfe\x80 not utf-8 \xc3",
        "truncated",
        b'{"key": "other", "tool_version": "x", "value": {}}',
        "value not a report",
        "value keys reordered",
        "value key added",
    ])
    def test_corrupt_entry_recomputes(self, capsys, tmp_path, corrupt):
        cache = tmp_path / "cache"
        _, plain, _ = run(capsys, "analyze", "cube:2", "--format", "json")
        run(capsys, "analyze", "cube:2", "--format", "json", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        good = entry.read_bytes()
        if isinstance(corrupt, str):
            corrupt = damaged(good, corrupt)
        entry.write_bytes(corrupt)
        code, out, _ = run(capsys, "analyze", "cube:2", "--format", "json",
                           "--cache-dir", str(cache))
        assert code == EXIT_OK
        assert out == plain
        assert entry.read_bytes() == good
        assert list(cache.iterdir()) == [entry]

    def test_failed_write_leaves_old_entry(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        run(capsys, "analyze", "cube:2", "--format", "json", "--cache-dir", str(cache))
        entry = next(cache.glob("*.json"))
        entry.write_bytes(b"[1]")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError):
            main(["analyze", "cube:2", "--format", "json", "--cache-dir", str(cache)])
        assert list(cache.iterdir()) == [entry]
        assert entry.read_bytes() == b"[1]"

    def test_cache_dir_is_a_file(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        code, out, err = run(capsys, "analyze", "cube:2", "--format", "json",
                             "--cache-dir", str(blocker))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and str(blocker) in err
        assert blocker.read_text() == "x"

    def test_env_cache_dir(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("POLYNORM_CACHE", str(cache))
        run(capsys, "analyze", "cube:2", "--format", "json")
        assert len(list(cache.glob("*.json"))) == 1

    def test_threaded_writers_of_one_key(self, tmp_path):
        # each writer fills its own temporary file, so writes of one key from
        # threads of one process all land and leave one whole entry behind
        p = cube(2)
        key, data = cache_key(p), report_dict_for(p, None, cli.DEFAULT_MAX_K)
        path = tmp_path / f"{key}.json"
        errors = []

        def write():
            try:
                for _ in range(300):
                    cli._write_cache_entry(path, key, data)
            except Exception as e:  # collected, so the assertion names it
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert list(tmp_path.iterdir()) == [path]
        assert cli._read_cache_entry(path, key) == data


class TestMaxK:
    def test_env_cap_hit(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYNORM_MAX_K", "2")
        code, _, err = run(capsys, "analyze", "bruns:6")
        assert code == EXIT_VIOLATION
        assert "max_k" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYNORM_MAX_K", "2")
        code, _, _ = run(capsys, "analyze", "bruns:6", "--max-k", "30")
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ("analyze", "bruns:4"), ("analyze", "cube:2"), ("holes", "cube:2"),
        ("check", "cube:2"), ("explore", "--dim", "2", "--count", "1"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_flag_below_one_is_an_input_error(self, capsys, tmp_path, argv, value):
        store = ("--store", str(tmp_path / "r.jsonl")) if argv[0] == "explore" else ()
        code, out, err = run(capsys, *argv, *store, "--max-k", value)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: --max-k must be >= 1, got {value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_is_an_input_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POLYNORM_MAX_K", value)
        code, out, err = run(capsys, "analyze", "cube:2")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: POLYNORM_MAX_K must be >= 1, got {value}\n"
        # the flag still overrides the environment
        assert run(capsys, "analyze", "cube:2", "--max-k", "1")[0] == EXIT_OK

    @pytest.mark.parametrize("value", ["\u0662", "6_4", "\uff16\uff14"])
    def test_flag_is_an_ascii_integer(self, capsys, value):
        code, out, err = run(capsys, "analyze", "cube:2", "--max-k", value)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"argument --max-k: invalid integer value: {value!r}" in err
        # a sign and surrounding blanks are still allowed, as in vertex files
        assert run(capsys, "analyze", "cube:2", "--max-k", " +2")[0] == EXIT_OK

    @pytest.mark.parametrize("value", ["\u0662", "6_4", " 6_4 "])
    def test_env_is_an_ascii_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POLYNORM_MAX_K", value)
        code, out, err = run(capsys, "analyze", "cube:2")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: POLYNORM_MAX_K must be an integer, got {value!r}\n"

    @pytest.mark.parametrize("command", ["analyze", "check", "explore"])
    def test_help_names_the_cap(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert ("--max-k MAX_K safety cap for k-normality scans "
                "(default: $POLYNORM_MAX_K or 64)") in " ".join(capsys.readouterr().out.split())


class TestHoles:
    def test_bruns(self, capsys):
        code, out, _ = run(capsys, "holes", "bruns:4")
        assert code == EXIT_OK
        assert "k=2: 1 hole(s): (1, 1, 3)" in out

    def test_higashitani_counts(self, capsys):
        code, out, _ = run(capsys, "holes", "higashitani:3,2")
        assert "k=2: 2 hole(s)" in out

    def test_cube_no_holes(self, capsys):
        code, out, _ = run(capsys, "holes", "cube:3")
        assert code == EXIT_OK
        assert "hole(s)" not in out
        assert "no holes" in out

    def test_extended_range(self, capsys):
        code, out, _ = run(capsys, "holes", "cube:2", "--max-k", "4")
        assert out.count("no holes") == 4

    def test_non_very_ample_window(self, capsys):
        code, out, _ = run(capsys, "holes", "reeve")
        assert code == EXIT_OK
        assert "k_P = undefined" in out
        assert "k=2: 1 hole(s): (1, 1, 1)" in out

    def test_max_k_below_k_P_is_the_cap(self, capsys):
        # bruns:6 has k_P = 5
        code, out, err = run(capsys, "holes", "bruns:6", "--max-k", "2")
        assert code == EXIT_VIOLATION
        assert out == ""
        assert err == "error: k-normality scan reached the safety cap max_k=2\n"

    def test_max_k_above_k_P_extends_the_listing(self, capsys):
        code, out, _ = run(capsys, "holes", "bruns:6", "--max-k", "7")
        assert code == EXIT_OK
        listed = [line.split(":")[0] for line in out.splitlines()[1:]]
        assert listed == [f"k={k}" for k in range(1, 8)]
        assert "k=4: 10 hole(s)" in out and "k=5: no holes" in out

    def test_listed_holes_must_match_the_count(self, capsys, monkeypatch):
        # higashitani:3,3 has 3 holes at k = 2, so a witness survives the drop;
        # the decoder is patched once the report is built, as its m_P stage
        # lists the holes of 2P through it too
        decode, report = invariants.iter_holes, cli.full_report

        def report_then_drop_a_hole(*args, **kwargs):
            r = report(*args, **kwargs)
            monkeypatch.setattr(invariants, "iter_holes",
                                lambda p, k: itertools.islice(decode(p, k), 1, None))
            return r

        monkeypatch.setattr(cli, "full_report", report_then_drop_a_hole)
        with pytest.raises(AssertionError, match=r"listed 2 holes at k=2, counted 3 \(bug\)"):
            main(["holes", "higashitani:3,3"])

    def test_normality_must_not_be_lost(self, capsys, monkeypatch):
        # bruns:4 has d_P = 2 and k_P = 3; a hole at k = 4 contradicts k_P
        count = invariants.hole_count
        monkeypatch.setattr(invariants, "hole_count",
                            lambda p, k: count(p, k) or int(k == 4))
        with pytest.raises(AssertionError, match=r"normality lost from k=3 to 4 \(bug\)"):
            main(["holes", "bruns:4", "--max-k", "4"])


class TestCheck:
    def test_bruns5_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", "bruns:5")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_reeve_skips_kp_checks(self, capsys):
        code, out, _ = run(capsys, "check", "reeve")
        assert code == EXIT_OK
        assert "not very ample" in out
        assert "SKIP" in out

    def test_cube4_under_a_minute(self, capsys):
        start = time.monotonic()
        code, out, _ = run(capsys, "check", "cube:4")
        assert code == EXIT_OK
        assert time.monotonic() - start < 60

    def test_volume_oracles_still_enforced(self, capsys, monkeypatch):
        # check reports the volume that full_report compared with the
        # triangulation, so a disagreement must still stop the suite
        real = invariants.volume_triangulation
        monkeypatch.setattr(invariants, "volume_triangulation", lambda p: real(p) + 1)
        code, out, err = run(capsys, "check", "bruns:4")
        assert code == EXIT_INPUT
        assert "stage 'volume'" in err
        assert "volume_dual_oracle" not in out

    @pytest.mark.parametrize("command", ["analyze", "check"])
    def test_failed_report_self_check_is_a_stage_error(self, capsys, monkeypatch, command):
        # the report rejects a certified bound below k_P; that is a failure
        # of the bounds stage, one error line and no traceback
        monkeypatch.setattr(bounds, "theorem_bound", lambda m_P, d_P, n: 0)
        code, out, err = run(capsys, command, "bruns:4")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: stage 'bounds': certified bound theorem=0 < k_P (bug)\n"

    @pytest.mark.parametrize("spec", ["simplex:2", "simplex:3", "simplex:4", "cube:2", "reeve"])
    def test_d_P_le_deg_skipped_for_unimodular_simplex(self, capsys, spec):
        code, out, _ = run(capsys, "check", spec)
        skipped = spec.startswith("simplex:")
        assert code == EXIT_OK
        assert ("SKIP  d_P_le_deg  [unimodular simplex]" in out) == skipped
        assert ("PASS  d_P_le_deg" in out) != skipped

    def test_bruns36_bytes(self, capsys):
        # sha256 of the output of the frozenset sumset tower, which took
        # about 10 s and 480 MB; k_P = 35 needs the tower up to level 36
        code, out, _ = run(capsys, "check", "bruns:36")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "486fb47fe796b89cfaf2336b3133e0a05236f1d0a37a9cf3dbba43d36eed1ce9")
        assert "PASS  chain_dP_mP_kP  [d_P=2 m_P=35 k_P=35]" in out

    def test_suite_importable(self, poly):
        results, ok = run_check_suite(poly("higashitani:3,1"))
        assert ok
        names = [name for _, name, _ in results]
        assert "theorem_equality_iff_normal" in names


class TestExplore:
    def test_dim2_zero_flags(self, capsys, tmp_path):
        store = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "explore", "--dim", "2", "--count", "25",
                           "--seed", "11", "--store", str(store))
        assert code == EXIT_OK
        assert "flagged=0" in out
        assert "reverify_failures=0" in out
        assert not store.exists()

    def test_deterministic_stream(self, capsys, tmp_path):
        args = ("explore", "--dim", "3", "--count", "10", "--seed", "1",
                "--bound", "2", "--store", str(tmp_path / "r.jsonl"))
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_dim(self, capsys):
        code, _, err = run(capsys, "explore", "--dim", "5", "--count", "1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("flags, message", [
        (("--bound", "0", "--count", "1"), "explore needs --bound >= 1"),
        (("--count", "-3"), "explore needs --count >= 0"),
    ])
    def test_bad_arguments(self, capsys, tmp_path, flags, message):
        store = tmp_path / "r.jsonl"
        code, out, err = run(capsys, "explore", "--dim", "2", *flags, "--store", str(store))
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {message}\n"
        assert not store.exists()

    @pytest.mark.parametrize("where", ["directory", "under_file"])
    def test_unwritable_store(self, capsys, tmp_path, monkeypatch, where):
        monkeypatch.setattr(cli, "explore_flags", lambda p, report: ("oda_gap",))
        reports, compute = [], cli.full_report
        monkeypatch.setattr(cli, "full_report",
                            lambda p, **kw: reports.append(p.name) or compute(p, **kw))
        if where == "directory":
            store, reason = tmp_path, "is a directory"
        else:
            (tmp_path / "file").write_text("")
            store = tmp_path / "file" / "r.jsonl"
            reason = f"{tmp_path / 'file'} is not a directory"
        code, out, err = run(capsys, "explore", "--dim", "2", "--count", "1",
                             "--store", str(store))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: cannot write store {store}: {reason}\n")
        # rejected before the first sample is computed
        assert reports == []

    @pytest.mark.parametrize("where", ["relative", "under_missing_directories"])
    def test_writable_store(self, capsys, tmp_path, monkeypatch, where):
        # the store check walks up to the nearest existing ancestor and
        # accepts a directory there; the store is made only for a flagged sample
        monkeypatch.chdir(tmp_path)
        store = "r.jsonl" if where == "relative" else str(tmp_path / "a" / "b" / "c" / "r.jsonl")
        argv = ("explore", "--dim", "2", "--store", store)
        code, out, err = run(capsys, *argv, "--count", "2")
        assert (code, err) == (EXIT_OK, "") and "flagged=0" in out
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(cli, "explore_flags", lambda p, report: ("oda_gap",))
        code, out, err = run(capsys, *argv, "--count", "1")
        assert (code, err) == (EXIT_OK, "") and "flagged=1" in out
        assert len((tmp_path / store).read_text().splitlines()) == 1

    def test_store_path_the_os_refuses(self, capsys, tmp_path, monkeypatch):
        # a path component over 255 bytes: an error line, not a traceback
        monkeypatch.setattr(cli, "explore_flags", lambda p, report: ("oda_gap",))
        store = tmp_path / ("a" * 300) / "x.jsonl"
        code, out, err = run(capsys, "explore", "--dim", "2", "--count", "1",
                             "--store", str(store))
        assert (code, out) == (EXIT_INPUT, "")
        # the store check reports it on Python < 3.13, whose Path.exists
        # raises ENAMETOOLONG; from 3.13 on it returns False and the write fails
        assert err.startswith(f"error: cannot write store {store}: "
                              f"[Errno {errno.ENAMETOOLONG}] ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ("analyze",),
        ("analyze", "cube:2", "--max-k", "abc"),
        ("check", "cube:2", "--no-such-flag"),
        ("nosuch",),
        (),
    ])
    def test_usage_error_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert "usage: polynorm" in err and "error:" in err

    # the vertex files' integer rule; int() alone takes all of these
    @pytest.mark.parametrize("flag", ["--dim", "--count", "--seed", "--bound", "--max-k"])
    @pytest.mark.parametrize("value", ["\u0662", "1_0"])
    def test_integer_flags_are_ascii(self, capsys, tmp_path, flag, value):
        argv = {"--dim": "2", "--count": "1", "--seed": "1", "--bound": "2",
                "--store": str(tmp_path / "r.jsonl")}
        argv[flag] = value
        code, out, err = run(capsys, "explore", *itertools.chain(*argv.items()))
        assert code == EXIT_INPUT
        assert out == ""
        assert f"argument {flag}: invalid integer value: {value!r}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "analyze"])
    @pytest.mark.parametrize("spec", ["bruns:1_0", "cube:\u0663"])
    def test_family_parameters_are_ascii(self, capsys, command, spec):
        code, out, err = run(capsys, command, spec)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("holes", "bruns:20"), ("gen", "bruns:4")])
    def test_closed_pipe_ends_quietly(self, argv):
        # the reader is gone before the first write: holes fails inside its
        # listing, gen in the flush at the end of main
        src = os.path.dirname(os.path.dirname(cli.__file__))
        reader, writer = os.pipe()
        os.close(reader)
        try:
            child = subprocess.run([sys.executable, "-m", "polynorm.cli", *argv],
                                   env=dict(os.environ, PYTHONPATH=src), stdout=writer,
                                   stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(writer)
        assert child.returncode == EXIT_INPUT
        assert child.stderr == b""


class TestRepeatedMain:
    """main runs many commands in one process, as the benchmark and library
    callers do; no option value or other state carries over between calls."""

    ARGVS = (
        ("analyze", "bruns:4"),
        ("check", "reeve"),
        ("holes", "bruns:5", "--max-k", "5"),
        ("analyze", "cube:3", "--format", "csv"),
        ("explore", "--dim", "2", "--count", "5", "--seed", "3", "--bound", "0"),
        ("holes", "higashitani:3,2"),
        ("analyze", "reeve", "--require-kp", "--format", "json"),
        ("check", "bruns:4", "--max-k", "2"),
        ("explore", "--dim", "3", "--count", "4", "--seed", "2", "--bound", "2"),
        ("analyze", "nosuch"),
    )

    def test_results_do_not_depend_on_earlier_calls(self, capsys, tmp_path):
        store = str(tmp_path / "r.jsonl")
        argvs = [argv + ("--store", store) if argv[0] == "explore" else argv
                 for argv in self.ARGVS]
        forward = [run(capsys, *argv) for argv in argvs]
        backward = [run(capsys, *argv) for argv in reversed(argvs)]
        assert forward == backward[::-1]
        assert {code for code, _, _ in forward} == {EXIT_OK, EXIT_INPUT, EXIT_VIOLATION}

    def test_option_values_do_not_leak(self, capsys):
        code, out, err = run(capsys, "analyze", "bruns:6", "--max-k", "1")
        assert code == EXIT_VIOLATION
        assert "safety cap max_k=1" in err
        code, out, err = run(capsys, "analyze", "bruns:6")
        assert code == EXIT_OK and err == ""
        assert "k_P                 5" in out

    @pytest.mark.parametrize("base, option", [
        (("analyze", "bruns:4"), ("--format", "csv")),
        (("analyze", "bruns:4"), ("--cache-dir", "somewhere")),
        (("analyze", "bruns:4"), ("--require-kp",)),
        (("analyze", "bruns:4"), ("--max-k", "3")),
        (("holes", "bruns:4"), ("--max-k", "5")),
        (("check", "bruns:4"), ("--max-k", "2")),
        (("explore", "--dim", "2"), ("--count", "7")),
        (("explore", "--dim", "2"), ("--seed", "9")),
        (("explore", "--dim", "2"), ("--bound", "2")),
        (("explore", "--dim", "2"), ("--store", "elsewhere.jsonl")),
        (("explore", "--dim", "2"), ("--max-k", "4")),
    ], ids="_".join)
    def test_every_option_is_back_at_its_default(self, monkeypatch, base, option):
        # the command sees a namespace equal to a fresh parser's, with the
        # option set on one call and back at its default on the next
        seen = []
        monkeypatch.setattr(cli, f"cmd_{base[0]}", lambda args: seen.append(vars(args)) or 0)
        for argv in (base + option, base, base + option, base):
            assert main(list(argv)) == EXIT_OK
            assert seen.pop() == vars(cli.build_parser().parse_args(list(argv)))
        default = vars(cli.build_parser().parse_args(list(base)))
        assert vars(cli.build_parser().parse_args(list(base + option))) != default

    @pytest.mark.parametrize("argv", [("--help",), ("analyze", "--help"), ("explore", "--help")])
    def test_help_follows_columns_on_every_call(self, capsys, monkeypatch, argv):
        texts = {}
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            for parse in (main, cli.build_parser().parse_args):
                with pytest.raises(SystemExit) as info:
                    parse(list(argv))
                assert info.value.code == 0
                out, err = capsys.readouterr()
                assert err == ""
                texts.setdefault(columns, set()).add(out)
        assert len(texts["40"]) == len(texts["200"]) == 1
        assert texts["40"] != texts["200"]

    @pytest.mark.parametrize("argv", [("analyze",), ("explore", "--dim", "x"), ("bogus",)])
    def test_usage_errors_are_the_same_on_every_call(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(list(argv))
        assert info.value.code == 2
        expected = capsys.readouterr()
        assert expected.out == "" and expected.err.startswith("usage: polynorm")
        for _ in range(3):
            assert run(capsys, *argv) == (EXIT_INPUT, "", expected.err)

    @pytest.mark.parametrize("argv", [("--version",), ("--help",), ("check", "--help")])
    def test_next_call_after_system_exit(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 0
        assert capsys.readouterr().out
        assert run(capsys, "analyze", "bruns:4") == (EXIT_OK, BRUNS4_TABLE, "")


class TestDispatch:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "gen", "cube:2") == (EXIT_OK, "# cube:2\n0 0\n0 1\n1 0\n1 1\n", "")

    def test_command_is_looked_up_at_call_time(self, capsys, monkeypatch):
        assert run(capsys, "gen", "cube:2")[0] == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_gen", lambda args: calls.append(args.family) or EXIT_VIOLATION)
        assert run(capsys, "gen", "cube:3") == (EXIT_VIOLATION, "", "")
        assert calls == ["cube:3"]


# Command lines for the one-parse oracle, each with whether it reaches the
# top-level parser: valid lines do not, nor do usage errors and --help inside
# a command; top-level flags, unknown commands, "--", an argument starting
# with "--=" and leftover arguments do.  "{tmp}" is a fresh directory.
ONE_PARSE_ORACLE = (
    (("gen", "cube:2"), False),
    (("gen", "bruns:4"), False),
    (("analyze", "cube:2"), False),
    (("analyze", "cube:2", "--format=json"), False),
    (("analyze", "cube:2", "--format", "csv", "--format", "table"), False),
    (("analyze", "--form", "csv", "cube:2"), False),
    (("analyze", "cube:2", "--max-k=3", "--max-k", "5"), False),
    (("analyze", "cube:2", "--max", "4"), False),
    (("analyze", "--cache-dir={tmp}/cache", "cube:2", "--format=json"), False),
    (("analyze", "reeve", "--require-kp"), False),
    (("analyze", "nosuch"), False),
    (("check", "cube:2"), False),
    (("check", "reeve", "--max-k=2"), False),
    (("holes", "bruns:4"), False),
    (("holes", "--max=5", "bruns:4"), False),
    (("explore", "--dim", "2", "--count", "2", "--seed", "3", "--store", "{tmp}/r.jsonl"), False),
    (("explore", "--dim=2", "--count=2", "--bound=2", "--seed=3", "--seed=-4",
      "--store={tmp}/r.jsonl"), False),
    (("explore", "--dim", "5", "--count", "1", "--store", "{tmp}/r.jsonl"), False),
    (("gen", "cube:x"), False),
    (("analyze", "-h"), False),
    (("explore", "--help"), False),
    (("gen", "-h", "cube:2"), False),
    (("check", "--he"), False),
    (("gen", "cube:2", "-h"), False),
    (("analyze",), False),
    (("analyze", "cube:2", "--max-k"), False),
    (("analyze", "cube:2", "--max-k", "abc"), False),
    (("analyze", "cube:2", "--format", "xml"), False),
    (("analyze", "cube:2", "--require-kp=yes"), False),
    (("explore", "--count", "1"), False),
    (("explore", "--dim"), False),
    (("gen",), False),
    (("gen", "--version"), False),
    (("gen", "-hx"), False),
    (("analyze", "cube:2", "--no-such-flag"), True),
    (("check", "cube:2", "extra"), True),
    (("gen", "cube:2", "cube:3"), True),
    (("explore", "--dim", "2", "-x", "--store", "{tmp}/r.jsonl"), True),
    (("gen", "cube:2", "--version"), True),
    (("holes", "bruns:4", "--vers"), True),
    (("gen", "--=x"), True),
    (("analyze", "cube:2", "--=json"), True),
    (("--", "gen", "cube:2"), True),
    (("gen", "--", "cube:2"), True),
    (("gen", "cube:2", "--"), True),
    (("analyze", "--", "-x"), True),
    ((), True),
    (("--version",), True),
    (("--vers",), True),
    (("-h",), True),
    (("--help", "gen"), True),
    (("--vers", "gen", "cube:2"), True),
    (("-x", "gen", "cube:2"), True),
    (("nosuch",), True),
    (("ANALYZE", "cube:2"), True),
    (("Gen", "cube:2"), True),
)


class TestOneParse:
    """main parses a command line once, with its command's own parser; the
    top-level parse it replaced is the oracle."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = ("SystemExit", e.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv, reaches_top_level", ONE_PARSE_ORACLE,
                             ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
    def test_same_as_the_top_level_route(self, capsys, tmp_path, monkeypatch,
                                         argv, reaches_top_level):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        parse_args, calls = cli._PARSER.parse_args, []
        monkeypatch.setattr(cli._PARSER, "parse_args",
                            lambda *a, **kw: calls.append(a) or parse_args(*a, **kw))
        got = self.outcome(capsys, argv)
        assert bool(calls) == reaches_top_level
        # the route main took before: with no command parsers to pick from,
        # main hands every command line to a freshly built top-level parser
        monkeypatch.setattr(cli, "_COMMAND_PARSERS", {})
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        assert got == self.outcome(capsys, argv)


class TestGen:
    def test_roundtrip_through_analyze(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "bruns:4")
        assert code == EXIT_OK
        path = tmp_path / "bruns.txt"
        path.write_text(out)
        code, out2, _ = run(capsys, "analyze", str(path), "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out2)
        assert data["k_P"] == 3 and data["num_lattice_points"] == 8

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "dodecahedron:12")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("spec", ["random:5,3,9,1", "cube:0"])
    def test_bad_family_parameters_as_in_analyze(self, capsys, spec):
        code, out, err = run(capsys, "gen", spec)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: bad family parameters {spec!r}: ")
        assert err.count("\n") == 1
        assert run(capsys, "analyze", spec) == (code, out, err)

    @pytest.mark.parametrize("command", ["analyze", "check", "holes"])
    @pytest.mark.parametrize("spec", ["cube:x", "cube:3,4", "reeve:1", "cube"])
    def test_bad_parameters_of_a_known_family_as_in_gen(self, capsys, command, spec):
        code, out, err = run(capsys, "gen", spec)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith(f"error: family {spec.split(':')[0]!r} ")
        assert run(capsys, command, spec) == (code, out, err)

    @pytest.mark.parametrize("command", ["analyze", "check", "holes"])
    def test_input_path_the_os_refuses(self, capsys, tmp_path, command):
        # a path component over 255 bytes names no file
        text = str(tmp_path / ("c" * 300))
        assert run(capsys, command, text) == (EXIT_INPUT, "",
                                              f"error: no such file or family: {text}\n")

    def test_files_before_family_errors(self, capsys, tmp_path, monkeypatch):
        # an existing file is read although its name starts like a family
        # spec, and an unknown family that names no file is a missing file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cube:x").write_text("0 0\n1 0\n0 1\n")
        code, out, _ = run(capsys, "analyze", "cube:x", "--format", "csv")
        assert code == EXIT_OK and out.splitlines()[1].startswith("cube:x,2,3,3,1,")
        code, _, err = run(capsys, "analyze", "nope:1")
        assert code == EXIT_INPUT
        assert err == "error: no such file or family: nope:1\n"
