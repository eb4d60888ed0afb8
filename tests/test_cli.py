import json

import pytest

from parthom.cli import main
from parthom.errors import ConcentrationError, ModuleCheckError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_beta_multiplicity_row(capsys):
    code, out = run(
        capsys, "beta", "--n", "7", "--ranks", "2,4,5",
        "--mult", "trivial,refl", "--format", "tsv", "--no-cache",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == ["n", "S", "trivial", "refl"]
    assert lines[1].split("\t") == ["7", "2,4,5", "5", "23"]


def test_table_bs_rows_sum_to_euler(capsys):
    code, out = run(capsys, "table", "--family", "bS", "--n", "5",
                    "--format", "tsv", "--no-cache")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split("\t")
    assert header == ["n", "S", "a_S", "a'_S", "b_S", "b'_S"]
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 2 ** 3
    assert rows[0][1] == "-"  # empty rank set
    assert sum(int(r[4]) for r in rows) == 5  # E_4
    assert sum(int(r[5]) for r in rows) == 16  # E_5


def test_check_suite_exit_codes(capsys):
    code, out = run(capsys, "check", "--suite", "conj-3.9", "--max-n", "7",
                    "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["failures"] == []


def test_check_failure_witness_is_machine_readable(capsys, monkeypatch):
    # force a failure by shrinking a sequence value behind the suite's back
    import parthom.checks as checks

    real = checks.simsun

    def broken(i, n):
        return 0 if (i, n) == (2, 4) else real(i, n)

    monkeypatch.setattr(checks, "simsun", broken)
    code, out = run(capsys, "check", "--suite", "conj-3.9", "--max-n", "2",
                    "--format", "json", "--no-cache")
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]
    assert data["failures"][0]["witness"]["i"] == 2


def test_alpha_symfunc_output(capsys):
    code, out = run(capsys, "alpha", "--n", "4", "--ranks", "1,2",
                    "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["symfunc"]["basis"] == "h"
    assert data["dimension"] == "18"


def test_homology_json(capsys):
    code, out = run(capsys, "homology", "--n", "5", "--poset", "qnk:k=3",
                    "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["view"] == "qnk:k=3,n=5"
    assert data["betti"]["1"] == 16


def test_euler_simsun_bi_tables(capsys):
    code, out = run(capsys, "euler", "--max-n", "6", "--format", "tsv", "--no-cache")
    assert code == 0
    assert out.strip().split("\n")[-1] == "6\t61"
    code, out = run(capsys, "simsun", "--max-n", "4", "--format", "tsv", "--no-cache")
    assert code == 0
    assert "a_i(n)" in out
    code, out = run(capsys, "bi", "--max-n", "4", "--format", "tsv", "--no-cache")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("4\t4")


def test_sequence_commands_match_table(capsys):
    for family in ("euler", "simsun", "bi"):
        _, out1 = run(capsys, family, "--max-n", "8", "--format", "tsv")
        _, out2 = run(capsys, "table", "--family", family, "--max-n", "8",
                      "--format", "tsv", "--no-cache")
        assert out1 == out2, family


def test_sf_families(capsys):
    code, out = run(capsys, "sf", "--family", "lie", "--n", "4", "--basis", "s",
                    "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == "6"
    code, out = run(capsys, "sf", "--family", "whitehouse", "--n", "5", "--k", "4",
                    "--format", "pretty", "--no-cache")
    assert code == 0
    assert "dimension 6" in out  # 5!/4 - 4!


def test_report_stability(capsys):
    code, out = run(capsys, "report", "--family", "stability", "--ranks", "2",
                    "--k", "0", "--max-n", "7", "--format", "json", "--no-cache")
    assert code == 0
    data = json.loads(out)
    assert data["passed"]


def test_stability_report_over_no_n_exit_2(capsys):
    # --max-n below max(S) + 2 leaves no ground size to report on
    code, out = run(capsys, "report", "--family", "stability", "--ranks", "2",
                    "--k", "1", "--max-n", "2", "--format", "json", "--no-cache")
    assert code == 2 and out == ""
    code, out = run(capsys, "report", "--family", "stability", "--ranks", "2",
                    "--k", "1", "--max-n", "4", "--format", "json", "--no-cache")
    assert code == 0 and [row["n"] for row in json.loads(out)["rows"]] == [4]


def test_degree_bound_refused_before_first_rank_set(capsys, monkeypatch):
    import parthom.checks as checks
    import parthom.reps as reps

    calls = []
    real = checks.multiplicities

    def counted(n, ranks):
        calls.append((n, ranks))
        return real(n, ranks)

    monkeypatch.setattr(checks, "multiplicities", counted)
    monkeypatch.setattr(reps, "MAX_DEGREE", 6)
    for suite in ("euler", "hh"):
        code = main(["check", "--suite", suite, "--max-n", "7", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", suite
        assert captured.err == "error: degree 7 exceeds supported bound 6\n"
    assert calls == []


def test_suite_degree_refused_before_first_check(capsys, monkeypatch):
    # conj-3.7 and even reach degree 2 max-n, orbit degree max-n
    import parthom.checks as checks
    import parthom.reps as reps

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for name in ("homology_characteristic", "chain_characteristic"):
        monkeypatch.setattr(checks, name, counted(getattr(checks, name)))
    monkeypatch.setattr(reps, "MAX_DEGREE", 6)
    for suite, max_n, degree in (("conj-3.7", "4", 8), ("even", "4", 8), ("orbit", "7", 7)):
        code = main(["check", "--suite", suite, "--max-n", max_n, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", suite
        assert captured.err == f"error: degree {degree} exceeds supported bound 6\n"
    assert calls == []


def test_stability_report_refuses_max_n_past_bound_up_front(capsys, monkeypatch):
    # the shift identities at n = max-n need degree max-n + 1
    import parthom.checks as checks
    import parthom.reps as reps

    calls = []
    real = checks.multiplicities

    def counted(n, ranks):
        calls.append((n, ranks))
        return real(n, ranks)

    monkeypatch.setattr(checks, "multiplicities", counted)
    monkeypatch.setattr(reps, "MAX_DEGREE", 6)
    code = main(["report", "--family", "stability", "--ranks", "2", "--k", "1",
                 "--max-n", "6", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --max-n 6 needs degree 7 for the shift identities; "
                            "the supported bound is 6\n")
    assert calls == []
    assert main(["report", "--family", "stability", "--ranks", "2", "--k", "1",
                 "--max-n", "5", "--no-cache"]) == 0


def test_invalid_input_exit_2(capsys):
    assert main(["alpha", "--n", "30", "--ranks", "1", "--no-cache"]) == 2
    assert main(["homology", "--n", "6", "--poset", "bogus", "--no-cache"]) == 2
    # a reversed range is malformed, not the empty rank set
    assert main(["beta", "--n", "6", "--ranks", "3-1", "--no-cache"]) == 2
    assert capsys.readouterr().out == ""


def test_table_bs_refuses_ground_size_below_2(capsys, monkeypatch):
    import parthom.cli as cli

    calls = []
    monkeypatch.setattr(cli, "multiplicities", lambda n, S: calls.append(S))
    for n in ("-3", "0", "1"):
        code = main(["table", "--family", "bS", "--n", n, "--format", "json", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", n
        assert captured.err == f"error: table --family bS needs a ground size --n >= 2, got {n}\n"
    assert calls == []
    monkeypatch.undo()
    # n = 2 has one rank set, the empty one
    code, out = run(capsys, "table", "--family", "bS", "--n", "2", "--format", "json", "--no-cache")
    assert code == 0 and [row["S"] for row in json.loads(out)["rows"]] == [[]]


def test_check_suite_that_checks_nothing_exit_2(capsys):
    for suite, max_n in (("even", "1"), ("method", "2"), ("conj-3.9", "1")):
        code, out = run(capsys, "check", "--suite", suite, "--max-n", max_n,
                        "--format", "json", "--no-cache")
        assert code == 2 and out == "", suite
    # the smallest bound that checks something still passes
    code, out = run(capsys, "check", "--suite", "method", "--max-n", "3",
                    "--format", "json", "--no-cache")
    assert code == 0 and json.loads(out)["checked"] > 0


def test_cache_round_trip(tmp_path, capsys):
    # a hit must print the bytes of the miss that stored it, in every format:
    # tsv columns and pretty multiplicity keys keep their build order
    commands = (
        ["homology", "--n", "4", "--poset", "full"],
        ["table", "--family", "bS", "--n", "5"],
        ["beta", "--n", "7", "--ranks", "2,4,5", "--mult", "trivial,refl"],
    )
    for i, command in enumerate(commands):
        for fmt in ("json", "tsv", "pretty"):
            cache_dir = tmp_path / f"{i}-{fmt}"
            argv = [*command, "--format", fmt, "--cache-dir", str(cache_dir)]
            code1, out1 = run(capsys, *argv)
            code2, out2 = run(capsys, *argv)
            assert code1 == code2 == 0
            assert out1 == out2, (command, fmt)
            cached = list(cache_dir.rglob("*.json"))
            assert len(cached) == 1


def test_cache_entry_of_other_code_not_served(tmp_path, capsys, monkeypatch):
    import parthom.cache as cache

    argv = ["sf", "--family", "lie", "--n", "4", "--format", "json",
            "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cache, "code_hash", lambda: "0" * 64)
    _, out = run(capsys, *argv)
    # tamper with the entry so that serving it would show
    entry = next(tmp_path.rglob("*.json"))
    entry.write_text(json.dumps(dict(json.loads(out), dimension="-1")))
    assert run(capsys, *argv)[1] != out
    monkeypatch.undo()
    assert run(capsys, *argv) == (0, out)
    assert len(list(tmp_path.rglob("*.json"))) == 2


def test_equal_rank_sets_share_one_cache_entry(tmp_path, capsys):
    outputs = set()
    for ranks in ("1,3", "3,1", "1-1,3"):
        code, out = run(capsys, "beta", "--n", "6", "--ranks", ranks, "--mult", "trivial",
                        "--format", "tsv", "--cache-dir", str(tmp_path))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert len(list(tmp_path.rglob("*.json"))) == 1


@pytest.mark.parametrize("error", [ModuleCheckError, ConcentrationError, AssertionError])
def test_internal_failure_exit_3(capsys, monkeypatch, error):
    import parthom.cli as cli

    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(cli, "homology_characteristic", broken)
    assert main(["beta", "--n", "6", "--ranks", "1,3", "--no-cache"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_corrupt_cache_entry_recomputed(tmp_path, capsys):
    argv = ["euler", "--max-n", "3", "--format", "json"]
    # euler is uncached; use a cached command instead
    argv = ["sf", "--family", "lie", "--n", "3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1 = run(capsys, *argv)
    entry = next(tmp_path.rglob("*.json"))
    entry.write_text("{ not json")
    code2, out2 = run(capsys, *argv)
    assert code2 == 0 and out2 == out1


def test_jobs_do_not_change_bytes(capsys):
    _, out1 = run(capsys, "table", "--family", "bS", "--n", "4",
                  "--format", "tsv", "--no-cache", "--jobs", "1")
    _, out2 = run(capsys, "table", "--family", "bS", "--n", "4",
                  "--format", "tsv", "--no-cache", "--jobs", "2")
    assert out1 == out2


def test_stability_tsv_handles_missing_columns(capsys):
    # the two-row Schur column only exists once n >= 2k; earlier rows render "-"
    code, out = run(capsys, "report", "--family", "stability", "--ranks", "1",
                    "--k", "2", "--max-n", "5", "--format", "tsv", "--no-cache")
    assert code == 0
    lines = out.strip().split("\n")
    assert "alpha_two_row" in lines[0]
    first = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    assert first["alpha_two_row"] == "-"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.tsv"
    code, out = run(capsys, "euler", "--max-n", "4", "--format", "tsv",
                    "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().split("\n")[-1] == "4\t5"
