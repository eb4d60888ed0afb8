import json
import sys

import pytest

from parthom import cache, reps
from parthom.cli import main
from parthom.errors import ConcentrationError, ModuleCheckError
from parthom.reps import euler_number


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


@pytest.mark.parametrize("method", ["recurrence", "chains"])
def test_multiplicity_row_matches_the_schur_coefficients(capsys, method):
    # --mult pairs class values; --basis s reads the Schur table
    base = ["beta", "--n", "7", "--ranks", "2,4", "--method", method, "--no-cache"]
    code, out = run(capsys, *base, "--mult", "trivial,refl", "--format", "json")
    assert code == 0
    mult = json.loads(out)["multiplicities"]
    code, out = run(capsys, *base, "--basis", "s", "--format", "json")
    assert code == 0
    coeffs = {tuple(t["partition"]): int(t["coeff"]) for t in json.loads(out)["symfunc"]["terms"]}
    assert mult == {"trivial": coeffs.get((7,), 0),
                    "refl": coeffs.get((7,), 0) + coeffs.get((6, 1), 0)}
    assert mult["refl"] > 0


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
    code, out = run(capsys, "table", "--family", "euler", "--max-n", "6",
                    "--format", "tsv", "--no-cache")
    assert code == 0
    assert out.strip().split("\n")[-1] == "6\t61"
    code, out = run(capsys, "table", "--family", "simsun", "--max-n", "4",
                    "--format", "tsv", "--no-cache")
    assert code == 0
    assert "a_i(n)" in out
    code, out = run(capsys, "table", "--family", "bi", "--max-n", "4",
                    "--format", "tsv", "--no-cache")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("4\t4")


def test_sequence_commands_are_gone(capsys):
    # euler, simsun and bi repeated table --family NAME --max-n and are removed
    for family in ("euler", "simsun", "bi"):
        with pytest.raises(SystemExit) as exc:
            main([family, "--max-n", "8", "--format", "tsv", "--no-cache"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", family
        assert "invalid choice: " + repr(family) in captured.err, family


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
    import parthom.errors as errors

    calls = []
    real = checks.multiplicities

    def counted(n, ranks):
        calls.append((n, ranks))
        return real(n, ranks)

    monkeypatch.setattr(checks, "multiplicities", counted)
    monkeypatch.setitem(errors.BOUNDS, "degree", 6)
    for suite in ("euler", "hh"):
        code = main(["check", "--suite", suite, "--max-n", "7", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", suite
        assert captured.err == "error: degree 7 exceeds supported bound 6\n"
    assert calls == []


def test_suite_degree_refused_before_first_check(capsys, monkeypatch):
    # conj-3.7 and even reach degree 2 max-n, orbit degree max-n
    import parthom.checks as checks
    import parthom.errors as errors

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for name in ("homology_characteristic", "class_values", "even_block_characteristic",
                 "pair_orbit_values"):
        monkeypatch.setattr(checks, name, counted(getattr(checks, name)))
    monkeypatch.setitem(errors.BOUNDS, "degree", 6)
    for suite, max_n, degree in (("conj-3.7", "4", 8), ("even", "4", 8), ("orbit", "7", 7)):
        code = main(["check", "--suite", suite, "--max-n", max_n, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", suite
        assert captured.err == f"error: degree {degree} exceeds supported bound 6\n"
    assert calls == []


def test_stability_report_refuses_max_n_past_bound_up_front(capsys, monkeypatch):
    # the shift identities at n = max-n need degree max-n + 1
    import parthom.checks as checks
    import parthom.errors as errors

    calls = []
    real = checks.multiplicities

    def counted(n, ranks):
        calls.append((n, ranks))
        return real(n, ranks)

    monkeypatch.setattr(checks, "multiplicities", counted)
    monkeypatch.setitem(errors.BOUNDS, "degree", 6)
    code = main(["report", "--family", "stability", "--ranks", "2", "--k", "1",
                 "--max-n", "6", "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --max-n 6 needs degree 7 for the shift identities; "
                            "the supported bound is 6\n")
    assert calls == []
    assert main(["report", "--family", "stability", "--ranks", "2", "--k", "1",
                 "--max-n", "5", "--no-cache"]) == 0


def test_method_suite_builds_each_rank_selected_view_once(capsys, monkeypatch):
    # the chain path's class values are memoized per (n, ranks), so the beta
    # inclusion-exclusion reuses the alphas; n = 3..6 has 2 + 4 + 8 + 16 rank sets
    import parthom.poset as poset
    import parthom.reps as reps

    builds = []
    real = poset.PosetView.__init__

    def counted(self, n, spec, *args, **kwargs):
        builds.append((n, spec))
        real(self, n, spec, *args, **kwargs)

    monkeypatch.setattr(poset.PosetView, "__init__", counted)
    reps._fixed_chain_values.cache_clear()
    code, out = run(capsys, "check", "--suite", "method", "--max-n", "6",
                    "--format", "json", "--no-cache")
    assert code == 0 and json.loads(out)["passed"]
    assert len(builds) == len(set(builds)) == 30


def test_invalid_input_exit_2(capsys):
    assert main(["alpha", "--n", "30", "--ranks", "1", "--no-cache"]) == 2
    assert main(["homology", "--n", "6", "--poset", "bogus", "--no-cache"]) == 2
    # a reversed range is malformed, not the empty rank set
    assert main(["beta", "--n", "6", "--ranks", "3-1", "--no-cache"]) == 2
    assert capsys.readouterr().out == ""


def test_malformed_rank_sets_and_view_parameters_exit_2(capsys):
    # each rank is ASCII digits: int() would also read 1_0 as 10 and an
    # Arabic-Indic two as 2, and fail on the rest with its own text
    commands = [
        (["beta", "--n", "6", "--ranks", ranks], f"malformed rank set {ranks!r}")
        for ranks in ("1-2-3", "1-", "1,,2", "1_0", "٢", "+1")
    ]
    # '-' is the one spelling of the empty selection; an empty text is not
    commands += [(["alpha", "--n", "5", "--ranks", ranks], "malformed rank set ''")
                 for ranks in ("", " ")]
    commands += [
        (["homology", "--n", "5", "--poset", "ranks:"], "malformed rank set ''"),
        (["homology", "--n", "6", "--poset", "ranks:1-"], "malformed rank set '1-'"),
        (["report", "--family", "stability", "--ranks", "1_0", "--k", "1", "--max-n", "5"],
         "malformed rank set '1_0'"),
    ]
    commands += [
        (["homology", "--n", "6", "--poset", spec], f"malformed view parameter in {spec!r}")
        for spec in ("qnk:k=", "le:k=+2", "le:k=1_0", "ne:k=٣", "pnk:k=--3", "full:k=2",
                     "even:k=2", "full:", "even:", "qnk:")
    ]
    for argv, message in commands:
        code = main([*argv, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: {message}\n", argv


def test_integer_options_read_ascii_digits_only(capsys):
    # the grammar of k= and of ranks; int() would read an Arabic-Indic five
    # as 5, 1_0 as 10 and +3 as 3
    for argv, option, text in [
        (["homology", "--n", "٥", "--poset", "full"], "--n", "٥"),
        (["report", "--family", "le", "--n", "1_0", "--k", "2"], "--n", "1_0"),
        (["report", "--family", "le", "--n", "7", "--k", "+2"], "--k", "+2"),
        (["table", "--family", "euler", "--max-n", "+3"], "--max-n", "+3"),
        (["check", "--suite", "even", "--max-n", "4 4"], "--max-n", "4 4"),
        (["sf", "--family", "lie", "--n", "4", "--jobs", "2.0"], "--jobs", "2.0"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-cache"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == "", argv
        assert f"argument {option}: invalid int value: {text!r}\n" in captured.err, argv
    # a leading minus keeps its range message, and whitespace around is read
    for argv, message in [
        (["report", "--family", "le", "--n", "7", "--k", "-1"], "need 2 <= k <= n-1, got k=-1, n=7"),
        (["table", "--family", "bS", "--n", "-3"],
         "table --family bS needs a ground size --n >= 2, got -3"),
    ]:
        assert main([*argv, "--no-cache"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
    assert main(["sf", "--family", "lie", "--n", " 4 ", "--jobs", "2", "--no-cache"]) == 0


def test_alpha_offers_only_its_own_methods(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--n", "5", "--ranks", "1,2", "--method", "inclusion_exclusion"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "invalid choice: 'inclusion_exclusion'" in captured.err
    helps = {}
    for name in ("alpha", "beta"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        helps[name] = capsys.readouterr().out
    assert "inclusion_exclusion" not in helps["alpha"] and "chains" in helps["alpha"]
    assert "inclusion_exclusion" in helps["beta"]


def test_table_bs_refuses_ground_size_below_2(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(reps, "multiplicities", lambda n, S: calls.append(S))
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


def test_mult_refused_below_ground_size_2(capsys):
    for command in ("alpha", "beta"):
        for n in ("0", "1"):
            code = main([command, "--n", n, "--ranks", "-", "--mult", "trivial", "--no-cache"])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", (command, n)
            assert captured.err == f"error: {command} --mult needs a ground size --n >= 2, got {n}\n"
            # the module itself is still printed without --mult
            assert main([command, "--n", n, "--ranks", "-", "--no-cache"]) == 0
            capsys.readouterr()


@pytest.mark.parametrize("mult, message", [
    ("", "unknown multiplicity ''"),
    ("trivial,", "unknown multiplicity ''"),
    ("trivial,trivial", "{} --mult names a multiplicity twice: 'trivial,trivial'"),
    ("refl, trivial,refl", "{} --mult names a multiplicity twice: 'refl, trivial,refl'"),
])
def test_mult_with_an_empty_or_repeated_name_is_refused_before_the_module(
        capsys, monkeypatch, mult, message):
    calls = []
    monkeypatch.setattr(reps, "class_values", lambda *args, **kwargs: calls.append(args))
    for command in ("alpha", "beta"):
        code = main([command, "--n", "6", "--ranks", "2,3", "--mult", mult, "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", (command, mult)
        assert captured.err == f"error: {message.format(command)}\n"
    assert calls == []


def test_mult_by_chains_matches_the_recurrence_on_every_rank_set(capsys):
    # --mult pairs the class values of the printed module by its own method
    import parthom.reps as reps

    reps._fixed_chain_values.cache_clear()
    for command in ("alpha", "beta"):
        for S in reps.rank_subsets(range(1, 6)):
            ranks = ",".join(map(str, S)) or "-"
            rows = [run(capsys, command, "--n", "7", "--ranks", ranks, "--method", method,
                        "--mult", "trivial,refl", "--format", "tsv", "--no-cache")
                    for method in ("recurrence", "chains")]
            assert rows[0] == rows[1] and rows[0][0] == 0, (command, S)
    # every rank set's alpha was counted on chains
    assert reps._fixed_chain_values.cache_info().currsize == 2 ** 5


def test_stability_report_rank_below_1_exit_2(capsys):
    for ranks in ("0", "0,3"):
        code = main(["report", "--family", "stability", "--ranks", ranks, "--k", "1",
                     "--max-n", "5", "--no-cache"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: rank set {ranks} has rank 0 below 1\n"


def test_tables_with_no_row_exit_2(capsys):
    commands = [("table", "--family", family) for family in ("euler", "simsun", "bi", "ek")]
    for command in commands:
        family = command[-1]
        refused = []
        for max_n in range(-1, 4):
            code = main([*command, "--max-n", str(max_n), "--format", "json", "--no-cache"])
            captured = capsys.readouterr()
            if code == 0:
                assert json.loads(captured.out)["rows"], (command, max_n)
                continue
            assert code == 2 and captured.out == "", (command, max_n)
            assert captured.err == f"error: family {family!r} has no row at --max-n {max_n}\n"
            refused.append(max_n)
        # the bounds below the first row are refused, the rest print rows
        first = {"euler": 0, "simsun": 1, "bi": 2, "ek": 2}[family]
        assert refused == list(range(-1, first)), command


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


def test_sf_reven_runs_no_recurrence(capsys, monkeypatch):
    expected = run(capsys, "sf", "--family", "reven", "--n", "6", "--no-cache")

    def rerun(*args, **kwargs):
        raise AssertionError("recurrence rerun")

    monkeypatch.setattr(reps, "class_values", rerun)
    monkeypatch.setattr(reps, "homology_characteristic", rerun)
    assert run(capsys, "sf", "--family", "reven", "--n", "6", "--no-cache") == expected
    assert expected[0] == 0


def test_a_check_verdict_is_served_from_the_cache(tmp_path, capsys, monkeypatch):
    import parthom.checks as checks

    argv = ["check", "--suite", "conj-3.9", "--max-n", "6", "--cache-dir", str(tmp_path)]
    stored = run(capsys, *argv)
    assert stored[0] == 0 and len(list(tmp_path.rglob("*.json"))) == 1

    def recomputed(*args, **kwargs):
        raise AssertionError("verdict recomputed")

    monkeypatch.setattr(checks, "conjecture_checks", recomputed)
    assert run(capsys, *argv) == stored


def test_a_stored_failing_verdict_exits_1_on_the_hit(tmp_path, capsys, monkeypatch):
    import parthom.checks as checks

    real = checks.simsun
    monkeypatch.setattr(checks, "simsun", lambda i, n: 0 if (i, n) == (2, 4) else real(i, n))
    argv = ["check", "--suite", "conj-3.9", "--max-n", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    stored = run(capsys, *argv)
    assert stored[0] == 1 and not json.loads(stored[1])["passed"]
    monkeypatch.setattr(checks, "simsun", real)
    assert run(capsys, *argv) == stored


def test_a_failed_report_exits_1_cold_and_on_the_hit(tmp_path, capsys, monkeypatch):
    import parthom.checks as checks

    real = checks._predicted_module
    monkeypatch.setattr(checks, "_predicted_module", lambda family, n, k: (
        (n - 4, reps.whitehouse_module(6, 2)) if family == "qnk" else real(family, n, k)))
    argv = ["report", "--family", "qnk", "--n", "6", "--k", "3", "--format", "json"]
    cold = run(capsys, *argv, "--no-cache")
    assert cold[0] == 1 and json.loads(cold[1])["passed"] is False
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == cold

    def forbidden(*args):
        raise AssertionError("a cached report was recomputed")

    monkeypatch.setattr(checks, "subposet_homology_report", forbidden)
    assert run(capsys, *argv, "--cache-dir", str(tmp_path)) == cold


def test_a_report_that_asserts_nothing_exits_0_with_no_verdict(tmp_path, capsys):
    argv = ["report", "--family", "ne", "--n", "6", "--k", "3", "--format", "json",
            "--cache-dir", str(tmp_path)]
    stored = run(capsys, *argv)
    data = json.loads(stored[1])
    assert stored[0] == 0 and data["passed"] is None and data["assertions"] == []
    assert run(capsys, *argv) == stored


def test_exact_answers_past_the_digit_limit_print_in_full(tmp_path, capsys):
    # E_1660 is the first zigzag number with 4300 digits, the interpreter's
    # default limit for converting an int to a string and back
    limit = sys.get_int_max_str_digits()
    argv = ["table", "--family", "euler", "--max-n", "1700", "--format", "json"]
    try:
        cold = run(capsys, *argv, "--no-cache")
        stored = run(capsys, *argv, "--cache-dir", str(tmp_path))
        hit = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert cold == stored == hit and cold[0] == 0
        assert json.loads(cold[1])["rows"][-1] == {"n": 1700, "E_n": euler_number(1700)}
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(list(tmp_path.rglob("*.json"))) == 1
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_failed_store_leaves_no_temporary_file(tmp_path):
    with pytest.raises(TypeError):
        cache.store(str(tmp_path), "sf", {}, {"value": object()})
    assert not list(tmp_path.rglob("*.tmp"))


def test_cache_entry_of_other_code_not_served(tmp_path, capsys, monkeypatch):
    import parthom.cache as cache

    argv = ["sf", "--family", "lie", "--n", "4", "--format", "json",
            "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cache, "code_hash", lambda: "0" * 64)
    _, out = run(capsys, *argv)
    # tamper with the payload the entry keeps, so that serving it would show
    entry = next(tmp_path.rglob("*.json"))
    stored = json.loads(entry.read_text())
    stored["payload"]["dimension"] = "-1"
    entry.write_text(json.dumps(stored))
    assert run(capsys, *argv)[1] != out
    monkeypatch.undo()
    assert run(capsys, *argv) == (0, out)
    assert len(list(tmp_path.rglob("*.json"))) == 2


def test_one_miss_reads_the_sources_once_and_keys_load_and_store_alike(
        tmp_path, capsys, monkeypatch):
    import pathlib

    import parthom.cache as cache

    package = pathlib.Path(cache.__file__).parent
    reads, keys = [], []
    read_bytes, cache_key = pathlib.Path.read_bytes, cache.cache_key

    def counted_read(path):
        if path.parent == package:
            reads.append(path.name)
        return read_bytes(path)

    def recorded_key(*args):
        keys.append(cache_key(*args))
        return keys[-1]

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted_read)
    monkeypatch.setattr(cache, "cache_key", recorded_key)
    cache.code_hash.cache_clear()
    argv = ["sf", "--family", "lie", "--n", "4", "--cache-dir", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    assert sorted(reads) == sorted(path.name for path in package.glob("*.py"))
    assert len(keys) == 2 and keys[0] == keys[1]  # the load, then the store
    assert [path.stem for path in tmp_path.rglob("*.json")] == keys[:1]


def test_a_request_sharing_an_entry_name_is_recomputed_not_served(
        tmp_path, capsys, monkeypatch):
    # the name is 64 bits of the key text; the entry keeps the text itself
    monkeypatch.setattr(cache, "cache_key", lambda command, params: "0" * 16)
    base = ["sf", "--family", "lie", "--format", "json", "--cache-dir", str(tmp_path)]
    _, first = run(capsys, *base, "--n", "4")
    code, second = run(capsys, *base, "--n", "5")
    assert code == 0 and second != first
    assert second == run(capsys, *base, "--n", "5", "--no-cache")[1]
    assert [path.name for path in tmp_path.rglob("*.json")] == ["0" * 16 + ".json"]


def test_a_cache_key_is_equal_in_two_fresh_interpreters():
    import os
    import pathlib
    import subprocess

    code = ("from parthom import cache; "
            "print(cache.cache_key('beta', {'n': 6, 'ranks': [1, 3]}))")
    src = str(pathlib.Path(cache.__file__).parents[1])
    keys = {subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, check=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                           ).stdout.strip()
            for seed in ("1", "2")}
    assert keys == {cache.cache_key("beta", {"n": 6, "ranks": [1, 3]})}
    assert len(keys.pop()) == 16


def test_a_cache_that_cannot_be_written_still_prints_the_result(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = ["sf", "--family", "lie", "--n", "4"]
    code = main([*argv, "--cache-dir", str(not_a_dir)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == run(capsys, *argv, "--no-cache")[1]
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    assert "corrupt" not in captured.err


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
    def broken(*args, **kwargs):
        raise error("invariant broken")

    monkeypatch.setattr(reps, "homology_characteristic", broken)
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
    # the second is not UTF-8
    for corrupt in (b"{ not json", b"\xff\xfe"):
        entry = next(tmp_path.rglob("*.json"))
        entry.write_bytes(corrupt)
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


@pytest.mark.parametrize("where", ["missing-dir/x.txt", "file/x.txt", "."])
def test_out_path_that_cannot_be_opened_is_refused(tmp_path, capsys, monkeypatch, where):
    (tmp_path / "file").write_text("")

    def never(*args, **kwargs):
        raise AssertionError("computed before the --out path was checked")

    monkeypatch.setattr(reps, "lie_character", never)
    code = main(["sf", "--family", "lie", "--n", "4", "--no-cache",
                 "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.tsv"
    code, out = run(capsys, "table", "--family", "euler", "--max-n", "4", "--format", "tsv",
                    "--no-cache", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().split("\n")[-1] == "4\t5"


@pytest.mark.parametrize("argv, option", [
    ("sf --family lie --n 4 --k 3", "--k"),
    ("sf --family reven --n 3 --k 2", "--k"),
    ("table --family bS --n 5 --max-n 6", "--max-n"),
    ("table --family euler --max-n 6 --n 5", "--n"),
    ("table --family simsun --max-n 6 --n 5", "--n"),
    ("table --family bi --max-n 6 --n 5", "--n"),
    ("table --family ek --max-n 6 --n 5", "--n"),
    ("report --family stability --ranks 2 --k 1 --max-n 6 --n 5", "--n"),
    ("report --family qnk --n 5 --k 3 --ranks 1", "--ranks"),
    ("report --family pnk --n 5 --k 3 --max-n 6", "--max-n"),
    ("report --family le --n 5 --k 2 --ranks 1", "--ranks"),
    ("report --family ne --n 5 --k 3 --max-n 6", "--max-n"),
])
def test_an_option_the_family_never_reads_exit_2(capsys, monkeypatch, argv, option):
    # refused before any computation: no result is ever assembled
    import parthom.commands as commands

    monkeypatch.setattr(commands, "RESULTS", {})
    code = main([*argv.split(), "--no-cache"])
    captured = capsys.readouterr()
    command, _, family = argv.split()[:3]
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {command} --family {family} does not read {option}\n"


def test_the_options_the_benchmark_passes_are_still_accepted(tmp_path, capsys):
    code, out = run(capsys, "table", "--family", "bS", "--n", "4", "--jobs", "2",
                    "--cache-dir", str(tmp_path), "--format", "tsv")
    assert code == 0 and out
    code, out = run(capsys, "check", "--suite", "conj-3.9", "--max-n", "4",
                    "--cache-dir", str(tmp_path), "--no-cache", "--jobs", "2")
    assert code == 0 and out


@pytest.mark.parametrize("argv, degree", [
    ("beta --n 16 --ranks 1-14 --basis s", 16),
    ("alpha --n 15 --ranks 2 --basis s --mult trivial", 15),
    ("sf --family reven --n 8 --basis s", 16),
    ("sf --family whitehouse --n 15 --k 3 --basis s", 15),
])
def test_schur_conversion_refused_before_the_module(capsys, monkeypatch, argv, degree):
    # no module of any family is computed
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    for name in ("class_values", "lie_character", "whitehouse_module", "even_block_characteristic",
                 "hook_character"):
        monkeypatch.setattr(reps, name, counted(getattr(reps, name)))
    code = main([*argv.split(), "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: character-table conversion refused for degree {degree} > 14\n"
    assert calls == []


def test_pretty_form_is_read_off_the_payload():
    from fractions import Fraction

    from parthom.cli import _pretty_symfunc
    from parthom.symfunc import Expansion

    cases = [
        (Expansion("h", {(2, 1): 1, (3,): -1, (1, 1, 1): Fraction(-3, 2), (): 5,
                         (4,): Fraction(2, 3)}),
         "5 - h[3] + h[2,1] - 3/2*h[1,1,1] + 2/3*h[4]"),
        (Expansion("p", {}), "0"),
        (Expansion("e", {(): -1, (1,): 1, (2,): -1}), "-1 + e[1] - e[2]"),
        (Expansion("m", {(): 1, (1, 1): Fraction(1, 2)}), "1 + 1/2*m[1,1]"),
    ]
    for f, text in cases:
        assert _pretty_symfunc(json.loads(json.dumps(f.to_json_dict()))) == text
