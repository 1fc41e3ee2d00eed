"""Command-line behavior: pipelines, exit codes, report output."""

import io
import json
import subprocess
import sys
import time
from math import comb

import pytest

from shadowlab import cli
from shadowlab.diversity import is_up_closed, total_influence
from shadowlab.families import Family, InvariantViolation

RUN = [sys.executable, "-m", "shadowlab.cli"]


def run_cli(args, stdin=""):
    return subprocess.run(
        RUN + args, input=stdin, capture_output=True, text=True, timeout=300
    )


def test_construct_then_diversity_pipeline():
    made = run_cli(["construct", "L_uv", "--n", "7", "--k", "3", "--u", "3", "--v", "3"])
    assert made.returncode == 0
    div = run_cli(["diversity", "--metric", "gamma"], stdin=made.stdout)
    assert div.returncode == 0
    out = json.loads(div.stdout)
    assert out == {"metric": "gamma", "value": 1, "witness": 1}


def test_construct_output_round_trips():
    made = run_cli(["construct", "colex_seg", "--n", "5", "--t", "4", "--k", "2"])
    fam = Family.from_text(made.stdout)
    assert fam.to_text() == made.stdout


def test_shadow_pipeline():
    made = run_cli(["construct", "full_level", "--n", "5", "--k", "3"])
    sh = run_cli(["shadow", "-l", "2"], stdin=made.stdout)
    assert sh.returncode == 0
    level = run_cli(["construct", "full_level", "--n", "5", "--k", "2"])
    assert sh.stdout == level.stdout


def test_bound_kk():
    out = run_cli(["bound", "--name", "kk", "--m", "4", "--k", "2"])
    assert out.returncode == 0
    assert float(out.stdout) == pytest.approx(3.372281323, abs=1e-8)


def test_bound_exact_integer():
    out = run_cli(
        ["bound", "--name", "intersecting-diversity-size",
         "--n", "7", "--k", "3", "--u", "3"]
    )
    assert out.stdout.strip() == "13"


def test_shift_to_colex_with_trace():
    made = run_cli(["construct", "lex_seg", "--n", "5", "--t", "4", "--k", "2"])
    out = run_cli(["shift", "--op", "to-colex"], stdin=made.stdout)
    assert out.returncode == 0
    final = Family.from_text(out.stdout)
    colex = run_cli(["construct", "colex_seg", "--n", "5", "--t", "4", "--k", "2"])
    assert final == Family.from_text(colex.stdout)
    assert "daykin" in out.stderr  # the trace goes to stderr


def test_compress_alias():
    made = run_cli(["construct", "lex_seg", "--n", "5", "--t", "4", "--k", "2"])
    a = run_cli(["shift", "--op", "to-colex"], stdin=made.stdout)
    b = run_cli(["compress"], stdin=made.stdout)
    assert a.stdout == b.stdout


def test_shift_ij():
    text = "n=3 k=2\n2,3\n"
    out = run_cli(["shift", "--op", "ij", "--i", "1", "--j", "2"], stdin=text)
    assert out.stdout == "n=3 k=2\n1,3\n"


def test_influence_json():
    made = run_cli(["construct", "kalai_circle", "--n", "3"])
    out = run_cli(["influence"], stdin=made.stdout)
    data = json.loads(out.stdout)
    assert data["influences"] == [0.5, 0.5, 0.5]
    assert data["total"] == 1.5
    single = run_cli(["influence", "-i", "2"], stdin=made.stdout)
    assert json.loads(single.stdout)["influence"] == 0.5
    # `total` is the library's total influence, on an up-set and on a family
    # that is not one (where the up-set identity is not checked)
    for text, up in (("n=4 k=-\n1,2\n1,2,3\n1,2,4\n1,2,3,4\n", True),
                     ("n=4 k=2\n1,2\n1,3\n3,4\n", False)):
        fam = Family.from_text(text)
        assert is_up_closed(fam) is up
        data = json.loads(run_cli(["influence"], stdin=text).stdout)
        assert data["total"] == total_influence(fam)


def test_verify_pass_exit_zero():
    out = run_cli(
        ["verify", "--claim", "shadow-colex-lower", "--space", "all-families:n=4,k=2"]
    )
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["violations"] == 0
    assert rep["checked"] + rep["skipped"] == 64


def test_verify_counterexample_exit_two():
    out = run_cli(
        ["verify", "--claim", "rwise-diversity",
         "--space", "all-shifted-families:n=6,k=4",
         "--param", "r=2", "--param", "t=2"]
    )
    assert out.returncode == 2
    rep = json.loads(out.stdout)
    assert rep["violations"] > 0 and rep["exploratory"]


def test_verify_budget_exit_three():
    out = run_cli(
        ["verify", "--claim", "shadow-colex-lower",
         "--space", "all-families:n=6,k=3", "--budget", "1000"]
    )
    assert out.returncode == 3


def test_over_budget_space_exits_three_at_any_jobs():
    # the claim refuses a sample without k when its check is prepared; the
    # budget refuses the space before that.  A streamed space stops at its
    # 1001st instance, and the (6,3,3) stability walk at its 352,715th node.
    # Each stops whatever the worker count, with the same message.
    for claim, space, budget in (
        ("matching-diversity-max", "random-sample:n=5,count=100", "10"),
        ("shifted-structure", "all-shifted-families:n=9,k=4", "1000"),
        ("cross-diversity-stability", "all-cross-pairs:n=6,a=3,b=3", "352714"),
    ):
        errors = set()
        for jobs in ("1", "2"):
            out = run_cli(["verify", "--claim", claim, "--space", space,
                           "--budget", budget, "--jobs", jobs])
            assert out.returncode == 3, (space, jobs, out.stderr)
            errors.add(out.stderr)
        assert len(errors) == 1, errors


def test_huge_all_families_refused_quickly():
    # 2^C(n,k) instances, stated as a power: written out, 2^184756 has
    # 55,618 digits and 2^C(64,32) would not fit in memory
    for n, k in ((20, 10), (64, 32)):
        for jobs in ("1", "2"):
            start = time.perf_counter()
            out = run_cli(["verify", "--claim", "shifted-structure",
                           "--space", f"all-families:n={n},k={k}", "--jobs", jobs])
            assert time.perf_counter() - start < 2
            assert out.returncode == 3, (n, k, jobs, out.stderr)
            assert f"holds 2^{comb(n, k)} instances" in out.stderr


def test_huge_all_graphs_refused_quickly():
    # at least 2^(C(n,2)-1) graphs: written out, the count at n = 170 has
    # more digits than Python converts to text
    for n in (60, 170):
        start = time.perf_counter()
        out = run_cli(["verify", "--claim", "graph-avoidance", "--space", f"all-graphs:n={n}"])
        assert time.perf_counter() - start < 2
        assert out.returncode == 3, (n, out.stderr)
        assert f"holds at least 2^{comb(n, 2) - 1} instances" in out.stderr


def test_huge_down_set_spaces_refused_quickly():
    # every subfamily of the middle layer generates its own up-set, and the
    # empty family and each word's principal down-set are shifted families
    for claim, space, bound in (
        ("t-intersecting-max", "all-up-sets:n=22", f"at least 2^{comb(22, 11)}"),
        ("t-intersecting-max", "all-up-sets:n=30", f"at least 2^{comb(30, 15)}"),
        ("shifted-structure", "all-shifted-families:n=30,k=15", f"at least {comb(30, 15) + 1}"),
    ):
        start = time.perf_counter()
        out = run_cli(["verify", "--claim", claim, "--space", space])
        assert time.perf_counter() - start < 2
        assert out.returncode == 3, (space, out.stderr)
        assert f"holds {bound} instances" in out.stderr
        assert "Traceback" not in out.stderr


def test_wide_grid_axis_refused_without_building_it():
    # the child reports its own exit code and peak RSS (KB on Linux)
    probe = ("import resource, subprocess, sys; "
             "code = subprocess.run(sys.argv[1:], capture_output=True).returncode; "
             "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run(
        [sys.executable, "-c", probe] + RUN
        + ["verify", "--claim", "ratio-monotone",
           "--space", "constructions-grid:name=params,m=0..2000000", "--budget", "10"],
        capture_output=True, text=True, timeout=60,
    )
    code, peak_kb = map(int, out.stdout.split())
    assert code == 3
    assert peak_kb < 40 * 1024


def test_budget_env_var_override():
    proc = subprocess.run(
        RUN + ["verify", "--claim", "shadow-colex-lower",
               "--space", "all-families:n=4,k=2"],
        capture_output=True, text=True, timeout=60,
        env={**__import__("os").environ, "SHADOWLAB_BUDGET": "10"},
    )
    assert proc.returncode == 3


def test_usage_error_exit_64():
    assert run_cli(["no-such-command"]).returncode == 64
    assert run_cli(["construct", "L_uv", "--n", "7"]).returncode == 64
    missing_k = run_cli(["bound", "--name", "kk", "--m", "4"])
    assert missing_k.returncode == 64
    assert "--k" in missing_k.stderr
    assert run_cli(["verify", "--claim", "x"]).returncode == 64
    for claim, space in (
        ("shadow-colex-lower", "all-families:n=6"),
        ("shadow-colex-lower", "all-shifted-families:n=6"),
        ("shadow-colex-lower", "random-sample:n=6,k=3"),
        ("cross-lex-segments", "all-cross-pairs:n=5,a=2"),
        # below n = a+b every a-set meets every b-set: outside the theorems
        ("cross-shadow-size", "all-cross-pairs:n=3,a=2,b=2"),
        ("cross-unbalanced-size", "all-cross-pairs:n=3,a=2,b=2"),
        ("shadow-colex-lower", "constructions-grid:name=nope,n=3..5"),
        ("shadow-colex-lower", "random-sample:n=6,count=3,k=abc"),
        ("shadow-colex-lower", "random-sample:n=6,count=3,k=2.5"),
        ("shadow-colex-lower", "random-sample:n=6,count=3,seed=abc"),
        ("shadow-colex-lower", "random-sample:n=6,count=-1,k=3"),
        ("shadow-colex-lower", "all-families:n=4,k=2,bogus=7"),
    ):
        out = run_cli(["verify", "--claim", claim, "--space", space])
        assert out.returncode == 64, (space, out.stderr)
        assert "Traceback" not in out.stderr
    assert "count" in run_cli(
        ["verify", "--claim", "shadow-colex-lower", "--space", "random-sample:n=6,count=-1,k=3"]
    ).stderr
    # worker counts below 1 and negative budgets are usage errors naming the flag
    for flag, value in (("--jobs", "0"), ("--jobs", "-3"), ("--budget", "-1")):
        out = run_cli(["verify", "--claim", "shadow-colex-lower",
                       "--space", "all-families:n=4,k=2", flag, value])
        assert out.returncode == 64, (flag, value, out.stderr)
        assert f"error: {flag} must be at least" in out.stderr
        assert "Traceback" not in out.stderr
    # a zero budget is legal: it admits only an empty space
    assert run_cli(["verify", "--claim", "shadow-colex-lower",
                    "--space", "random-sample:n=6,count=0,k=3", "--budget", "0"]).returncode == 0
    assert run_cli(["verify", "--claim", "shadow-colex-lower",
                    "--space", "all-families:n=4,k=2", "--budget", "0"]).returncode == 3
    # --seed names a sample's seed; no other space has one
    for space in ("all-families:n=4,k=2", "constructions-grid:name=params,n=3..5"):
        out = run_cli(["verify", "--claim", "shadow-colex-lower", "--space", space, "--seed", "5"])
        assert out.returncode == 64, (space, out.stderr)
        assert "Traceback" not in out.stderr


def _exit_code(argv, stdin=""):
    """The exit code of the CLI run in this process on argv."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdin = saved


def test_claim_parameters_are_checked(capsys):
    # a claim takes only the integer parameters it declares, as a space does
    for claim, space, param in (
        ("rwise-diversity", "all-families:n=4,k=2", "r=2.5"),
        ("rwise-diversity", "all-families:n=4,k=2", "r=abc"),
        ("rwise-diversity", "all-families:n=4,k=2", "r=1..3"),
        ("rwise-diversity", "all-families:n=4,k=2", "R=2"),
        ("rwise-diversity", "all-families:n=4,k=2", "r"),
        ("shifted-structure", "all-families:n=4,k=2", "x=1"),
        ("intersecting-diversity-size", "all-families:n=4,k=2", "u=3"),
        ("cross-diversity-stability", "all-cross-pairs:n=5,a=2,b=2", "u=3.9"),
    ):
        argv = ["verify", "--claim", claim, "--space", space, "--param", param, "--jobs", "1"]
        assert _exit_code(argv) == 64, (claim, param)
        err = capsys.readouterr().err
        assert param.partition("=")[0] in err and "Traceback" not in err
    # declared integers run as before, and the report's label names them all
    for claim, space, param, code, label in (
        ("rwise-diversity", "all-families:n=4,k=2", "r=2", 0, "rwise-diversity:r=2,t=1"),
        ("cross-diversity-stability", "all-cross-pairs:n=5,a=2,b=2", "u=3", 2,
         "cross-diversity-stability:u=3,v=3"),
    ):
        argv = ["verify", "--claim", claim, "--space", space, "--param", param, "--jobs", "1"]
        assert _exit_code(argv) == code
        assert json.loads(capsys.readouterr().out)["claim"] == label


def test_non_integer_grid_axis_exit_64(capsys):
    # a grid axis other than its name is an integer or an integer range; a
    # float or a word used to reach the construction and skip every point
    for space, axis in (
        ("constructions-grid:k=2,n=4.5,name=star", "n"),
        ("constructions-grid:k=2,n=four,name=star", "n"),
        ("constructions-grid:k=2.0,n=4..5,name=star", "k"),
    ):
        argv = ["verify", "--claim", "shadow-colex-lower", "--space", space, "--jobs", "1"]
        assert _exit_code(argv) == 64, space
        err = capsys.readouterr().err
        assert f"{axis}=" in err and "Traceback" not in err
    argv = ["verify", "--claim", "shadow-colex-lower",
            "--space", "constructions-grid:k=2,n=4..5,name=star", "--jobs", "1"]
    assert _exit_code(argv) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == 2


def test_flags_a_target_does_not_take_exit_64(capsys):
    star = "n=4 k=2\n1,2\n1,3\n1,4\n"
    for argv in (
        ["construct", "star", "--n", "4", "--k", "2", "--x", "9"],
        ["bound", "--name", "kk", "--m", "4", "--k", "2", "--n", "7"],
        ["diversity", "--metric", "gamma", "--s", "2"],
        ["diversity", "--metric", "kk", "--n", "4", "--t", "2"],
        ["shift", "--op", "ij", "--i", "1", "--j", "2", "--U", "3"],
        ["shift", "--op", "to-colex", "--i", "1"],
        ["shift", "--op", "to-shifted", "--j", "9"],
        ["shift", "--op", "daykin", "--U", "1", "--V", "2", "--i", "5"],
    ):
        assert _exit_code(argv, stdin=star) == 64, argv
        assert "Traceback" not in capsys.readouterr().err
    assert _exit_code(["shift", "--op", "daykin", "--U", "1"], stdin=star) == 64
    assert "needs --V" in capsys.readouterr().err
    # the flags each target takes still work, and a missing one is named
    assert _exit_code(["construct", "star", "--n", "4", "--k", "2"]) == 0
    assert capsys.readouterr().out == star
    assert _exit_code(["diversity", "--metric", "s", "--s", "1"], stdin=star) == 0
    assert json.loads(capsys.readouterr().out)["metric"] == "s"
    assert _exit_code(["diversity", "--metric", "colex"], stdin=star) == 64
    assert "--metric colex needs --t" in capsys.readouterr().err


def test_negative_ground_set_names_n(capsys):
    # a negative n is refused by its own name, not through the range of k
    for argv in (
        ["construct", "star", "--n", "-1", "--k", "2"],
        ["construct", "full_level", "--n", "-3", "--k", "0"],
    ):
        assert _exit_code(argv) == 64, argv
        err = capsys.readouterr().err
        assert "n >= 0" in err and "outside" not in err and "Traceback" not in err


def test_negative_ground_set_names_n_in_katona_and_segments(capsys):
    for argv in (
        ["construct", "katona_t", "--n", "-1", "--t", "1"],
        ["construct", "lex_seg", "--n", "-1", "--t", "0", "--k", "0"],
        ["construct", "colex_seg", "--n", "-1", "--t", "0", "--k", "0"],
    ):
        assert _exit_code(argv) == 64, argv
        err = capsys.readouterr().err
        assert "need n >= 0, not -1" in err and "outside" not in err, argv
        assert "Traceback" not in err


@pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (0, 3)])
def test_cross_stability_refuses_a_side_below_2_before_its_scan(capsys, a, b):
    start = time.perf_counter()
    argv = ["verify", "--claim", "cross-diversity-stability",
            "--space", f"all-cross-pairs:n=6,a={a},b={b}", "--jobs", "1"]
    assert _exit_code(argv) == 64
    assert time.perf_counter() - start < 0.5
    assert f"need a >= 2 and b >= 2, not a={a}, b={b}" in capsys.readouterr().err


@pytest.mark.parametrize("claim, space, budget", [
    # the stability walk takes 352,715 nodes, far past the budget
    ("cross-diversity-stability", "all-cross-pairs:n=6,a=3,b=3", "100000"),
    # 66 shifted (6,3) families and their 66^2 ordered pairs
    ("shifted-correlation", "all-shifted-families:n=6,k=3", "1000"),
])
def test_pair_kernels_stop_at_the_budget(claim, space, budget):
    start = time.perf_counter()
    out = run_cli(["verify", "--claim", claim, "--space", space,
                   "--budget", budget, "--jobs", "1"])
    assert time.perf_counter() - start < 2
    assert out.returncode == 3, out.stderr
    assert "budget" in out.stderr


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_verify_empty_random_sample(jobs):
    out = run_cli(["verify", "--claim", "shadow-colex-lower", "--jobs", jobs,
                   "--space", "random-sample:n=6,count=0,k=3"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["checked"] == 0


def test_cli_import_loads_no_process_pool():
    # the pool's module and multiprocessing load only when a scan starts workers
    probe = ("import sys, shadowlab.cli; "
             "print('concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False False"


def test_io_error_exit_74():
    out = run_cli(["shadow", "-l", "1", "/no/such/file"])
    assert out.returncode == 74
    bad = run_cli(["diversity"], stdin="not a family\n")
    assert bad.returncode == 74


def test_verify_output_file(tmp_path):
    target = tmp_path / "report.json"
    out = run_cli(
        ["verify", "--claim", "shadow-colex-lower",
         "--space", "all-families:n=4,k=2", "--output", str(target)]
    )
    assert out.returncode == 0
    assert json.loads(target.read_text())["claim"] == "shadow-colex-lower"


def test_invariant_violation_exit_70(monkeypatch, capsys):
    def broken(fam):
        raise InvariantViolation("colex-rank potential did not drop")

    monkeypatch.setattr(cli, "compress_to_colex", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO("n=3 k=2\n2,3\n"))
    assert cli.main(["compress"]) == 70
    err = capsys.readouterr().err
    assert "colex-rank potential did not drop" in err
    assert "Traceback" not in err
