import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import needs_build_tools

import primekit
from primekit import harness, kernel, verification
from primekit.harness import (
    BENCH_SETS,
    CSV_HEADER,
    SET4_EXPECTED_LAST,
    SET4_FIRST,
    generate_set,
    main,
    run_bench,
)

PUBLIC_NAMES = {
    "FORM_4K1", "FORM_4K3", "FORM_8K1", "FORM_8K3", "FORM_8K5", "FORM_8K7",
    "Form", "RECIPE_256", "RECIPE_2048", "Recipe",
    "SearchCapExceeded", "SearchResult", "Stage", "TraceStep", "Verdict",
    "bpsw", "gauss_euler", "is_small_prime", "legendre", "mr_ge",
    "mr_ge_first_attempt", "mulmod", "powmod", "recipe256", "recipe2048",
    "seven_base_variant", "smallest_nonresidue_prime", "sprp_round",
}


def test_the_package_exports_exactly_its_public_names():
    assert set(primekit.__all__) == PUBLIC_NAMES
    assert len(primekit.__all__) == len(PUBLIC_NAMES)
    for name in primekit.__all__:
        assert getattr(primekit, name) is not None, name


def test_the_benchmark_finds_every_name_it_reads(monkeypatch):
    # perfbench takes expected outputs from sprp.reference_oracle64 and traces
    # each (module, attribute) of TRACED; deleting one breaks its set-up or
    # its --trace runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    importlib.import_module("perfbench.workloads")
    for _, module, attr in importlib.import_module("perfbench.tracing").TRACED:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # a function of its own: tracing it must not wrap the referee's entry
    assert kernel.oracle_is_prime is not kernel.ALGORITHMS["bpsw"]


def test_set1_shape():
    data = generate_set(1)
    assert len(data) == 100000
    assert data[0] == 1 and data[-1] == 199999
    assert all(n % 2 == 1 for n in data[:100])


def test_set2_shape():
    data = generate_set(2)
    assert len(data) == 100000
    assert data[0] == 2 and data[-1] == 1299709


def test_set3_shape():
    data = generate_set(3)
    assert len(data) == 100000
    assert data[0] == 10**18 + 1 and data[-1] == 10**18 + 199999


def test_set4_shape():
    data = generate_set(4)
    assert len(data) == 100000
    assert data[0] == SET4_FIRST == 1000000000000000003
    assert data[-1] == SET4_EXPECTED_LAST == 1000000000004133179
    assert generate_set(4) is data  # cached


def test_generate_set_validates_id():
    with pytest.raises(ValueError):
        generate_set(5)
    assert set(BENCH_SETS) == {1, 2, 3, 4}


def test_run_bench_counts_verdicts():
    # bench takes every algorithm, the rejected first design included
    for algo in ("ge", "first"):
        res = run_bench(1, algo, reps=1)
        # 17983 odd primes below 200000 (17984 primes minus the even prime 2)
        assert res.primes == 17983, algo
        assert res.composites == 100000 - 17983
        assert res.median_seconds > 0
        assert res.ns_per_call == pytest.approx(res.median_seconds / 100000 * 1e9)


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError):
        run_bench(1, "oracle")
    with pytest.raises(ValueError):
        run_bench(1, "ge", reps=0)


def test_bench_human_names_backend():
    res = run_bench(1, "mr7", reps=1)
    assert res.backend == kernel.BACKEND
    assert res.human().endswith(f" backend={kernel.BACKEND}")
    assert len(res.csv_row().split(",")) == 7  # the fixed CSV columns


def test_csv_row_format():
    res = run_bench(1, "mr7", reps=1)
    row = res.csv_row()
    assert CSV_HEADER == "set,algo,reps,median_seconds,ns_per_call,primes,composites"
    fields = row.split(",")
    assert len(fields) == 7
    assert fields[0] == "1" and fields[1] == "mr7" and fields[2] == "1"
    assert int(fields[5]) + int(fields[6]) == 100000


# --- CLI ----------------------------------------------------------------------


def test_cli_test_composite_with_trace(capsys):
    assert main(["test", "341", "--algo", "ge", "--trace"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "composite"
    assert out[0].startswith("mod8-euler(base=2)") and out[0].endswith("FAIL")


def test_cli_test_prime(capsys):
    assert main(["test", "2", "--algo", "mrge"]) == 0
    assert capsys.readouterr().out.strip() == "prime"


def test_cli_test_all_algos(capsys):
    for algo in ("ge", "mrge", "mr7", "first", "bpsw"):
        assert main(["test", "97", "--algo", algo]) == 0
        assert capsys.readouterr().out.strip() == "prime"


def test_cli_usage_errors():
    for argv in (
        ["test", "12x"],
        ["test", "341", "--algo", "nope"],
        ["verify", "--algo", "ge"],  # needs --limit or --random
        ["bench", "--set", "9", "--algo", "ge"],
        ["bigtest", "123"],  # needs --recipe
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # values that parse but the library refuses
    for argv in (
        ["verify", "--algo", "ge", "--limit", "100", "--jobs", "0"],
        ["verify", "--algo", "ge", "--limit", "100", "--jobs", "-3"],
        ["search", "--algo", "ge", "--from", "3", "--to", "9", "--jobs", "0"],
        ["verify", "--algo", "ge", "--limit", "-5"],
        ["verify", "--algo", "mrge", "--random", "-5"],
    ):
        assert main(argv) == 2, argv


def _choices(command: str, dest: str) -> set:
    sub = next(a for a in harness._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return set(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


def test_the_algorithm_table_drives_every_choice():
    for command in ("test", "verify", "bench", "search"):
        assert _choices(command, "algo") == set(kernel.ALGOS), command
    assert _choices("bench", "set_id") == set(BENCH_SETS)


def test_cli_out_of_range_input(capsys):
    assert main(["test", str(2**64), "--algo", "ge"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_verify_limit_clean(capsys):
    assert main(["verify", "--algo", "ge", "--limit", "20000"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_verify_random_clean(capsys):
    assert main(["verify", "--algo", "mrge", "--random", "2000", "--seed", "42"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_refuses_the_referee_in_the_refereed_sweeps(capsys):
    for argv in (["verify", "--algo", "bpsw", "--random", "10"],
                 ["search", "--algo", "bpsw", "--from", "3", "--to", "99"]):
        assert main(argv) == 2
        assert "'bpsw' is the referee" in capsys.readouterr().err
    assert main(["verify", "--algo", "bpsw", "--limit", "1000"]) == 0


def test_cli_search_reports_mismatch(capsys):
    rc = main(
        ["search", "--algo", "mr7", "--from", "33077785078626880",
         "--to", "33077785078626882", "--shards", "1"]
    )
    assert rc == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    obj = json.loads(out[0])
    assert obj["n"] == "33077785078626881"
    assert obj["algo"] == "mr7"
    assert obj["expected"] == "composite" and obj["actual"] == "prime"


def test_cli_search_checkpoint_corruption(tmp_path, capsys):
    ck = tmp_path / "bad.ckpt"
    ck.write_text("not json\n")
    rc = main(
        ["search", "--algo", "ge", "--from", "3", "--to", "1001",
         "--shards", "2", "--checkpoint", str(ck)]
    )
    assert rc == 2


def test_cli_checkpoint_from_another_run(tmp_path, capsys):
    ck = tmp_path / "x.ckpt"
    argv = ["search", "--from", "3", "--to", "100001", "--shards", "4",
            "--checkpoint", str(ck)]
    assert main(argv + ["--algo", "ge"]) == 0
    assert main(argv + ["--algo", "mr7"]) == 2
    assert "refusing to resume" in capsys.readouterr().err
    # a shard searched under another cap, written by hand
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    lines[0]["cap"] = 5
    ck.write_text("".join(json.dumps(e) + "\n" for e in lines))
    assert main(argv + ["--algo", "ge"]) == 2
    assert "cap=5" in capsys.readouterr().err


def test_cli_crashed_worker_is_not_a_usage_error(monkeypatch, capsys):
    parent, real = os.getpid(), kernel.ALGORITHMS["ge"]
    monkeypatch.setitem(
        kernel.ALGORITHMS, "ge",
        lambda n, *a: real(n, *a) if os.getpid() == parent else os._exit(1),
    )
    assert main(["verify", "--algo", "ge", "--limit", "1000", "--jobs", "2"]) == 3
    assert "error: a worker process crashed" in capsys.readouterr().err


def _crash_workers_on(monkeypatch, crashes):
    # workers exit at once on the n that ``crashes`` accepts; the parent runs
    # the real entry
    parent, real = os.getpid(), kernel.ALGORITHMS["ge"]
    monkeypatch.setitem(
        kernel.ALGORITHMS, "ge",
        lambda n, *a: real(n, *a) if os.getpid() == parent or not crashes(n)
        else os._exit(1),
    )


@pytest.mark.parametrize("argv", [
    ["verify", "--algo", "ge", "--random", "2000", "--jobs", "2"],
    ["search", "--algo", "ge", "--from", "3", "--to", "20001", "--jobs", "2"],
], ids=["random", "search"])
def test_cli_crashed_worker_of_a_warm_pool(argv, monkeypatch, capsys):
    # the pool forked by the first call holds the real entry; a patched entry
    # must reach new workers rather than the warm pool's
    assert verification.random_verify("ge", 200, seed=1, jobs=2) == []
    _crash_workers_on(monkeypatch, lambda n: True)
    assert main(argv) == 3
    assert "error: a worker process crashed" in capsys.readouterr().err


def test_a_crashed_pool_is_replaced(monkeypatch, capsys):
    # the entry stays patched, so only dropping the broken pool lets the
    # next call run
    _crash_workers_on(monkeypatch, lambda n: n == 341)
    assert main(["search", "--algo", "ge", "--from", "341", "--to", "341",
                 "--jobs", "2"]) == 3
    assert "error: a worker process crashed" in capsys.readouterr().err
    assert verification.random_verify("ge", 2000, seed=1, jobs=2) == []


def test_cli_corpus(capsys):
    assert main(["corpus"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("ok ") for line in lines)


def test_python_m_primekit_runs_the_cli():
    # the checkout's src/, not an installed copy, as the README's CLI section says
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "primekit", "corpus"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 8 and all(line.startswith("ok ") for line in lines)


def test_the_cli_runs_without_numpy():
    # numpy is a test dependency only; an import of it anywhere in the
    # package fails here
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from primekit.harness import main\n"
            "sys.exit(main(sys.argv[1:]))")
    for argv in (["verify", "--algo", "ge", "--limit", "1000"],
                 ["test", "341", "--algo", "mrge"],
                 ["corpus"]):
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_cli_bigtest(capsys):
    assert main(["bigtest", "33077785078626881", "--recipe", "256"]) == 0
    assert capsys.readouterr().out.strip() == "composite"
    assert main(["bigtest", "0x758411fd917a41", "--recipe", "256"]) == 0
    assert capsys.readouterr().out.strip() == "composite"
    assert main(["bigtest", "1000000000000000003", "--recipe", "2048"]) == 0
    assert capsys.readouterr().out.strip() == "probable prime"


def test_cli_bench_csv(capsys):
    assert main(["bench", "--set", "1", "--algo", "ge", "--reps", "1", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("1,ge,1,")


def test_cli_bench_without_the_compiled_kernel(tmp_path):
    # PRIMEKIT_BACKEND=c on a tree where primekit._kernel64 was never built:
    # one error line and exit 2, not a traceback that exits 1 ("mismatch found")
    src = tmp_path / "src"
    shutil.copytree(Path(__file__).resolve().parent.parent / "src", src,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    env = dict(os.environ, PRIMEKIT_BACKEND="c", PYTHONPATH=str(src))
    for argv in (["corpus"], ["bench", "--set", "1", "--algo", "ge", "--reps", "1"]):
        proc = subprocess.run([sys.executable, "-m", "primekit", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == "", argv
        assert len(proc.stderr.splitlines()) == 1, (argv, proc.stderr)
        assert proc.stderr.startswith("error: the compiled kernel primekit._kernel64"
                                      " is not built"), (argv, proc.stderr)
    # the package itself loads no kernel, so its tests run on such a tree
    code = ("import sys, primekit\n"
            "assert 'primekit.kernel' not in sys.modules, sorted(sys.modules)\n"
            "print(primekit.mr_ge(97).label)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "prime"


@needs_build_tools
def test_bench_times_the_kernel_the_process_selected(kernel_build):
    # bench times kernel.ALGORITHMS as PRIMEKIT_BACKEND selected it
    for selected, timed in (("py", "python"), ("auto", "c"), ("c", "c")):
        env = dict(os.environ, PRIMEKIT_BACKEND=selected, PYTHONPATH=str(kernel_build))
        proc = subprocess.run(
            [sys.executable, "-m", "primekit", "bench", "--set", "1", "--algo", "ge",
             "--reps", "1"],
            cwd=kernel_build.parent, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith(f" backend={timed}"), (selected,
                                                                   proc.stdout)
