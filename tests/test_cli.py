"""CLI: each subcommand runs and prints the expected structure."""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main


def test_specs(capsys):
    assert main(["specs"]) == 0
    out = capsys.readouterr().out
    assert "V100" in out and "H100" in out and "Table I" in out


def test_floorplan(capsys):
    assert main(["floorplan", "V100"]) == 0
    assert "floorplan" in capsys.readouterr().out


def test_floorplan_lowercase_gpu(capsys):
    assert main(["floorplan", "v100"]) == 0


def test_latency(capsys):
    assert main(["latency", "V100", "--sm", "24"]) == 0
    out = capsys.readouterr().out
    assert "SM24" in out and "mean" in out


def test_bandwidth(capsys):
    assert main(["bandwidth", "V100"]) == 0
    out = capsys.readouterr().out
    assert "aggregate L2 fabric" in out
    assert "ratio" in out


def test_speedup(capsys):
    assert main(["speedup", "H100"]) == 0
    out = capsys.readouterr().out
    assert "CPC" in out and "GPC_l" in out


def test_unknown_gpu_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["latency", "P100"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_seed_flag(capsys):
    assert main(["--seed", "5", "latency", "V100"]) == 0


def test_spec_json_accepted(tmp_path, capsys):
    from repro.gpu.serialization import dump_spec
    from repro.gpu.specs import V100
    path = tmp_path / "v100.json"
    dump_spec(V100, path)
    assert main(["bandwidth", str(path)]) == 0
    assert "aggregate" in capsys.readouterr().out


def test_bad_spec_json_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(SystemExit):
        main(["latency", str(bad)])


def test_version_flag(capsys):
    import repro
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_unknown_command_exits_2_with_usage(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and "frobnicate" in err


def test_serve_parser_accepts_service_flags():
    from repro.cli import build_parser
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--workers", "2", "--cache", "/tmp/c",
         "--max-inflight", "3", "--host", "0.0.0.0"])
    assert (args.command, args.port, args.workers) == ("serve", 0, 2)
    assert (args.cache, args.max_inflight, args.host) \
        == ("/tmp/c", 3, "0.0.0.0")


def test_serve_rejects_bad_flags():
    for flags in (["--workers", "0"], ["--workers", "-1"],
                  ["--max-inflight", "-1"]):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *flags])
        assert excinfo.value.code == 2, flags


def test_serve_listening_line_reaches_a_pipe(tmp_path):
    """Without ``-u`` the start-up line is flushed, and an empty cache
    directory still reports ``cache=on``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    # own session: teardown terminates the server and its pool worker
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline().decode() if ready else ""
        assert "listening on http://" in line
        assert "cache=on" in line
    finally:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
                proc.wait(timeout=10)
                break
            except ProcessLookupError:
                break
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
        proc.stdout.close()


def test_serve_drains_on_sigterm(tmp_path):
    """SIGTERM runs the same graceful drain as Ctrl-C and exits 0; a
    SIGTERM to a forked pool worker ends only that worker."""
    from repro.serve import ServeClient
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        start_new_session=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        line = proc.stdout.readline().decode() if ready else ""
        assert "listening on http://" in line
        client = ServeClient(port=int(line.split(":")[2].split()[0]))
        assert client.experiment("latency-matrix", gpu="V100",
                                 sms=[0], samples=1).ok
        workers = subprocess.run(["pgrep", "-P", str(proc.pid)],
                                 capture_output=True, text=True).stdout
        assert workers.split()
        for pid in workers.split():
            os.kill(int(pid), signal.SIGTERM)
        time.sleep(0.5)
        assert client.healthz().status == 200
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert "draining ..." in stderr.decode()
        assert proc.returncode == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
