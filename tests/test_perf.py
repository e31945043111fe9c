"""The same-host A/B timing primitive (``repro.bench.perf``) and its
callers: the ``profile --against`` gate and the obs engine checks."""

import itertools
import os
import subprocess
import sys

import pytest

from repro.bench import perf, profile
from repro.common.params import MachineConfig
from repro.core import simulator
from repro.obs import Observer
from repro.obs.__main__ import _engines_agree
from repro.workloads.harness import WorkloadSpec


#: ``source_tree`` and ``--against`` read git history.
needs_git = pytest.mark.skipif(
    not os.path.exists(os.path.join(perf.REPO_ROOT, ".git")),
    reason="not a git checkout")


def _scripted(calls, label, seconds):
    """A fake run that logs ``label`` and returns the next scripted time."""
    times = iter(seconds)

    def run():
        calls.append(label)
        return next(times)
    return run


class TestABBA:
    def test_call_order_is_a_b_b_a(self):
        calls = []
        perf.abba(_scripted(calls, "a", [1.0] * 6),
                  _scripted(calls, "b", [1.0] * 6), rounds=3)
        assert calls == ["a", "b", "b", "a"] * 3

    def test_median_iqr_and_best(self):
        # Per-round A totals are 2.0; B totals give ratios
        # 1.0, 1.5, 1.1, 1.3, 1.2 -> median 1.2, inclusive quartiles
        # 1.1 and 1.3 -> IQR 0.2.
        a = [1.0] * 10
        b = [1.0, 1.0, 1.4, 1.6, 1.0, 1.2, 1.3, 1.3, 1.2, 1.2]
        result = perf.abba(_scripted([], "a", a), _scripted([], "b", b),
                           rounds=5)
        assert result.ratio == pytest.approx(1.2)
        assert result.iqr == pytest.approx(0.2)
        assert result.best_a == 1.0
        assert result.best_b == 1.0

    def test_best_takes_the_fastest_run_of_each_side(self):
        result = perf.abba(_scripted([], "a", [3.0, 2.0]),
                           _scripted([], "b", [5.0, 4.0]), rounds=1)
        assert (result.best_a, result.best_b) == (2.0, 4.0)
        assert result.ratio == pytest.approx(9.0 / 5.0)
        assert result.iqr == 0.0

    def test_needs_a_round(self):
        with pytest.raises(ValueError):
            perf.abba(lambda: 1.0, lambda: 1.0, rounds=0)


class TestEngine:
    @pytest.mark.parametrize("before", [None, "0", "1"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_pins_and_restores(self, monkeypatch, before, fast):
        if before is None:
            monkeypatch.delenv("REPRO_FASTSIM", raising=False)
        else:
            monkeypatch.setenv("REPRO_FASTSIM", before)
        with perf.engine(fast):
            assert os.environ["REPRO_FASTSIM"] == ("1" if fast else "0")
        assert os.environ.get("REPRO_FASTSIM") == before

    @pytest.mark.parametrize("before", [None, "0"])
    def test_restores_when_the_body_raises(self, monkeypatch, before):
        if before is None:
            monkeypatch.delenv("REPRO_FASTSIM", raising=False)
        else:
            monkeypatch.setenv("REPRO_FASTSIM", before)
        with pytest.raises(KeyError):
            with perf.engine(True):
                raise KeyError("boom")
        assert os.environ.get("REPRO_FASTSIM") == before

    def test_setup_cache_does_not_leak_across_the_pin(self):
        spec = WorkloadSpec(structure="hashmap", num_threads=2,
                            initial_size=16, ops_per_thread=4, seed=1)
        with perf.engine(False):
            assert not simulator._PROTO_CACHE
            simulator.simulate(spec, "lrp", MachineConfig(num_cores=2))
            assert simulator._PROTO_CACHE
        assert not simulator._PROTO_CACHE


class TestSourceTree:
    @needs_git
    def test_head_is_importable_from_the_temp_dir(self):
        with perf.source_tree("HEAD") as src:
            found = subprocess.run(
                [sys.executable, "-c",
                 "import repro; print(repro.__file__)"],
                env=dict(os.environ, PYTHONPATH=src), cwd=src,
                capture_output=True, text=True, check=True).stdout.strip()
            assert found.startswith(src + os.sep)
            assert os.path.isfile(os.path.join(src, "repro", "bench",
                                               "profile.py"))
        assert not os.path.exists(src)

    @needs_git
    def test_missing_ref_fails_loudly(self):
        with pytest.raises(RuntimeError, match="no-such-ref"):
            with perf.source_tree("no-such-ref"):
                pass

    @pytest.mark.parametrize("status, ref", [(b"", "HEAD~1"),
                                             (b" M src/x.py\n", "HEAD")])
    def test_base_ref_follows_uncommitted_src(self, monkeypatch, status,
                                              ref):
        monkeypatch.setattr(perf, "_git", lambda *args: status)
        assert perf.base_ref() == ref


def test_engines_agree_compares_both_engines():
    spec = WorkloadSpec(structure="hashmap", num_threads=2,
                        initial_size=16, ops_per_thread=4, seed=1)
    config = MachineConfig(num_cores=2)
    args = (spec, config, ["lrp"], lambda: Observer(timeline_interval=100))
    assert _engines_agree(*args, Observer.export, "fast ", False)
    # An export that differs between the two runs must be caught.
    runs = itertools.count()
    assert not _engines_agree(*args, lambda _obs: next(runs), "fast ",
                              False)


@pytest.mark.slow
@needs_git
@pytest.mark.parametrize("bound, status", [(100.0, 0), (0.0, 1)])
def test_profile_against_head(monkeypatch, capsys, bound, status):
    monkeypatch.setattr(profile, "AGAINST_ROUNDS", 1)
    monkeypatch.setattr(profile, "AGAINST_BOUND", bound)
    monkeypatch.setattr(perf, "base_ref", lambda: "HEAD")
    assert profile.main(["--against"]) == status
    out = capsys.readouterr().out
    assert "working tree vs HEAD, 1 ABBA rounds" in out
    # Both sides ran the same simulation of the quick hashmap/lrp cell.
    assert out.count("makespan 9216") == 2
