"""Tests for the experiment job service.

The headline guarantee under test: a campaign SIGKILL'd mid-sweep and
resumed produces **byte-identical** aggregate results to an
uninterrupted run, and a job whose result is already journaled or
cached is never executed twice. Beneath it, the building blocks each
get their own pinning: the JSON job codec round-trips exactly, every
queue transition is an atomic rename with a well-defined crash state,
lease recovery re-queues dead workers without stealing from slow live
ones, the shared-cache directory protocol is read-through/publish-on-
write, and the cache hygiene CLI plans before it deletes.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.bench.configs import SCALED_CONFIG, bench_config
from repro.exp import heartbeat
from repro.exp.cache import (
    ENV_SHARED,
    ResultCache,
    execute_prune,
    plan_prune,
    read_stats_since_marker,
    write_stats_marker,
)
from repro.exp.runner import ExperimentRunner, Job, execute_job
from repro.exp.service.campaign import (
    create_campaign,
    open_campaign,
    open_or_create,
)
from repro.exp.service.codec import CODEC_VERSION, decode_job, encode_job
from repro.exp.service.queue import WorkQueue, _write_json
from repro.exp.service.worker import (
    ServiceRunner,
    read_worker_stats,
    run_campaign,
    worker_loop,
)
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

CONFIG = bench_config(SCALED_CONFIG)


def tiny_jobs(workloads=("queue", "linkedlist"),
              mechanisms=("nop", "sb", "bb", "lrp"), seed=3):
    return [
        Job(spec=WorkloadSpec(structure=workload, num_threads=4,
                              initial_size=64, ops_per_thread=8,
                              seed=seed),
            mechanism=mech, config=CONFIG)
        for workload in workloads
        for mech in mechanisms
    ]


def drained_campaign(root, jobs, **kwargs):
    create_campaign(str(root), jobs, name="t", **kwargs)
    report = run_campaign(str(root), workers=0, poll=0.01)
    assert report.ok
    return open_campaign(str(root))


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------

class TestJobCodec:
    def test_roundtrip_equality_and_digest(self):
        job = tiny_jobs()[0]
        decoded = decode_job(encode_job(job))
        assert decoded == job
        assert decoded.key() == job.key()

    def test_roundtrip_survives_json_serialization(self):
        """The on-disk path: encode -> json.dumps -> loads -> decode."""
        job = tiny_jobs()[3]
        decoded = decode_job(json.loads(json.dumps(encode_job(job))))
        assert decoded == job

    def test_roundtrip_with_options(self):
        job = dataclasses.replace(
            tiny_jobs()[0], crash_points=5, crash_seed=7,
            collect_obs=True, collect_trace=True, timeline_interval=64,
            collect_provenance=True, collect_spans=True,
            schedule_nudges=((3, 1), (9, 0)))
        decoded = decode_job(json.loads(json.dumps(encode_job(job))))
        assert decoded == job
        assert decoded.key() == job.key()

    def test_roundtrip_kvservice_spec(self):
        spec = KVServiceSpec(structure="hashmap", num_threads=4,
                             initial_size=64, requests_per_thread=8,
                             seed=5)
        job = Job(spec=spec, mechanism="lrp", config=CONFIG,
                  collect_spans=True)
        decoded = decode_job(json.loads(json.dumps(encode_job(job))))
        assert decoded == job
        assert isinstance(decoded.spec, KVServiceSpec)

    def test_fuzz_jobs_refused(self):
        job = dataclasses.replace(tiny_jobs()[0], fuzz=object())
        with pytest.raises(ValueError, match="fuzz"):
            encode_job(job)

    def test_unknown_codec_version_refused(self):
        data = encode_job(tiny_jobs()[0])
        data["codec"] = CODEC_VERSION + 1
        with pytest.raises(ValueError, match="codec version"):
            decode_job(data)


# ----------------------------------------------------------------------
# Work queue
# ----------------------------------------------------------------------

class TestWorkQueue:
    def make(self, tmp_path, shards=2, **kwargs):
        queue = WorkQueue(str(tmp_path), num_shards=shards, **kwargs)
        queue.ensure_dirs()
        return queue

    def test_add_and_claim_own_shard(self, tmp_path):
        queue = self.make(tmp_path)
        queue.add(0, "d0")
        queue.add(1, "d1")
        ticket = queue.claim("w0", preferred_shard=0)
        assert (ticket.digest, ticket.shard, ticket.stolen) == \
            ("d0", 0, False)

    def test_steal_prefers_longest_pending_shard(self, tmp_path):
        queue = self.make(tmp_path, shards=3)
        # Shard 1 gets one ticket, shard 2 gets two; worker 0's own
        # shard is empty, so it must steal from shard 2 first.
        queue.add(1, "d1")
        queue.add(2, "d2a")
        queue.add(5, "d2b")
        ticket = queue.claim("w0", preferred_shard=0)
        assert ticket.shard == 2 and ticket.stolen

    def test_claim_is_exactly_once(self, tmp_path):
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        first = queue.claim("w0", preferred_shard=0)
        second = queue.claim("w1", preferred_shard=0)
        assert first is not None and second is None

    def test_complete_moves_to_done(self, tmp_path):
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        queue.complete(ticket, "w0", cached=False)
        counts = queue.counts()
        assert (counts["done"], counts["leased"], counts["pending"]) \
            == (1, 0, 0)
        assert "d0" in queue.done_digests()

    def test_fail_requeues_with_backoff(self, tmp_path):
        queue = self.make(tmp_path, shards=1, backoff=10.0)
        queue.add(0, "d0")
        now = time.time()
        ticket = queue.claim("w0", preferred_shard=0, now=now)
        assert queue.fail(ticket, "boom", now=now) is True
        # Backed off: not runnable now, runnable after the delay.
        assert queue.claim("w0", preferred_shard=0, now=now) is None
        retry = queue.claim("w0", preferred_shard=0, now=now + 11.0)
        assert retry is not None and retry.attempts == 1

    def test_backoff_grows_exponentially(self, tmp_path):
        queue = self.make(tmp_path, shards=1, backoff=10.0,
                          max_attempts=4)
        queue.add(0, "d0")
        now = time.time()
        ticket = queue.claim("w0", preferred_shard=0, now=now)
        queue.fail(ticket, "a", now=now)
        ticket = queue.claim("w0", preferred_shard=0, now=now + 11.0)
        queue.fail(ticket, "b", now=now)
        # Second retry delay is backoff * 2**1 = 20s.
        assert queue.claim("w0", preferred_shard=0, now=now + 11.0) \
            is None
        assert queue.claim("w0", preferred_shard=0, now=now + 21.0) \
            is not None

    def test_fail_exhausts_to_failed(self, tmp_path):
        queue = self.make(tmp_path, shards=1, max_attempts=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        assert queue.fail(ticket, "boom") is False
        counts = queue.counts()
        assert (counts["failed"], counts["pending"]) == (1, 0)
        assert queue.failed_tickets()["d0"]["error"] == "boom"

    def test_recover_requeues_dead_worker(self, tmp_path):
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        # Re-attribute the lease to a provably dead pid (the claimant
        # pid lives in the lease filename).
        leased_dir = os.path.join(queue.root, "leased")
        os.rename(
            os.path.join(leased_dir, queue._lease_name(ticket.name)),
            os.path.join(leased_dir,
                         queue._lease_name(ticket.name, 2 ** 22 + 1)))
        report = queue.recover()
        assert report.requeued == 1
        requeued = queue.claim("w1", preferred_shard=0)
        assert requeued is not None and requeued.attempts == 1

    def test_recover_renews_live_expired_lease(self, tmp_path):
        """A slow-but-alive worker is renewed, never stolen from."""
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        lease = os.path.join(queue.root, "leased",
                             queue._lease_name(ticket.name))
        payload = json.load(open(lease))
        payload["expires"] = time.time() - 100.0  # pid stays ours
        _write_json(lease, payload)
        report = queue.recover()
        assert report.renewed == 1 and report.requeued == 0
        assert queue.counts()["leased"] == 1

    def test_recover_clears_orphan_with_done_twin(self, tmp_path):
        """Crash between done-write and lease-unlink is repaired."""
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        _write_json(os.path.join(queue.root, "done", ticket.name),
                    {"attempts": 0, "worker": "w0", "cached": False})
        report = queue.recover()
        assert report.orphans_cleared == 1
        counts = queue.counts()
        assert (counts["done"], counts["leased"]) == (1, 0)

    def test_recover_mid_claim_crash_requeues_immediately(
            self, tmp_path):
        """The claim rename embeds the claimant pid in the filename,
        so a crash before the lease-payload write is still
        attributable: dead claimant -> immediate requeue, live
        claimant -> left alone. No TTL wait, no mtime heuristics."""
        queue = self.make(tmp_path, shards=1)
        queue.add(0, "d0")
        queue.add(1, "d1")
        pending = queue._shard_dir(0)
        leased = os.path.join(queue.root, "leased")
        # d0: claimant (a dead pid) crashed right after the rename.
        os.rename(os.path.join(pending, "000000.d0.json"),
                  os.path.join(leased, queue._lease_name(
                      "000000.d0.json", 2 ** 22 + 1)))
        # d1: a live claimant (us) is mid-claim right now.
        os.rename(os.path.join(pending, "000001.d1.json"),
                  os.path.join(leased,
                               queue._lease_name("000001.d1.json")))
        report = queue.recover()
        assert report.requeued == 1
        counts = queue.counts()
        assert (counts["pending"], counts["leased"]) == (1, 1)

    def test_recover_exhausts_repeatedly_dying_worker(self, tmp_path):
        queue = self.make(tmp_path, shards=1, max_attempts=1)
        queue.add(0, "d0")
        ticket = queue.claim("w0", preferred_shard=0)
        leased_dir = os.path.join(queue.root, "leased")
        os.rename(
            os.path.join(leased_dir, queue._lease_name(ticket.name)),
            os.path.join(leased_dir,
                         queue._lease_name(ticket.name, 2 ** 22 + 1)))
        report = queue.recover()
        assert report.exhausted == 1
        assert queue.counts()["failed"] == 1


# ----------------------------------------------------------------------
# Campaign directory
# ----------------------------------------------------------------------

class TestCampaign:
    def test_create_open_roundtrip(self, tmp_path):
        jobs = tiny_jobs()
        create_campaign(str(tmp_path / "c"), jobs, name="t",
                        num_shards=3)
        campaign = open_campaign(str(tmp_path / "c"))
        assert campaign.name == "t"
        assert campaign.queue.num_shards == 3
        assert len(campaign.unique) == len(jobs)
        assert campaign.status().pending == len(jobs)

    def test_create_refuses_existing_directory(self, tmp_path):
        create_campaign(str(tmp_path / "c"), tiny_jobs(), name="t")
        with pytest.raises(FileExistsError):
            create_campaign(str(tmp_path / "c"), tiny_jobs(), name="t")

    def test_extend_is_digest_idempotent(self, tmp_path):
        jobs = tiny_jobs()
        campaign = create_campaign(str(tmp_path / "c"), jobs, name="t")
        assert campaign.extend(jobs) == []  # no new digests
        assert len(campaign.unique) == len(jobs)
        assert len(campaign.order) == 2 * len(jobs)
        assert campaign.status().pending == len(jobs)  # no new tickets

    def test_ensure_tickets_repairs_mid_submit_crash(self, tmp_path):
        jobs = tiny_jobs()
        campaign = create_campaign(str(tmp_path / "c"), jobs, name="t")
        # Simulate a crash between the meta write and ticket adds.
        victim = campaign.queue.claim("w0", preferred_shard=0)
        os.unlink(os.path.join(
            campaign.queue.root, "leased",
            campaign.queue._lease_name(victim.name)))
        assert campaign.ensure_tickets() == 1
        assert campaign.status().pending == len(jobs)

    def test_results_journal_skips_torn_lines(self, tmp_path):
        campaign = create_campaign(str(tmp_path / "c"), tiny_jobs(),
                                   name="t")
        campaign.append_result({"digest": "d0", "cached": False,
                                "fingerprint": {}})
        with open(campaign.results_path, "a") as handle:
            handle.write('{"digest": "d1", "cach')  # SIGKILL mid-append
        records = campaign.read_results()
        assert [r["digest"] for r in records] == ["d0"]

    def test_results_by_digest_keeps_first(self, tmp_path):
        campaign = create_campaign(str(tmp_path / "c"), tiny_jobs(),
                                   name="t")
        campaign.append_result({"digest": "d0", "worker": "w0",
                                "fingerprint": {}})
        campaign.append_result({"digest": "d0", "worker": "w1",
                                "fingerprint": {}})
        assert campaign.results_by_digest()["d0"]["worker"] == "w0"

    def test_aggregate_raises_while_incomplete(self, tmp_path):
        campaign = create_campaign(str(tmp_path / "c"), tiny_jobs(),
                                   name="t")
        with pytest.raises(RuntimeError, match="incomplete"):
            campaign.aggregate()

    def test_open_or_create_resubmission_adds_nothing(self, tmp_path):
        jobs = tiny_jobs()
        first = open_or_create(str(tmp_path / "c"), jobs)
        again = open_or_create(str(tmp_path / "c"), jobs)
        assert again.unique == first.unique
        assert again.status().pending == len(jobs)


# ----------------------------------------------------------------------
# Worker pool / campaign execution
# ----------------------------------------------------------------------

class TestCampaignExecution:
    def test_in_process_drain_completes(self, tmp_path):
        jobs = tiny_jobs()
        campaign = drained_campaign(tmp_path / "c", jobs)
        status = campaign.status()
        assert status.complete and status.journaled == len(jobs)
        cache = campaign.cache()
        assert all(cache.get(job.key()) is not None for job in jobs)

    def test_multiworker_aggregate_matches_in_process(self, tmp_path):
        """Execution order and worker count never change the bytes."""
        jobs = tiny_jobs()
        serial = drained_campaign(tmp_path / "a", jobs)
        create_campaign(str(tmp_path / "b"), jobs, name="t")
        report = run_campaign(str(tmp_path / "b"), workers=2, poll=0.02)
        assert report.ok
        assert open_campaign(str(tmp_path / "b")).aggregate() \
            == serial.aggregate()

    def test_resume_of_finished_campaign_executes_nothing(self,
                                                          tmp_path):
        jobs = tiny_jobs()
        campaign = drained_campaign(tmp_path / "c", jobs)
        blob = campaign.aggregate()
        report = run_campaign(str(tmp_path / "c"), workers=0, poll=0.01)
        assert report.ok
        assert report.worker_stats[-1]["executed"] == 0
        assert open_campaign(str(tmp_path / "c")).aggregate() == blob

    def test_cached_jobs_never_reexecute(self, tmp_path, monkeypatch):
        """Satellite pin: a job whose cache entry exists is journaled
        as cached and not simulated, even from a fresh queue."""
        monkeypatch.delenv(ENV_SHARED, raising=False)
        jobs = tiny_jobs()
        campaign = create_campaign(str(tmp_path / "c"), jobs, name="t")
        cache = campaign.cache()
        for job in jobs:
            cache.put(job.key(), execute_job(job))
        stats = worker_loop(str(tmp_path / "c"), 0, poll=0.01)
        assert stats.executed == 0
        assert stats.cache_hits == len(jobs)
        records = campaign.read_results()
        assert len(records) == len(jobs)
        assert all(record["cached"] for record in records)

    def test_failing_job_retries_then_fails_campaign(self, tmp_path):
        jobs = tiny_jobs(mechanisms=("nop",))
        bogus = [dataclasses.replace(jobs[0], mechanism="bogus")]
        create_campaign(str(tmp_path / "c"), bogus, name="t",
                        max_attempts=2, backoff=0.01)
        report = run_campaign(str(tmp_path / "c"), workers=0, poll=0.01)
        assert not report.ok
        status = report.status
        assert status.failed == 1 and status.finished
        failed = open_campaign(str(tmp_path / "c"))
        payloads = failed.queue.failed_tickets()
        assert all(p["attempts"] == 2 for p in payloads.values())

    def test_worker_stats_written(self, tmp_path):
        drained_campaign(tmp_path / "c", tiny_jobs())
        stats = read_worker_stats(str(tmp_path / "c"))
        assert stats and stats[0]["worker"] == "w0"
        assert sum(s["executed"] for s in stats) == len(tiny_jobs())

    def test_cache_skip_writes_terminal_heartbeat(self, tmp_path,
                                                  monkeypatch):
        """Satellite: --watch never shows a finished (cache-skipped)
        job as running."""
        jobs = tiny_jobs(mechanisms=("nop", "lrp"))
        campaign = create_campaign(str(tmp_path / "c"), jobs, name="t")
        cache = campaign.cache()
        for job in jobs:
            cache.put(job.key(), execute_job(job))
        hb_dir = tmp_path / "hb"
        monkeypatch.setenv(heartbeat.ENV_DIR, str(hb_dir))
        worker_loop(str(tmp_path / "c"), 0, poll=0.01)
        entries = heartbeat.read_heartbeats(str(hb_dir))
        job_entries = [e for e in entries
                       if not str(e["label"]).startswith("svc-")]
        assert len(job_entries) == len(jobs)
        assert all(e["state"] == "done" and e.get("cached")
                   for e in job_entries)
        assert heartbeat.all_terminal(entries)


# ----------------------------------------------------------------------
# Crash / resume (the headline guarantee)
# ----------------------------------------------------------------------

def _spawn_run(root, workers=2):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    parts = [src] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    env.pop(ENV_SHARED, None)
    env.pop(heartbeat.ENV_DIR, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.exp.service", "run", root,
         "--workers", str(workers), "--quiet", "--poll", "0.02"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=env, start_new_session=True)


@pytest.mark.slow
class TestCrashResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """Kill a campaign at randomized points mid-sweep; resuming
        yields byte-identical aggregates with zero re-execution."""
        import random

        jobs = tiny_jobs(workloads=("queue", "linkedlist", "hashmap"))
        baseline = drained_campaign(tmp_path / "base", jobs).aggregate()
        rng = random.Random(1234)
        interrupted = 0
        for attempt in range(4):
            root = str(tmp_path / f"kill-{attempt}")
            campaign = create_campaign(root, jobs, name="t")
            proc = _spawn_run(root)
            deadline = time.time() + 120.0
            killed = False
            threshold = rng.randint(1, max(1, len(jobs) // 2))
            try:
                while time.time() < deadline and proc.poll() is None:
                    if len(campaign.read_results()) >= threshold:
                        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                        killed = True
                        break
                    time.sleep(0.005)
            finally:
                if proc.poll() is None and not killed:
                    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                proc.wait()
            if killed:
                interrupted += 1
            report = run_campaign(root, workers=2, poll=0.02)
            assert report.ok
            resumed = open_campaign(root)
            assert resumed.aggregate() == baseline
            # No digest may carry two uncached (executed) records.
            uncached = {}
            for record in resumed.read_results():
                if not record.get("cached"):
                    digest = record["digest"]
                    uncached[digest] = uncached.get(digest, 0) + 1
            assert all(count == 1 for count in uncached.values())
            if interrupted >= 2:
                break
        assert interrupted >= 1, \
            "no attempt was interrupted mid-sweep; grid too small"

    def test_killed_worker_lease_is_recovered(self, tmp_path):
        """SIGKILL one worker process: the coordinator re-queues its
        lease and the survivors finish the campaign."""
        jobs = tiny_jobs(workloads=("queue", "linkedlist", "hashmap"))
        baseline = drained_campaign(tmp_path / "base", jobs).aggregate()
        for attempt in range(4):
            root = str(tmp_path / f"wkill-{attempt}")
            campaign = create_campaign(root, jobs, name="t")
            leased_dir = os.path.join(campaign.queue.root, "leased")
            proc = _spawn_run(root)
            victim = None
            deadline = time.time() + 120.0
            try:
                while time.time() < deadline and proc.poll() is None:
                    for name in os.listdir(leased_dir):
                        split = campaign.queue._split_lease(name)
                        if split is None:
                            continue
                        pid = split[1]
                        if pid > 0 and pid != proc.pid:
                            victim = pid
                            break
                    if victim is not None:
                        break
                    time.sleep(0.002)
                if victim is not None:
                    try:
                        os.kill(victim, signal.SIGKILL)
                    except ProcessLookupError:
                        victim = None
                returncode = proc.wait(timeout=120.0)
            finally:
                if proc.poll() is None:
                    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                    proc.wait()
            if victim is None:
                continue  # campaign finished before we could aim
            assert returncode == 0
            assert open_campaign(root).aggregate() == baseline
            return
        pytest.fail("never caught a worker holding a lease")


# ----------------------------------------------------------------------
# ServiceRunner facade
# ----------------------------------------------------------------------

class TestServiceRunner:
    def test_matches_experiment_runner(self, tmp_path):
        jobs = tiny_jobs()
        direct = ExperimentRunner(jobs=1).run(jobs)
        service = ServiceRunner(str(tmp_path / "c"), workers=0)
        summaries = service.run(jobs)
        assert [(s.spec.structure, s.mechanism, s.makespan,
                 s.persist_log_digest) for s in summaries] \
            == [(s.spec.structure, s.mechanism, s.makespan,
                 s.persist_log_digest) for s in direct]

    def test_counts_hits_and_misses(self, tmp_path):
        jobs = tiny_jobs(mechanisms=("nop", "lrp"))
        service = ServiceRunner(str(tmp_path / "c"), workers=0)
        service.run(jobs)
        assert (service.cache_hits, service.cache_misses) \
            == (0, len(jobs))
        service.run(jobs)  # resumed: everything already journaled
        assert (service.cache_hits, service.cache_misses) \
            == (len(jobs), len(jobs))

    def test_raises_on_permanent_failure(self, tmp_path):
        job = dataclasses.replace(tiny_jobs()[0], mechanism="bogus")
        service = ServiceRunner(str(tmp_path / "c"), workers=0,
                                max_attempts=1)
        with pytest.raises(RuntimeError, match="did not complete"):
            service.run([job])


# ----------------------------------------------------------------------
# Shared cache directory protocol
# ----------------------------------------------------------------------

class TestSharedCache:
    def summary(self):
        return execute_job(tiny_jobs(mechanisms=("nop",))[0])

    def test_put_publishes_to_shared(self, tmp_path):
        cache = ResultCache(tmp_path / "local",
                            shared=tmp_path / "shared")
        cache.put("ab" * 32, self.summary())
        reader = ResultCache(tmp_path / "other",
                             shared=tmp_path / "shared")
        hit = reader.get("ab" * 32)
        assert hit is not None
        assert reader.shared_hits == 1

    def test_read_through_promotes_to_local(self, tmp_path):
        key = "cd" * 32
        ResultCache(tmp_path / "a",
                    shared=tmp_path / "shared").put(key, self.summary())
        reader = ResultCache(tmp_path / "b",
                             shared=tmp_path / "shared")
        assert reader.get(key) is not None
        # Promotion: now present locally even without the shared tier.
        local_only = ResultCache(tmp_path / "b")
        assert local_only.get(key) is not None

    def test_unwritable_shared_tier_degrades_silently(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = ResultCache(tmp_path / "local", shared=blocker)
        cache.put("ef" * 32, self.summary())  # must not raise
        assert ResultCache(tmp_path / "local").get("ef" * 32) is not None

    def test_campaigns_share_results_via_env(self, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv(ENV_SHARED, str(tmp_path / "shared"))
        jobs = tiny_jobs(mechanisms=("nop", "sb"))
        drained_campaign(tmp_path / "first", jobs)
        drained_campaign(tmp_path / "second", jobs)
        stats = read_worker_stats(str(tmp_path / "second"))
        assert sum(s["executed"] for s in stats) == 0
        assert sum(s["cache_hits"] for s in stats) == len(jobs)


# ----------------------------------------------------------------------
# Cache stats sidecar and pruning
# ----------------------------------------------------------------------

class TestCacheStatsAndPrune:
    def test_flush_stats_accumulates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("aa" * 32)  # miss
        cache.put("aa" * 32, {"v": 1})
        cache.get("aa" * 32)  # hit
        assert cache.flush_stats() is True
        window = read_stats_since_marker(cache.stats_path)
        assert (window["hits"], window["misses"],
                window["sessions"]) == (1, 1, 1)

    def test_flush_stats_noop_without_activity(self, tmp_path):
        assert ResultCache(tmp_path).flush_stats() is False

    def test_marker_resets_window(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("aa" * 32)
        cache.flush_stats()
        write_stats_marker(cache.stats_path)
        window = read_stats_since_marker(cache.stats_path)
        assert window["sessions"] == 0 and window["hit_rate"] is None

    def _populated(self, tmp_path, ages):
        cache = ResultCache(tmp_path)
        now = time.time()
        for index, age in enumerate(ages):
            key = f"{index:02d}" + "0" * 62
            cache.put(key, {"payload": "x" * 100})
            path = cache._path(key)
            os.utime(path, (now - age, now - age))
        return cache, now

    def test_plan_prune_older_than(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        victims = plan_prune(cache, older_than_seconds=500.0, now=now)
        assert len(victims) == 2
        # Pure planning: nothing deleted yet.
        assert cache.entry_count() == 3

    def test_plan_prune_max_bytes_evicts_oldest_first(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        entry = cache.total_bytes() // 3
        victims = plan_prune(cache, max_bytes=2 * entry, now=now)
        assert len(victims) == 1
        assert "02" in victims[0][0].name  # the oldest entry

    def test_execute_prune_unlinks(self, tmp_path):
        cache, now = self._populated(tmp_path, [10.0, 1000.0, 5000.0])
        victims = plan_prune(cache, older_than_seconds=500.0, now=now)
        removed, freed = execute_prune(victims)
        assert removed == 2 and freed > 0
        assert cache.entry_count() == 1


# ----------------------------------------------------------------------
# Heartbeat hardening
# ----------------------------------------------------------------------

class TestHeartbeatTerminalWrites:
    def test_terminal_write_retries_once(self, tmp_path, monkeypatch):
        writer = heartbeat.HeartbeatWriter(str(tmp_path), "job")
        real_replace = os.replace
        failures = {"left": 1}

        def flaky(src, dst):
            if failures["left"]:
                failures["left"] -= 1
                raise OSError("transient")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky)
        assert writer.update("done") is True
        entries = heartbeat.read_heartbeats(str(tmp_path))
        assert entries[0]["state"] == "done"

    def test_intermediate_write_not_retried(self, tmp_path,
                                            monkeypatch):
        writer = heartbeat.HeartbeatWriter(str(tmp_path), "job")
        calls = {"n": 0}

        def failing(src, dst):
            calls["n"] += 1
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing)
        assert writer.update("running") is False
        assert calls["n"] == 1

    def test_terminal_bypasses_throttle(self, tmp_path):
        writer = heartbeat.HeartbeatWriter(str(tmp_path), "job")
        assert writer.update("running") is True
        assert writer.update("running") is False  # throttled
        assert writer.update("done") is True  # terminal: always lands

    def test_runner_cache_hit_emits_terminal_heartbeat(self, tmp_path,
                                                       monkeypatch):
        jobs = tiny_jobs(mechanisms=("nop",))
        cache = ResultCache(tmp_path / "cache")
        ExperimentRunner(jobs=1, cache=cache).run(jobs)
        hb_dir = tmp_path / "hb"
        monkeypatch.setenv(heartbeat.ENV_DIR, str(hb_dir))
        runner = ExperimentRunner(jobs=1, cache=cache)
        runner.run(jobs)
        assert runner.cache_hits == len(jobs)
        entries = heartbeat.read_heartbeats(str(hb_dir))
        assert len(entries) == len(jobs)
        assert all(e["state"] == "done" and e.get("cached")
                   for e in entries)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

class TestServiceCLI:
    def run_cli(self, *argv):
        from repro.exp.service.__main__ import main

        return main(list(argv))

    def test_submit_run_status_aggregate(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        assert self.run_cli(
            "submit", root, "--workloads", "queue",
            "--mechanisms", "nop,lrp", "--threads", "4",
            "--size", "64", "--ops", "8") == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["submitted"] == 2
        assert self.run_cli("status", root) == 1  # incomplete yet
        capsys.readouterr()
        assert self.run_cli("run", root, "--workers", "0",
                            "--quiet") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] and report["status"]["done"] == 2
        assert self.run_cli("status", root) == 0
        capsys.readouterr()
        out_file = str(tmp_path / "agg.json")
        assert self.run_cli("aggregate", root, "--output",
                            out_file) == 0
        blob = open(out_file, "rb").read()
        assert blob == open_campaign(root).aggregate()

    def test_resume_alias_runs(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        self.run_cli("submit", root, "--workloads", "queue",
                     "--mechanisms", "nop", "--threads", "4",
                     "--size", "64", "--ops", "8")
        capsys.readouterr()
        assert self.run_cli("resume", root, "--workers", "0",
                            "--quiet") == 0

    def test_aggregate_incomplete_errors(self, tmp_path, capsys):
        root = str(tmp_path / "c")
        self.run_cli("submit", root, "--workloads", "queue",
                     "--mechanisms", "nop", "--threads", "4",
                     "--size", "64", "--ops", "8")
        capsys.readouterr()
        assert self.run_cli("aggregate", root) == 1


class TestCacheCLI:
    def run_cli(self, *argv):
        from repro.exp.__main__ import main

        return main(list(argv))

    def test_stats_reports_and_resets_window(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.get("aa" * 32)
        cache.put("aa" * 32, {"v": 1})
        cache.get("aa" * 32)
        cache.flush_stats()
        assert self.run_cli("cache", "stats", "--dir",
                            str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1 and payload["bytes"] > 0
        assert payload["since_last_stats"]["hits"] == 1
        assert self.run_cli("cache", "stats", "--dir",
                            str(tmp_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["since_last_stats"]["sessions"] == 0

    def test_prune_dry_run_then_apply(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("aa" * 32, {"v": 1})
        old = time.time() - 10 * 86400
        os.utime(cache._path("aa" * 32), (old, old))
        assert self.run_cli("cache", "prune", "--dir", str(tmp_path),
                            "--older-than", "7d") == 0
        assert "dry run" in capsys.readouterr().out
        assert cache.entry_count() == 1  # dry run deleted nothing
        assert self.run_cli("cache", "prune", "--dir", str(tmp_path),
                            "--older-than", "7d", "--apply") == 0
        assert cache.entry_count() == 0

    def test_prune_requires_a_limit(self, tmp_path):
        assert self.run_cli("cache", "prune", "--dir",
                            str(tmp_path)) == 2


# ----------------------------------------------------------------------
# bench.history integration
# ----------------------------------------------------------------------

class TestHistoryIntegration:
    def test_service_metric_classification(self):
        from repro.bench.history import classify

        assert classify("killed_run.resume_seconds", 2.2) == "timing"
        assert classify("worker_kill.seconds", 1.4) == "timing"
        assert classify("baseline_seconds", 1.0) == "timing"
        assert classify("throughput_per_sec", 18.0) == "quality"
        assert classify("identical_aggregate", True) == "contract"
        assert classify("ok", True) == "contract"
        assert classify("reexecutions", 0) == "exact"
        assert classify("recovered_leases", 3) == "info"
        assert classify("worker_kill.recovered_leases", 1) == "info"
        assert classify("killed_run.steals", 10) == "info"
        assert classify("killed_run.killed_after_jobs", 1) == "info"
        assert classify("worker_kill.killed_worker_pid", 77) == "info"
        assert classify("shared_cache.published_entries", 4) == "info"
        assert classify("shared_cache.warm_seconds", 0.007) == "info"
        assert classify("shared_cache.second_run_executed", 0) \
            == "exact"

    def test_live_section_renders_campaign(self, tmp_path):
        from repro.bench.history import render_live_section

        jobs = tiny_jobs(mechanisms=("nop", "lrp"))
        drained_campaign(tmp_path / "c", jobs)
        section = render_live_section(str(tmp_path / "c"))
        assert "Live campaign" in section
        assert f"**{len(jobs)}/{len(jobs)}** done" in section
        assert "makespan=" in section

    def test_live_section_falls_back_to_heartbeats(self, tmp_path):
        from repro.bench.history import render_live_section

        section = render_live_section(str(tmp_path / "empty"))
        assert "Live sweep" in section
        assert "No heartbeat files" in section
