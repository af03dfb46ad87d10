"""chainlog benchmark: one command, three seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs one untraced and one traced episode of the workload plus the isolated
per-layer sweep, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A failed
correctness check exits with status 1; a checkout without ``src/chainlog``
exits with status 2 before measuring anything.

See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
MIN_SETUPS = 3  # set-ups timed per run, at least; cheap ones repeat until MIN_SETUP_S
MIN_SETUP_S = 0.5
FRAME_TYPES = ("tx_submit", "proposal", "validation", "ledger_request", "ledger_data", "info")
REJECT_REASONS = ("bad_signature", "stale_seq", "unreachable")

END_TO_END = {
    "commit_tps": "tx/s",
    "wall_ms_per_ledger": "ms",
    "commit_sim_ms_p50": "sim_ms",
    "commit_sim_ms_p90": "sim_ms",
    "read_us_p50": "us",
    "wire_kb_per_tx": "KiB",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SWEEP_NAMES = [
    f"sqlvm.{what}.{size}"
    for what in ("state_hash_ms", "clone_ms", "query_select_us")
    for size in ("rows_1k", "rows_10k", "rows_100k")
] + ["codec.tx_encode_us", "codec.tx_decode_us"] + [
    f"signing.{what}.{scheme}"
    for what in ("sign_us", "verify_isolated_us")
    for scheme in ("hash-test", "ed25519")
]
PER_LAYER = {
    "codec.unpack_calls_per_tx": "count",
    "codec.unpack_ms_per_tx": "ms",
    "codec.pack_ms_per_tx": "ms",
    "codec.ledger_decode_ms_per_ledger": "ms",
    "signing.verify_calls_per_tx": "count",
    "signing.verify_us.hash-test": "us",
    "signing.verify_us.ed25519": "us",
    "signing.consensus_verify_calls_per_ledger": "count",
    "ledger.build_ms_per_ledger": "ms",
    "ledger.persist_ms_per_ledger": "ms",
    "sqlvm.state_hash_calls_per_ledger": "count",
    "sqlvm.state_hash_ms": "ms",
    "sqlvm.clone_calls_per_ledger": "count",
    "sqlvm.clone_ms": "ms",
    "sqlvm.apply_op_calls_per_committed_tx": "count",
    "sqlvm.apply_op_us": "us",
    "sqlvm.rollback_calls_per_ledger": "count",
    "sqlvm.rollback_ms": "ms",
    "sqlvm.query_select_us": "us",
    "sqlvm.replay_ms_per_ledger": "ms",
    "consensus.rounds_per_ledger": "count",
    "consensus.nonempty_ledger_ratio": "ratio",
    "consensus.tick_self_ms_per_ledger": "ms",
    "consensus.proposals_in_per_ledger": "count",
    "consensus.validations_in_per_ledger": "count",
    "netsim.frames_per_tx": "count",
    **{f"netsim.frames_per_tx.{t}": "count" for t in FRAME_TYPES},
    "netsim.events_per_s": "1/s",
    "netsim.step_self_us": "us",
    "netsim.dropped_frames": "count",
    "node.on_message_self_ms_per_tx": "ms",
    "node.on_timer_self_ms_per_ledger": "ms",
    "node.apply_sync_ms": "ms",
    "node.sync_calls": "count",
    **{f"node.submit_rejects.{r}": "count" for r in REJECT_REASONS},
    "middleware.center_ship_ms_per_ledger": "ms",
    "middleware.ship_lag_sim_ms": "sim_ms",
    "trace.overhead_ratio": "ratio",
    "trace.top_span_coverage": "ratio",
    **{name: ("us" if name.split(".")[1].endswith("us") else "ms") for name in SWEEP_NAMES},
}


def import_chainlog() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "chainlog" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no chainlog sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chainlog

    if Path(chainlog.__file__).resolve().parent != SRC / "chainlog":
        sys.stderr.write(f"perfbench: imported chainlog from {chainlog.__file__}, not {SRC}\n")
        sys.exit(2)


class SetupOnly(Exception):
    """Raised at the window's start when only the set-up is being timed."""


class Meter:
    """Delivered-frame and byte counts, and sync commit times, for one window.

    Wraps ``Node.on_message`` (one length and tag read per delivery) and
    ``Node.apply_sync`` (records the sim time each synced seq landed).
    """

    def __init__(self) -> None:
        self.counting = False
        self.bytes = 0
        self.frames = 0
        self.by_tag = [0] * 8
        self.sync_times = {}
        self.wall_s = 0.0
        self._saved = []

    def install(self) -> None:
        from chainlog.node import Node

        meter = self
        on_message, apply_sync = Node.__dict__["on_message"], Node.__dict__["apply_sync"]

        def counted(node, now, sender, data):
            if meter.counting:
                meter.frames += 1
                meter.bytes += len(data)
                if len(data) > 4 and data[4] < 8:
                    meter.by_tag[data[4]] += 1
            return on_message(node, now, sender, data)

        def synced(node, data):
            report = apply_sync(node, data)
            if report.ok:
                for seq in range(report.from_seq, report.to_seq + 1):
                    meter.sync_times.setdefault((node.node_id, seq), node._now)
            return report

        self._saved = [(Node, "on_message", on_message), (Node, "apply_sync", apply_sync)]
        Node.on_message, Node.apply_sync = counted, synced

    def uninstall(self) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        self._saved = []


class Context:
    """What a workload episode gets: temp dirs inside the checkout and the window."""

    def __init__(self, schedule: int = 0, tracer=None, setup_only: bool = False) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self.setup_only = setup_only
        self.host_samples = []
        self.meter = Meter()
        self.window_started = None
        self._in_window = False
        self._paused_s = 0.0
        self.tmp_root = TMP_DIR / f"{os.getpid()}"

    def sample_host(self) -> None:
        """Time a slice of the host-speed job (hostspeed.py) inside the window.

        Workloads call this at quiet points: each sim second, between
        phases. The slice's time is left out of the window's wall time.
        """
        if not self._in_window:
            return
        from hostspeed import SAMPLE_S, probe

        t0 = time.perf_counter()
        self.host_samples.append(probe(SAMPLE_S))
        self._paused_s += time.perf_counter() - t0

    def tmp_dir(self, name: str) -> Path:
        path = self.tmp_root / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @contextlib.contextmanager
    def window(self):
        self.window_started = time.perf_counter()
        if self.setup_only:
            raise SetupOnly()
        meter = self.meter
        meter.counting = True
        if self.tracer is not None:
            self.tracer.active = True
        self._in_window = True
        t0 = time.perf_counter()
        try:
            yield meter
        finally:
            meter.wall_s = time.perf_counter() - t0 - self._paused_s
            self._in_window = False
            meter.counting = False
            if self.tracer is not None:
                self.tracer.active = False

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_DIR.rmdir()


def run_episode(fn, seed: int, schedule: int = 0, tracer=None, setup_only: bool = False):
    """Set up and run one episode; returns (setup seconds, Episode or None)."""
    ctx = Context(schedule, tracer, setup_only)
    ctx.meter.install()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        episode = fn(seed, ctx)
    except SetupOnly:
        episode = None
    finally:
        if tracer is not None:
            tracer.uninstall()
        ctx.meter.uninstall()
        setup_s = (ctx.window_started or time.perf_counter()) - t0
        ctx.cleanup()
        gc.collect()
    if episode is not None:
        episode.setup_s = setup_s
        episode.frames_by_tag = list(ctx.meter.by_tag)
        episode.host_samples = ctx.host_samples
    return setup_s, episode


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str, samples: int, raw: float = None) -> dict:
    out = {"value": value, "unit": unit, "samples": samples}
    if raw is not None:
        out["raw"] = raw
    return out


def end_to_end(episodes, scales, setups, setup_scales, schedules: int) -> dict:
    """Wall figures: medians over all episodes, at reference host speed.

    ``scales[i]`` is episode i's host-speed scale (see hostspeed.py); each
    wall figure also carries its unscaled median as ``raw``. Sim figures pool
    the first ``schedules`` episodes.
    """
    from workloads import percentile

    first = episodes[0]
    sim = episodes[:schedules]
    latencies = [ms for ep in sim for ms in ep.commit_sim_ms]
    sim_txs = sum(ep.committed_txs for ep in sim)

    def wall(unit, per_episode):
        scaled = statistics.median(per_episode(ep, k) for ep, k in zip(episodes, scales))
        raw = statistics.median(per_episode(ep, 1.0) for ep in episodes)
        return _metric(scaled, unit, len(episodes), raw)

    reads = [us for ep in episodes for us in ep.read_us]
    scaled_reads = [us * k for ep, k in zip(episodes, scales) for us in ep.read_us]
    out = {
        "commit_tps": wall("tx/s", lambda ep, k: ep.committed_txs / (ep.window_s * k)),
        "wall_ms_per_ledger": wall("ms", lambda ep, k: 1e3 * ep.window_s * k / ep.ledgers),
        "commit_sim_ms_p50": _metric(float(statistics.median(latencies)), "sim_ms", len(latencies)),
        "commit_sim_ms_p90": _metric(float(percentile(latencies, 0.9)), "sim_ms", len(latencies)),
        "read_us_p50": _metric(statistics.median(scaled_reads), "us", len(reads), statistics.median(reads)),
        # Printed, not scored: the tail follows the host's cache contention.
        # Its run-to-run spread was 0.13-0.38 of its median, and above 0.25,
        # the largest bound allowed, on ingest.
        "read_us_p95": _metric(percentile(scaled_reads, 0.95), "us", len(reads), percentile(reads, 0.95)),
        "wire_kb_per_tx": _metric(sum(ep.wire_bytes for ep in sim) / 1024 / sim_txs, "KiB", sim_txs),
        "setup_s": _metric(
            statistics.median(s * k for s, k in zip(setups, setup_scales)), "s", len(setups), statistics.median(setups)
        ),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", 1),
    }
    if "catchup_sim_ms" in first.extra:
        out["catchup_sim_ms"] = _metric(first.extra["catchup_sim_ms"], "sim_ms", 1)
    if "join_full_s" in first.extra:
        out["join_full_s"] = wall("s", lambda ep, k: ep.extra["join_full_s"] * k)
        out["join_pruned_s"] = wall("s", lambda ep, k: ep.extra["join_pruned_s"] * k)
        out["audit_ledgers_per_s"] = wall("ledgers/s", lambda ep, k: ep.extra["audit_ledgers_per_s"] / k)
    attempted = sum(ep.ops_attempted for ep in episodes)
    failed = sum(ep.ops_failed for ep in episodes)
    out["failed_op_frac"] = _metric(failed / attempted, "ratio", attempted)
    return out


def per_layer(ep, base, tracer, sweep_out: dict) -> dict:
    """Per-layer metrics of one traced episode ``ep``; ``base`` is its untraced twin."""
    st = tracer.stat
    txs = max(1, ep.committed_txs)
    ledgers = max(1, ep.ledgers)
    node_ledgers = ledgers * max(1, ep.layer.get("validators", 1))

    def mean_ms(name, field="total_ns"):
        s = st(name)
        return getattr(s, field) / s.calls / 1e6 if s.calls else 0.0

    def total_ms(*names, field="total_ns"):
        return sum(getattr(st(n), field) for n in names) / 1e6

    out = {
        "codec.unpack_calls_per_tx": st("codec.unpack_message").calls / txs,
        "codec.unpack_ms_per_tx": total_ms("codec.unpack_message", field="self_ns") / txs,
        "codec.pack_ms_per_tx": total_ms("codec.pack_message") / txs,
        "codec.ledger_decode_ms_per_ledger": mean_ms("codec.deserialize_ledger"),
        "signing.verify_calls_per_tx": st("signing.verify_signature").calls / txs,
        "signing.verify_us.hash-test": 1e3 * mean_ms("signing.verify.hash-test"),
        "signing.verify_us.ed25519": 1e3 * mean_ms("signing.verify.ed25519"),
        "signing.consensus_verify_calls_per_ledger": st("signing.verify_consensus_message").calls / ledgers,
        "ledger.build_ms_per_ledger": total_ms("ledger.build_ledger", field="self_ns") / ledgers,
        "ledger.persist_ms_per_ledger": total_ms("ledger.write_block_file", "ledger.append_manifest") / ledgers,
        "sqlvm.state_hash_calls_per_ledger": st("sqlvm.state_hash").calls / node_ledgers,
        "sqlvm.state_hash_ms": mean_ms("sqlvm.state_hash"),
        "sqlvm.clone_calls_per_ledger": st("sqlvm.clone").calls / node_ledgers,
        "sqlvm.clone_ms": mean_ms("sqlvm.clone"),
        "sqlvm.apply_op_calls_per_committed_tx": st("sqlvm.apply_op").calls / txs,
        "sqlvm.apply_op_us": 1e3 * mean_ms("sqlvm.apply_op"),
        "sqlvm.rollback_calls_per_ledger": st("sqlvm.rollback_pending").calls / ledgers,
        "sqlvm.rollback_ms": mean_ms("sqlvm.rollback_pending"),
        "sqlvm.query_select_us": 1e3 * mean_ms("sqlvm.query_select"),
        "sqlvm.replay_ms_per_ledger": mean_ms("sqlvm.apply_ledger"),
        "consensus.rounds_per_ledger": ep.layer.get("rounds_per_ledger", 0.0),
        "consensus.nonempty_ledger_ratio": ep.layer.get("nonempty_ledger_ratio", 0.0),
        "consensus.tick_self_ms_per_ledger": total_ms("consensus.tick", field="self_ns") / ledgers,
        "consensus.proposals_in_per_ledger": st("consensus.receive_proposal").calls / ledgers,
        "consensus.validations_in_per_ledger": st("consensus.receive_validation").calls / ledgers,
        "netsim.frames_per_tx": ep.frames / txs,
        **{f"netsim.frames_per_tx.{t}": ep.frames_by_tag[i] / txs for i, t in enumerate(FRAME_TYPES)},
        "netsim.events_per_s": st("netsim.step").calls / base.window_s,
        "netsim.step_self_us": 1e3 * mean_ms("netsim.step", field="self_ns"),
        "netsim.dropped_frames": float(ep.layer.get("dropped_frames", 0)),
        "node.on_message_self_ms_per_tx": total_ms("node.on_message", field="self_ns") / txs,
        "node.on_timer_self_ms_per_ledger": total_ms("node.on_timer", field="self_ns") / ledgers,
        "node.apply_sync_ms": mean_ms("node.apply_sync"),
        "node.sync_calls": float(st("node.apply_sync").calls),
        **{f"node.submit_rejects.{r}": float(ep.layer.get(f"reject.{r}", 0)) for r in REJECT_REASONS},
        "middleware.center_ship_ms_per_ledger": total_ms("middleware.center_tick", field="self_ns") / ledgers,
        "middleware.ship_lag_sim_ms": ep.layer.get("ship_lag_sim_ms", 0.0),
        # Both windows at reference host speed, so host drift between them cancels.
        "trace.overhead_ratio": (ep.window_s / statistics.median(ep.host_samples))
        / (base.window_s / statistics.median(base.host_samples)),
        "trace.top_span_coverage": tracer.top_level_ns() / 1e9 / ep.window_s,
        **sweep_out,
    }
    return {name: _metric(out[name], unit, 1) for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------


def machine_notes(workload: str, seed: int, seconds: float, trace: int, sizes: dict) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    import cryptography

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "sizes": sizes,
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Episodes until the timed windows add up to ``seconds``; medians of the wall figures."""
    from hostspeed import REFERENCE_S, probe
    from workloads import SCHEDULES, WORKLOADS

    fn = WORKLOADS[workload]

    episodes, scales, setups, setup_scales = [], [], [], []
    while len(episodes) < SCHEDULES[workload] or sum(ep.window_s for ep in episodes) < seconds:
        setup_s, ep = run_episode(fn, seed, schedule=len(episodes))
        episodes.append(ep)
        scales.append(REFERENCE_S / statistics.median(ep.host_samples))
        setups.append(setup_s)
        setup_scales.append(scales[-1])
    while len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_S:
        before = probe()
        setups.append(run_episode(fn, seed, setup_only=True)[0])
        setup_scales.append(REFERENCE_S / ((before + probe()) / 2))
    return {
        "metrics": end_to_end(episodes, scales, setups, setup_scales, SCHEDULES[workload]),
        "host_scale": statistics.median(scales),
        "attempted": sum(ep.ops_attempted for ep in episodes),
        "failed": sum(ep.ops_failed for ep in episodes),
        "episodes": len(episodes),
        "sizes": episodes[0].sizes,
    }


def measure_traced(workload: str, seed: int, out_dir: Path) -> dict:
    from sweep import sweep
    from tracing import Tracer
    from workloads import WORKLOADS

    fn = WORKLOADS[workload]
    _, base = run_episode(fn, seed)
    tracer = Tracer()
    _, ep = run_episode(fn, seed, tracer=tracer)
    metrics = per_layer(ep, base, tracer, sweep(seed))
    tracer.write(out_dir / f"spans-{workload}-{seed}.bin.gz", {"workload": workload, "seed": seed})
    return {
        "metrics": metrics,
        "attempted": base.ops_attempted + ep.ops_attempted,
        "failed": base.ops_failed + ep.ops_failed,
        "episodes": 2,
        "sizes": ep.sizes,
    }


def report(workload: str, result: dict, notes: dict) -> None:
    print(f"== {workload} ({result['episodes']} episodes)")
    for key in ("nproc", "cpu_model", "python", "cryptography", "seed", "sizes"):
        print(f"   {key}: {notes[key]}")
    if "host_scale" in result:
        print(f"   host_scale: {result['host_scale']:.4f} (wall figures are raw x scale; see hostspeed.py)")
    for name, m in result["metrics"].items():
        raw = f"  raw {m['raw']:.4f}" if "raw" in m else ""
        print(f"   {name:44s} {m['value']:14.4f} {m['unit']:10s} n={m['samples']}{raw}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["ingest", "bigtable", "recovery", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_chainlog()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import CheckFailed

    names = ["ingest", "bigtable", "recovery"] if args.workload == "all" else [args.workload]
    scored = PER_LAYER if args.trace else END_TO_END
    lines, ok = {}, True
    for workload in names:
        try:
            if args.trace:
                result = measure_traced(workload, args.seed, OUT_DIR)
            else:
                result = measure(workload, args.seed, args.seconds)
        except CheckFailed as exc:
            print(f"== {workload}: correctness check failed: {exc}")
            lines[workload] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            ok = False
            continue
        notes = machine_notes(workload, args.seed, args.seconds, args.trace, result["sizes"])
        report(workload, result, notes)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"BENCH_{workload}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps({"notes": notes, **result}, indent=1) + "\n"
        )
        lines[workload] = {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": result["metrics"][n]["value"], "unit": u} for n, u in scored.items()},
        }
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
