"""The local fleet supervisor behind ``pgmp serve --shards N``.

Runs the root merger in-process (it owns the public checkpoint and the
controller, so the CLI's existing wiring applies unchanged) and each
shard either:

* as a **subprocess** (`python -m repro.tools.cli serve --fleet-role
  shard ...`) — the default, giving shards real OS-level parallelism
  (the GIL would otherwise serialize N shards' JSON parsing into one
  core) and making "kill a shard" a genuine process death; or
* **in-process** (``in_process=True``) — threads only, used by the test
  suite where spawning interpreters per test is too slow.

The monitor thread restarts crashed shards with the *same* shard id,
state file, and WAL directory, so the restarted process resumes its
slice exactly (ledger dedup holds across the failover) and re-registers
its new address with the root for shippers to re-resolve.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

from repro.core.errors import ServiceError
from repro.core.policy import ProfilePolicy
from repro.obs.logs import get_logger
from repro.service.fleet.root import RootMerger
from repro.service.fleet.shard import ShardAggregator
from repro.service.transport import request

logger = get_logger(__name__)

__all__ = ["FleetSupervisor"]


class _ShardSlot:
    """One managed shard: its identity, durable paths, and live handle."""

    def __init__(self, shard_id: str, state_path: str, wal_path: str) -> None:
        self.shard_id = shard_id
        self.state_path = state_path
        self.wal_path = wal_path
        self.address: str | None = None
        self.process: subprocess.Popen | None = None
        self.aggregator: ShardAggregator | None = None
        self.restarts = 0


class FleetSupervisor:
    """Spawn, monitor, and restart a local sharded fleet (see module docs)."""

    def __init__(
        self,
        shards: int,
        data_dir: "str | os.PathLike[str]",
        *,
        listen: str = "127.0.0.1:0",
        shard_host: str = "127.0.0.1",
        controller=None,
        metrics=None,
        metrics_port: int | None = None,
        checkpoint_path: str | None = None,
        checkpoint_interval: float = 2.0,
        sources=None,
        policy: ProfilePolicy | str = ProfilePolicy.WARN,
        read_timeout: float | None = 30.0,
        in_process: bool = False,
        restart: bool = True,
        spawn_timeout: float = 20.0,
        python: str = sys.executable,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"a fleet needs at least 1 shard, got {shards}")
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.shard_host = shard_host
        self.checkpoint_interval = float(checkpoint_interval)
        self.policy = ProfilePolicy.coerce(policy)
        self.read_timeout = read_timeout
        self.in_process = bool(in_process)
        self.restart = bool(restart)
        self.spawn_timeout = float(spawn_timeout)
        self.python = python
        self.root = RootMerger(
            listen,
            checkpoint_path=checkpoint_path,
            state_path=os.path.join(self.data_dir, "root-state.json"),
            checkpoint_interval=checkpoint_interval,
            sources=sources,
            controller=controller,
            policy=self.policy,
            metrics=metrics,
            metrics_port=metrics_port,
            read_timeout=read_timeout,
        )
        self._slots: dict[str, _ShardSlot] = {}
        for index in range(shards):
            shard_id = str(index)
            shard_dir = os.path.join(self.data_dir, f"shard-{shard_id}")
            os.makedirs(shard_dir, exist_ok=True)
            self._slots[shard_id] = _ShardSlot(
                shard_id,
                state_path=os.path.join(shard_dir, "state.json"),
                wal_path=os.path.join(shard_dir, "wal"),
            )
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        self.root.start()
        for slot in self._slots.values():
            self._spawn(slot)
        if not self.in_process:
            self._stopping.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="pgmp-fleet-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def stop(self, join_timeout: float = 15.0) -> None:
        """Drain and stop: shards checkpoint + uplink, then the root stops.

        Order matters — shards flush their final uplink deltas into the
        root *before* the root's final checkpoint, so a clean stop loses
        nothing.
        """
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=join_timeout)
            self._monitor = None
        for slot in self._slots.values():
            self._stop_shard(slot, join_timeout)
        self.root.stop(join_timeout)

    def _stop_shard(self, slot: _ShardSlot, join_timeout: float) -> None:
        if slot.aggregator is not None:
            slot.aggregator.stop(join_timeout)
            slot.aggregator = None
            return
        if slot.process is None:
            return
        if slot.process.poll() is None and slot.address:
            try:
                # A shutdown frame makes the CLI serve loop exit through
                # its normal path: final checkpoint, final uplink flush.
                request(slot.address, {"type": "shutdown"})
            except OSError:
                pass
        try:
            slot.process.wait(timeout=join_timeout)
        except subprocess.TimeoutExpired:
            logger.error(
                "shard %s did not exit after shutdown; killing it",
                slot.shard_id,
            )
            slot.process.kill()
            slot.process.wait(timeout=5.0)
        slot.process = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- spawning ----------------------------------------------------------

    def _spawn(self, slot: _ShardSlot) -> None:
        if self.in_process:
            slot.aggregator = ShardAggregator(
                f"{self.shard_host}:0",
                shard_id=slot.shard_id,
                uplink=self.root.address,
                wal_path=slot.wal_path,
                state_path=slot.state_path,
                checkpoint_interval=self.checkpoint_interval,
                policy=self.policy,
                read_timeout=self.read_timeout,
            ).start()
            slot.address = str(slot.aggregator.address)
        else:
            address_file = os.path.join(
                os.path.dirname(slot.state_path), "address"
            )
            try:
                os.remove(address_file)
            except FileNotFoundError:
                pass
            command = [
                self.python,
                "-m",
                "repro.tools.cli",
                "serve",
                "--fleet-role",
                "shard",
                "--shard-id",
                slot.shard_id,
                "--listen",
                f"{self.shard_host}:0",
                "--uplink",
                str(self.root.address),
                "--state",
                slot.state_path,
                "--wal",
                slot.wal_path,
                "--address-file",
                address_file,
                "--checkpoint-interval",
                str(self.checkpoint_interval),
                "--profile-policy",
                self.policy.value,
            ]
            env = dict(os.environ)
            repro_root = os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
            )
            env["PYTHONPATH"] = os.pathsep.join(
                p
                for p in (repro_root, env.get("PYTHONPATH"))
                if p
            )
            slot.process = subprocess.Popen(
                command,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            slot.address = self._await_address(slot, address_file)
        self.root.note_shard(slot.shard_id, slot.address, up=True)

    def _await_address(self, slot: _ShardSlot, address_file: str) -> str:
        """Wait for the shard subprocess to report its bound address."""
        deadline = time.monotonic() + self.spawn_timeout
        while time.monotonic() < deadline:
            if slot.process is not None and slot.process.poll() is not None:
                raise ServiceError(
                    f"shard {slot.shard_id} exited during startup "
                    f"(rc={slot.process.returncode})"
                )
            try:
                with open(address_file, "r", encoding="utf-8") as handle:
                    address = handle.read().strip()
                if address:
                    return address
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        raise ServiceError(
            f"shard {slot.shard_id} did not report an address within "
            f"{self.spawn_timeout:.0f}s"
        )

    # -- monitoring --------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(0.2):
            for slot in self._slots.values():
                process = slot.process
                if process is None or process.poll() is None:
                    continue
                if self._stopping.is_set():
                    return
                logger.warning(
                    "shard %s died (rc=%s); %s",
                    slot.shard_id,
                    process.returncode,
                    "restarting" if self.restart else "not restarting",
                )
                self.root.mark_shard_down(slot.shard_id)
                slot.process = None
                if not self.restart:
                    continue
                slot.restarts += 1
                try:
                    self._spawn(slot)
                except ServiceError as exc:
                    logger.error(
                        "shard %s failed to restart: %s", slot.shard_id, exc
                    )

    # -- chaos + introspection ---------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Kill one shard without warning (no final checkpoint) — the
        chaos entry point. The monitor (or the caller, in in-process
        mode via :meth:`restart_shard`) brings it back."""
        slot = self._slot(shard_id)
        if slot.aggregator is not None:
            slot.aggregator.stop(checkpoint=False)
            slot.aggregator = None
            self.root.mark_shard_down(shard_id)
        elif slot.process is not None:
            slot.process.kill()  # the monitor notices and restarts

    def restart_shard(self, shard_id: str) -> None:
        """Bring a killed in-process shard back up (subprocess shards
        restart via the monitor)."""
        slot = self._slot(shard_id)
        if slot.aggregator is None and slot.process is None:
            slot.restarts += 1
            self._spawn(slot)

    def shard_addresses(self) -> dict[str, str]:
        """Current ``{shard_id: address}`` map (for building shippers)."""
        return {
            shard_id: slot.address
            for shard_id, slot in self._slots.items()
            if slot.address is not None
        }

    def wait_all_up(self, timeout: float = 20.0) -> bool:
        """Block until every shard is registered up at the root."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            shards = self.root.shard_map()
            if len(shards) == len(self._slots) and all(
                record.up for record in shards.values()
            ):
                return True
            time.sleep(0.05)
        return False

    def stats(self) -> dict:
        """The root's stats frame plus per-shard stats over the wire."""
        stats = self.root.handle_frame({"type": "stats"})
        assert isinstance(stats, dict)
        shards: dict[str, dict] = {}
        for shard_id, slot in self._slots.items():
            if slot.aggregator is not None:
                frame = slot.aggregator.handle_frame({"type": "stats"})
                shards[shard_id] = frame if isinstance(frame, dict) else {}
                continue
            if slot.address is None:
                shards[shard_id] = {}
                continue
            try:
                frame = request(slot.address, {"type": "stats"})
            except OSError:
                frame = {}
            shards[shard_id] = frame if isinstance(frame, dict) else {}
        stats["shard_stats"] = shards
        return stats

    def _slot(self, shard_id: str) -> _ShardSlot:
        slot = self._slots.get(shard_id)
        if slot is None:
            raise ServiceError(f"unknown shard id {shard_id!r}")
        return slot

    def __repr__(self) -> str:
        return (
            f"<FleetSupervisor root={self.root.address} "
            f"shards={sorted(self._slots)} "
            f"mode={'in-process' if self.in_process else 'subprocess'}>"
        )
