"""Set-up: the T1 corpus, what it contains, and the serving process.

The corpus is the paper's Final-Remark table
(``DeploymentGenerator(seed).generate(FGCZ_JANUARY_2010)``), generated
in the benchmark process the way ``repro generate`` does it (generate,
checkpoint, close) so that the catalog — which projects, samples and
workunits exist, under which names, visible to whom — is read straight
from the rows the generator wrote.  The request streams and every
content check are derived from that catalog.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

ADMIN_PASSWORD = "bench-admin"
USER_PASSWORD = "bench-user"

#: ``repro serve`` flags of every socket workload (recorded in outputs).
SERVER_FLAGS = ("serve", "--port", "0", "--workers", "4")

#: Portal users of the read workloads: employees see the whole centre,
#: leaders only their own projects; a third of the leaders come from the
#: largest projects so that big pages are always in the mix.
EMPLOYEE_SESSIONS = 2
LEADER_SESSIONS = 30
LARGE_PROJECTS = 30

#: Size rank of the project the demo flow writes into.
DEMO_PROJECT_RANK = 12

DEMO_PROVIDER = "bench GeneChip"
DEMO_APPLICATION = "bench two group analysis"


@dataclass
class Session:
    """One portal user the load generator acts as."""

    login: str
    user_id: int
    role: str
    project_ids: list[int]
    cookie: str = ""


@dataclass
class Catalog:
    """What the generator produced, as the content checks need it."""

    #: ``(id, name, owner user id)`` in generator order, which is also
    #: size rank: project *i* draws samples and workunits with weight
    #: 1/(i+1).
    projects: list[tuple[int, str, int]] = field(default_factory=list)
    samples: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    workunits: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    #: ``(id, name)`` of data resources (identifier-like search terms).
    resources: list[tuple[int, str]] = field(default_factory=list)
    #: user id -> (login, role)
    users: dict[int, tuple[str, str]] = field(default_factory=dict)
    project_names: dict[int, str] = field(default_factory=dict)
    application_id: int = 0


def read_catalog(db) -> Catalog:
    catalog = Catalog()
    for row in db.rows("user"):
        catalog.users[row["id"]] = (row["login"], row["role"])
    for row in db.rows("project"):
        catalog.projects.append((row["id"], row["name"], row["created_by"]))
        catalog.project_names[row["id"]] = row["name"]
    for row in db.rows("sample"):
        catalog.samples.setdefault(row["project_id"], []).append(
            (row["id"], row["name"])
        )
    for row in db.rows("workunit"):
        catalog.workunits.setdefault(row["project_id"], []).append(
            (row["id"], row["name"])
        )
    for row in db.rows("data_resource"):
        catalog.resources.append((row["id"], row["name"]))
    return catalog


def choose_sessions(catalog: Catalog, rng: random.Random) -> list[Session]:
    """The portal users of a run, drawn by the seed — within strata.

    Page weight follows project size rank, so leaders are drawn one per
    band of ranks (ten bands over the ``LARGE_PROJECTS`` largest, the
    rest over geometrically widening bands): every seed gets another
    set of people but the same spread of page sizes.
    """
    owned: dict[int, list[int]] = {}
    for project_id, _name, owner in catalog.projects:
        owned.setdefault(owner, []).append(project_id)
    count = len(catalog.projects)
    large = min(LARGE_PROJECTS, count)
    n_large = LEADER_SESSIONS // 3
    n_small = LEADER_SESSIONS - n_large
    edges = [round(large * k / n_large) for k in range(n_large + 1)]
    if count > large:
        edges += [
            round(large * (count / large) ** (k / n_small))
            for k in range(1, n_small + 1)
        ]
    chosen: list[int] = []
    for lo, hi in zip(edges, edges[1:]):
        owners = [
            owner for _pid, _name, owner in catalog.projects[lo:hi]
            if catalog.users[owner][1] == "scientist" and owner not in chosen
        ]
        if owners:
            chosen.append(rng.choice(owners))
    employees = sorted(
        uid for uid, (_login, role) in catalog.users.items() if role == "employee"
    )
    chosen = rng.sample(employees, min(len(employees), EMPLOYEE_SESSIONS)) + chosen
    all_projects = [pid for pid, _name, _owner in catalog.projects]
    sessions = []
    for uid in chosen:
        login, role = catalog.users[uid]
        visible = all_projects if role == "employee" else owned[uid]
        sessions.append(Session(login, uid, role, list(visible)))
    return sessions


def demo_scientist(catalog: Catalog) -> Session:
    """The owner of the project nearest size rank ``DEMO_PROJECT_RANK``.

    A fixed rank, not a draw: how big the written project's pages are
    must not depend on the seed.
    """
    by_distance = sorted(
        range(len(catalog.projects)), key=lambda i: abs(i - DEMO_PROJECT_RANK)
    )
    for index in by_distance:
        project_id, _name, owner = catalog.projects[index]
        login, role = catalog.users[owner]
        if role == "scientist":
            return Session(login, owner, role, [project_id])
    raise RuntimeError("no project is owned by a scientist")


@dataclass
class Deployment:
    """A generated data directory plus what the workloads know of it."""

    path: Path
    catalog: Catalog
    sessions: list[Session]
    phases: dict[str, float]
    #: The scientist of the demo flow and the project they write into.
    demo: "Session | None" = None
    #: Only kept open for in-process use (``keep_open``).
    system: object = None


def build_deployment(
    path: Path,
    seed: int,
    scale: float,
    *,
    keep_open: bool = False,
    durability: "str | None" = None,
) -> Deployment:
    """Empty directory → generated, checkpointed T1 deployment.

    Also what ``repro generate`` cannot do from the shell: portal
    passwords for the run's users (generated users have none) and the
    demo flow's application row.  With *keep_open* the system stays
    open (and un-checkpointed) for in-process use.
    """
    from repro.facade import BFabric
    from repro.workload import FGCZ_JANUARY_2010, DeploymentGenerator
    from repro.workload.scenario import TWO_GROUP_INTERFACE

    phases: dict[str, float] = {}
    clock = time.perf_counter
    started = clock()
    system = BFabric(path, durability=durability)
    admin = system.bootstrap(password=ADMIN_PASSWORD)
    spec = FGCZ_JANUARY_2010 if scale >= 1.0 else FGCZ_JANUARY_2010.scaled(scale)
    DeploymentGenerator(system, seed=seed).generate(spec)
    phases["generate_s"] = clock() - started

    mark = clock()
    catalog = read_catalog(system.db)
    sessions = choose_sessions(catalog, random.Random(seed))
    demo = demo_scientist(catalog)
    for session in sessions + [demo]:
        system.directory.set_password(admin, session.user_id, USER_PASSWORD)
    application = system.applications.register_application(
        admin,
        name=DEMO_APPLICATION,
        connector="rserve",
        executable="two_group_analysis",
        interface=TWO_GROUP_INTERFACE,
    )
    catalog.application_id = application.id
    phases["accounts_s"] = clock() - mark
    if keep_open:
        return Deployment(path, catalog, sessions, phases, demo, system)
    mark = clock()
    system.db.checkpoint()
    system.close()
    phases["checkpoint_s"] = clock() - mark
    return Deployment(path, catalog, sessions, phases, demo)


def register_demo_provider(system) -> None:
    """The instrument the demo flow imports from (Figure 9).

    Providers are live objects, not rows: every process that serves the
    demo flow has to register it again, which is why ``demo_flow`` is
    served through ``serve_demo.py`` and not bare ``repro serve``.
    """
    from repro.dataimport import AffymetrixGeneChipProvider

    if DEMO_PROVIDER not in system.imports.provider_names():
        system.imports.register_provider(
            AffymetrixGeneChipProvider(DEMO_PROVIDER, runs=99)
        )


class ServerProcess:
    """``repro serve`` in its own process, on a port of the OS's choosing."""

    def __init__(self, data_dir: Path, *, demo_provider: bool = False):
        self.data_dir = data_dir
        entry = (
            [str(HERE / "serve_demo.py")] if demo_provider
            else ["-m", "repro.cli"]
        )
        self.argv = [sys.executable, *entry, "--data", str(data_dir), *SERVER_FLAGS]
        self.process: "subprocess.Popen | None" = None
        self.port = 0

    def start(self, timeout: float = 120.0) -> float:
        """Start, wait for the first ``/ping``; returns seconds taken."""
        from loadgen import Client  # local: keeps corpus importable alone

        started = time.perf_counter()
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=env, text=True,
        )
        line = self.process.stdout.readline()
        found = re.search(r"http://[^:]+:(\d+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(found.group(1))
        client = Client(self.port)
        try:
            deadline = started + timeout
            while True:
                reply = client.get("/ping")
                if reply.status == 200 and reply.body == b"pong":
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never answered /ping")
                time.sleep(0.05)
        finally:
            client.close()
        return time.perf_counter() - started

    def peak_rss_mb(self) -> float:
        """Peak resident set of the serving process (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """``SIGKILL``: a process crash (the OS cache survives)."""
        if self.process is not None:
            self.process.send_signal(signal.SIGKILL)
            self._reap()

    def stop(self) -> None:
        if self.process is not None:
            self.process.terminate()
            self._reap()

    def _reap(self) -> None:
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self.process = None


def directory_mb(path: Path) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass  # the server rotates files while we walk
    return total / 1e6
