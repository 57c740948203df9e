"""Deterministic FGCZ-scale deployment synthesis.

The generator writes through the storage layer in large transactions
(it synthesizes *state*, not user operations — replaying three years of
daily lab work through the service layer would only exercise the same
code paths 70,000 times).  Object relationships follow skewed
distributions: a few large projects own many samples and workunits, most
are small, mirroring how shared research infrastructure is actually
used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.facade import BFabric
from repro.util.heap import collector_paused

_SPECIES = (
    "Arabidopsis Thaliana",
    "Homo sapiens",
    "Mus musculus",
    "Saccharomyces cerevisiae",
    "Drosophila melanogaster",
    "Escherichia coli",
    "Rattus norvegicus",
    "Danio rerio",
)

_TREATMENTS = ("light", "dark", "heat", "cold", "drought", "control", "salt")
_TISSUES = ("leaf", "root", "liver", "brain", "muscle", "whole", "culture")
_PROCEDURES = (
    "TRIzol RNA extraction",
    "phenol chloroform",
    "column purification",
    "protein digest",
    "FACS sorting",
)
_FILE_KINDS = (("cel", 8192), ("raw", 16384), ("wiff", 12288), ("txt", 2048))
_WU_PREFIXES = ("import", "analysis", "search", "measurement", "report")


@dataclass(frozen=True)
class DeploymentSpec:
    """Target object counts of a synthetic deployment."""

    users: int
    projects: int
    institutes: int
    organizations: int
    samples: int
    extracts: int
    data_resources: int
    workunits: int

    def scaled(self, factor: float) -> "DeploymentSpec":
        """A proportionally smaller deployment (at least 1 per kind)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("scale factor must be in (0, 1]")
        scale = lambda n: max(1, round(n * factor))
        return DeploymentSpec(
            users=scale(self.users),
            projects=scale(self.projects),
            institutes=scale(self.institutes),
            organizations=scale(self.organizations),
            samples=scale(self.samples),
            extracts=scale(self.extracts),
            data_resources=scale(self.data_resources),
            workunits=scale(self.workunits),
        )

    def as_paper_table(self) -> dict[str, int]:
        return {
            "Users": self.users,
            "Projects": self.projects,
            "Institutes": self.institutes,
            "Organizations": self.organizations,
            "Samples": self.samples,
            "Extracts": self.extracts,
            "Data Resources": self.data_resources,
            "Workunits": self.workunits,
        }


#: The paper's Final-Remark table, exactly.
FGCZ_JANUARY_2010 = DeploymentSpec(
    users=1555,
    projects=750,
    institutes=224,
    organizations=59,
    samples=3151,
    extracts=3642,
    data_resources=40005,
    workunits=23979,
)


class DeploymentGenerator:
    """Populates a :class:`BFabric` instance to a target spec."""

    def __init__(self, system: BFabric, *, seed: int = 2010):
        self._system = system
        self._rng = random.Random(seed)

    def generate(self, spec: DeploymentSpec = FGCZ_JANUARY_2010) -> dict[str, int]:
        """Build the deployment; returns the achieved counts.

        Idempotence is not attempted — call on a fresh system.  Every
        row built here outlives the call, so it runs with the cyclic
        collector paused: a full collection mid-build would walk the
        growing corpus and free nothing.
        """
        with collector_paused():
            return self._generate(spec)

    def _generate(self, spec: DeploymentSpec) -> dict[str, int]:
        system = self._system
        rng = self._rng
        db = system.db
        now = system.clock.now()

        with db.transaction() as txn:
            org_ids = [
                txn.insert(
                    "organization",
                    {"name": f"Organization {i:03d}", "created_at": now},
                )["id"]
                for i in range(spec.organizations)
            ]
            institute_ids = []
            for i in range(spec.institutes):
                institute_ids.append(
                    txn.insert(
                        "institute",
                        {
                            "name": f"Institute {i:03d}",
                            "organization_id": rng.choice(org_ids),
                            "created_at": now,
                        },
                    )["id"]
                )
            user_ids = []
            for i in range(spec.users):
                role = "scientist"
                if i < 3:
                    role = "admin"
                elif i < 25:
                    role = "employee"
                user_ids.append(
                    txn.insert(
                        "user",
                        {
                            "login": f"user{i:04d}",
                            "full_name": f"User {i:04d}",
                            "email": f"user{i:04d}@example.org",
                            "institute_id": rng.choice(institute_ids),
                            "role": role,
                            "password_hash": "",
                            "active": True,
                            "created_at": now,
                        },
                    )["id"]
                )

        with db.transaction() as txn:
            project_ids = []
            project_owner: dict[int, int] = {}
            for i in range(spec.projects):
                owner = rng.choice(user_ids)
                species = rng.choice(_SPECIES)
                row = txn.insert(
                    "project",
                    {
                        "name": f"{species} study {i:03d}",
                        "description": f"Investigating {rng.choice(_TREATMENTS)} "
                        f"response in {species}",
                        "created_by": owner,
                        "created_at": now,
                    },
                )
                project_ids.append(row["id"])
                project_owner[row["id"]] = owner
                txn.insert(
                    "project_membership",
                    {"user_id": owner, "project_id": row["id"], "role": "leader"},
                )

        # Skewed assignment: earlier projects get more samples (zipf-ish).
        weights = [1.0 / (rank + 1) for rank in range(len(project_ids))]

        with db.transaction() as txn:
            sample_ids = []
            sample_project: dict[int, int] = {}
            for i in range(spec.samples):
                project_id = rng.choices(project_ids, weights=weights)[0]
                species = rng.choice(_SPECIES)
                row = txn.insert(
                    "sample",
                    {
                        "name": f"sample {i:04d} {rng.choice(_TISSUES)}",
                        "project_id": project_id,
                        "species": species,
                        "description": "",
                        "attributes": {
                            "tissue": rng.choice(_TISSUES),
                            "treatment": rng.choice(_TREATMENTS),
                        },
                        "created_by": project_owner[project_id],
                        "created_at": now,
                    },
                )
                sample_ids.append(row["id"])
                sample_project[row["id"]] = project_id

            extract_ids = []
            extract_project: dict[int, int] = {}
            for i in range(spec.extracts):
                sample_id = (
                    sample_ids[i] if i < len(sample_ids) else rng.choice(sample_ids)
                )
                row = txn.insert(
                    "extract",
                    {
                        "name": f"extract {i:04d}",
                        "sample_id": sample_id,
                        "procedure": rng.choice(_PROCEDURES),
                        "description": "",
                        "attributes": {},
                        "created_by": project_owner[sample_project[sample_id]],
                        "created_at": now,
                    },
                )
                extract_ids.append(row["id"])
                extract_project[row["id"]] = sample_project[sample_id]

        with db.transaction() as txn:
            workunit_ids = []
            workunit_project: dict[int, int] = {}
            for i in range(spec.workunits):
                project_id = rng.choices(project_ids, weights=weights)[0]
                row = txn.insert(
                    "workunit",
                    {
                        "name": f"{rng.choice(_WU_PREFIXES)} workunit {i:05d}",
                        "project_id": project_id,
                        "application_id": None,
                        "description": "",
                        "status": "available",
                        "parameters": {},
                        "created_by": project_owner[project_id],
                        "created_at": now,
                    },
                )
                workunit_ids.append(row["id"])
                workunit_project[row["id"]] = project_id

        extracts_by_project: dict[int, list[int]] = {}
        for extract_id, project_id in extract_project.items():
            extracts_by_project.setdefault(project_id, []).append(extract_id)

        with db.transaction() as txn:
            for i in range(spec.data_resources):
                workunit_id = (
                    workunit_ids[i]
                    if i < len(workunit_ids)
                    else rng.choice(workunit_ids)
                )
                project_id = workunit_project[workunit_id]
                kind, size = rng.choice(_FILE_KINDS)
                candidates = extracts_by_project.get(project_id)
                extract_id = rng.choice(candidates) if candidates else None
                txn.insert(
                    "data_resource",
                    {
                        "name": f"resource_{i:05d}.{kind}",
                        "workunit_id": workunit_id,
                        "extract_id": extract_id,
                        "uri": f"store://generated/resource_{i:05d}.{kind}",
                        "storage": "internal" if i % 3 else "linked",
                        "size_bytes": size,
                        "checksum": "",
                        "is_input": i % 5 == 0,
                        "created_at": now,
                    },
                )

        return system.deployment_statistics()
