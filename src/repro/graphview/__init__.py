"""Networked browsing of linked objects.

Paper §2 (Miscellaneous Functions): "B-Fabric supports a view on the
main data objects in a networked fashion.  Users can simply browse
bidirectionally through all objects linked together."

:class:`LinkGraph` reads the object graph straight from the relational
state (the foreign-key and ``annotation_link`` indexes) at one snapshot,
keeping no copy, and answers neighborhood, path and reachability questions.
"""

from repro.graphview.links import LinkGraph, ObjectRef
from repro.graphview.provenance import ProvenanceRecord, ProvenanceTracer

__all__ = ["LinkGraph", "ObjectRef", "ProvenanceRecord", "ProvenanceTracer"]
