"""Shared exception hierarchy, and the wording of a record's key errors."""


class PhenocloudError(Exception):
    """Base class for all domain errors raised by this package."""


class CatalogError(PhenocloudError):
    """Malformed or invalid application catalog."""


class NotFoundError(PhenocloudError):
    """A requested application or version does not exist."""


class CycleError(PhenocloudError):
    """A dependency cycle was found while building an install plan."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("dependency cycle: " + " -> ".join(self.cycle))


class DanglingDependencyError(PhenocloudError):
    """An entry depends on an application missing from the catalog."""


def key_problem(record_type, raw):
    """Why the mapping raw cannot build the named tuple record_type: its first
    missing required field or first key that is no field, as "missing key 'k'"
    or "unknown key 'k'"; None if neither, or if raw is not a dict."""
    if not isinstance(raw, dict):
        return None
    fields = record_type._fields
    for key in fields[:len(fields) - len(record_type._field_defaults)]:
        if key not in raw:
            return f"missing key {key!r}"
    for key in raw:
        if key not in fields:
            return f"unknown key {key!r}"
    return None
