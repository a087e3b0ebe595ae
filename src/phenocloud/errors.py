"""Shared exception hierarchy, the wording of a record's key errors, and the
one way the package writes a file."""

import os


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


def replace_file(dest, chunks):
    """Write the byte strings of chunks to a new, uniquely named file beside
    dest, opened exclusively, and rename it over dest: dest holds its old
    bytes or all of the new ones.  The file gets open()'s mode (0o666 &
    ~umask); on any exception it is removed.  No fsync: a power loss may
    lose the last writes.  A dest that exists and is not a regular file
    (/dev/null, a FIFO) is refused before anything is created.
    """
    if os.path.exists(dest) and not os.path.isfile(dest):
        raise PhenocloudError(f"{dest} exists and is not a regular file")
    tmp = f"{dest}.{os.urandom(6).hex()}.tmp"
    out = open(tmp, "xb")  # before the try: a clash must not unlink another writer's file
    try:
        with out:
            out.writelines(chunks)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise
