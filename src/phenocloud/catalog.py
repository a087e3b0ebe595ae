"""Application catalog: a JSON dictionary of installable applications.

Each top-level key names an application.  ``installer`` and ``versions``
are mandatory; every other field has a default at the application level
that individual versions may override.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import chain

from phenocloud.errors import CatalogError, NotFoundError

# Fields a version entry may override.
OVERRIDABLE_FIELDS = ("app_name", "base_url", "file", "dependencies", "installer")


class ResolvedApp(namedtuple("ResolvedApp", "name version_key effective download_url")):
    """An application with one version selected and overrides applied."""

    __slots__ = ()

    @property
    def dependencies(self):
        return self.effective["dependencies"]


# An entry as parse_catalog checked it: the application-level fields in
# OVERRIDABLE_FIELDS order; versions, version_key -> (version_name, field,
# value, field, value, ...) for the version's overrides; and edges, the
# dependencies under any version.
_Checked = namedtuple("_Checked", OVERRIDABLE_FIELDS + ("versions", "edges"))


class Catalog:
    """Every application as parse_catalog checked it, keyed by name.

    Read an application's merged fields with effective_version, its graph
    with version_keys and edges, and the unmerged document with
    serialize_catalog.
    """

    def __init__(self, checked: dict):
        self._checked = checked

    def __contains__(self, name):
        return name in self._checked

    def _app(self, name) -> _Checked:
        try:
            return self._checked[name]
        except KeyError:
            raise NotFoundError(f"application {name!r} not in catalog") from None

    def version_keys(self, name):
        """The application's version keys."""
        return self._app(name).versions.keys()

    def edges(self, name) -> tuple:
        """The application's dependencies under any of its versions."""
        return self._app(name).edges

    def __iter__(self):
        return iter(self._checked)

    def __len__(self):
        return len(self._checked)

    def _fields(self):
        # Edges are left out: their order follows the versions', which equality ignores.
        return {name: app[:-1] for name, app in self._checked.items()}

    def __eq__(self, other):
        return isinstance(other, Catalog) and self._fields() == other._fields()


def _type_error(f, name, version_key=None) -> CatalogError:
    """The error for field f of the wrong JSON type, naming the entry (and version)."""
    version = "" if version_key is None else f": version {version_key!r}"
    kind = "a list of strings" if f == "dependencies" else "a string"
    return CatalogError(f"entry {name!r}{version}: {f!r} must be {kind}")


def _typed(raw, f, name, share, version_key=None):
    """raw[f] through share (a file as it is), a dependencies list as a
    tuple of shared names; _type_error if the value has the wrong JSON type."""
    value = raw[f]
    if f == "dependencies":
        if isinstance(value, list):
            names = []
            for dep in value:
                if not isinstance(dep, str):
                    break
                names.append(share(dep, dep))
            else:
                return tuple(names)
    elif isinstance(value, str):
        # A file is most often one version's own, so sharing it would only grow the table.
        return value if f == "file" else share(value, value)
    raise _type_error(f, name, version_key)


def parse_catalog(text: str) -> Catalog:
    """Parse and check a JSON catalog document in one pass over its entries.

    Unknown fields are ignored for forward compatibility.  Raises
    CatalogError on malformed JSON, a missing mandatory field or a field of
    the wrong JSON type in any entry; validate_catalog checks what
    dependencies name.  The first failing check is reported: entries in
    document order, and in each entry every version's version_name,
    app_version and overrides before the entry's own fields, fields in
    OVERRIDABLE_FIELDS order.  Equal names, installers, base URLs and
    version names are kept as one object, a dependency as the key it names.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CatalogError("catalog must be a JSON object")
    # share(s, s) returns the first string equal to s, the keys first, so a
    # dependency is the very key it names and a dict lookup by it stops at
    # the identity check.
    share = dict(zip(raw, raw)).setdefault
    plain = {}  # version name -> the one spec of a version that overrides nothing
    checked = {}
    for name, body in raw.items():
        if not isinstance(body, dict):
            raise CatalogError(f"entry {name!r} must be a JSON object")
        for required in ("installer", "versions"):
            if not body.get(required):
                raise CatalogError(f"entry {name!r}: missing mandatory field {required!r}")
        versions = body["versions"]
        if not isinstance(versions, dict):
            raise CatalogError(f"entry {name!r}: 'versions' must be an object")
        overridden = []  # the versions' dependencies overrides
        for vk, vraw in versions.items():  # each value becomes its checked tuple
            if not isinstance(vraw, dict):
                raise CatalogError(f"entry {name!r}: version {vk!r} must be an object")
            for f in ("version_name", "app_version"):
                if not isinstance(vraw.get(f, ""), str):
                    raise _type_error(f, name, vk)
            # The prose mandates version_name but real catalogs carry
            # app_version; accept either, fall back to the map key, which
            # json.loads already shares between entries.
            vname = vraw.get("version_name") or vraw.get("app_version") or vk
            vname = vk if vname == vk else share(vname, vname)
            overrides = ()
            for f in OVERRIDABLE_FIELDS:
                if f in vraw:
                    value = _typed(vraw, f, name, share, vk)
                    overrides += (f, value)
                    if f == "dependencies":
                        overridden.append(value)
            if overrides:
                versions[vk] = (vname,) + overrides
            else:
                versions[vk] = plain.get(vname) or plain.setdefault(vname, (vname,))
        fields = []  # a loop: a list comprehension costs one more call per entry
        for f in OVERRIDABLE_FIELDS:
            fields.append(_typed(body, f, name, share) if f in body else None)
        app_name, base_url, file, deps, installer = fields
        deps = deps or ()
        edges = tuple(dict.fromkeys(chain(deps, *overridden))) if overridden else deps
        checked[name] = _Checked(app_name, base_url, file, deps, installer, versions, edges)
    return Catalog(checked)


def validate_catalog(catalog: Catalog):
    """Check that every dependency of every entry names a catalog key.

    Mandatory fields and types are already enforced at parse time;
    dependency existence is only checkable against the whole catalog, so
    it lives here.  Raises CatalogError on the first dangling dependency.
    """
    checked = catalog._checked
    for name, app in checked.items():
        for dep in app.edges:
            if dep not in checked:
                raise CatalogError(f"entry {name!r}: dependency {dep!r} not in catalog")


def serialize_catalog(catalog: Catalog) -> str:
    """Inverse of parse_catalog for the fields this module understands."""
    out = {}
    for name, app in catalog._checked.items():
        # Unset defaults and empty default dependencies are left out.
        body = {f: value for f, value in zip(OVERRIDABLE_FIELDS, app) if value not in (None, ())}
        body["versions"] = {
            vk: {"version_name": spec[0], **dict(zip(spec[1::2], spec[2::2]))}
            for vk, spec in app.versions.items()
        }
        out[name] = body
    return json.dumps(out, indent=2, sort_keys=True)


def join_url(base_url: str | None, filename: str | None) -> str | None:
    """Join base_url and a relative file with exactly one '/' separator."""
    if base_url is None:
        return None
    if not filename:
        return base_url
    return base_url.rstrip("/") + "/" + filename.lstrip("/")


def effective_version(catalog: Catalog, name: str, version_key: str) -> ResolvedApp:
    """Merge an application's defaults with one version's overrides."""
    app = catalog._app(name)
    spec = app.versions.get(version_key)
    if spec is None:
        raise NotFoundError(f"application {name!r} has no version {version_key!r}")
    effective = dict(zip(OVERRIDABLE_FIELDS, app))
    effective.update(zip(spec[1::2], spec[2::2]))
    effective["version_name"] = spec[0]
    return ResolvedApp(
        name=name,
        version_key=version_key,
        effective=effective,
        download_url=join_url(effective["base_url"], effective["file"]),
    )
