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


def _typed(raw, f, name, version_key=None):
    """raw[f], a dependencies list as a tuple; CatalogError naming the entry
    (and version) if the value has the wrong JSON type."""
    value = raw[f]
    if f == "dependencies":
        ok = isinstance(value, list)
        for dep in value if ok else ():  # all() over a generator costs 3x on lists this short
            ok = ok and isinstance(dep, str)
        if ok:
            return tuple(value)
    elif isinstance(value, str):
        return value
    version = "" if version_key is None else f": version {version_key!r}"
    kind = "a list of strings" if f == "dependencies" else "a string"
    raise CatalogError(f"entry {name!r}{version}: {f!r} must be {kind}")


def parse_catalog(text: str) -> Catalog:
    """Parse and check a JSON catalog document in one pass over its entries.

    Unknown fields are ignored for forward compatibility.  Raises
    CatalogError on malformed JSON, a missing mandatory field or a field of
    the wrong JSON type in any entry; validate_catalog checks what
    dependencies name.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CatalogError("catalog must be a JSON object")
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
                if f in vraw:
                    _typed(vraw, f, name, vk)
            # The prose mandates version_name but real catalogs carry
            # app_version; accept either, fall back to the map key.
            spec = [vraw.get("version_name") or vraw.get("app_version") or vk]
            for f in OVERRIDABLE_FIELDS:
                if f in vraw:
                    value = _typed(vraw, f, name, vk)
                    spec += (f, value)
                    if f == "dependencies":
                        overridden.append(value)
            versions[vk] = tuple(spec)
        app_name, base_url, file, deps, installer = [
            _typed(body, f, name) if f in body else None for f in OVERRIDABLE_FIELDS
        ]
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
