"""Application catalog: a JSON dictionary of installable applications.

Each top-level key names an application.  ``installer`` and ``versions``
are mandatory; every other field has a default at the application level
that individual versions may override.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import namedtuple
from itertools import chain

from phenocloud.errors import CatalogError, NotFoundError

# Fields a version entry may override.
OVERRIDABLE_FIELDS = ("app_name", "base_url", "file", "dependencies", "installer")
# The keys of a version that overrides nothing.
_NAME_KEYS = frozenset(("version_name", "app_version"))


class ResolvedApp(namedtuple("ResolvedApp", "name version_key effective download_url")):
    """An application with one version selected and overrides applied."""

    __slots__ = ()

    @property
    def dependencies(self):
        return self.effective["dependencies"]


# An entry as parse_catalog checked it, a plain tuple: the application-level
# fields in OVERRIDABLE_FIELDS order; the version keys, in document order; the
# specs, one (version_name, field, value, field, value, ...) per version key
# with the version's overrides; and the edges, the dependencies under any
# version.  It holds no dict and is no tuple subclass, so the collector
# untracks it within a few passes, once it has untracked the tuples inside.
DEPENDENCIES, VERSION_KEYS, SPECS, EDGES = 3, 5, 6, 7  # indexes into an entry


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

    def checked(self) -> dict:
        """name -> the application as parse_catalog checked it, a tuple read by
        DEPENDENCIES, VERSION_KEYS, SPECS and EDGES; read only."""
        return self._checked

    def _app(self, name) -> tuple:
        try:
            return self._checked[name]
        except KeyError:
            raise NotFoundError(f"application {name!r} not in catalog") from None

    def version_keys(self, name) -> tuple:
        """The application's version keys, in document order."""
        return self._app(name)[VERSION_KEYS]

    def edges(self, name) -> tuple:
        """The application's dependencies under any of its versions."""
        return self._app(name)[EDGES]

    def __iter__(self):
        return iter(self._checked)

    def __len__(self):
        return len(self._checked)

    def _fields(self):
        # Versions are compared as a mapping and edges left out: both follow
        # the versions' order, which equality ignores.
        return {name: app[:VERSION_KEYS] + (dict(zip(app[VERSION_KEYS], app[SPECS])),)
                for name, app in self._checked.items()}

    def __eq__(self, other):
        return isinstance(other, Catalog) and self._fields() == other._fields()


def collector_paused(fn):
    """fn with the cyclic garbage collector off while it runs, and back on
    after only if it was on when fn was called.  What parsing and planning
    allocate holds no reference cycle, so a collection there frees nothing.
    The parsed catalog holds no dict either, so the collections deferred to
    after a parse untrack it instead of walking it again on every pass."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _type_error(f, name, version_key=None) -> CatalogError:
    """The error for field f of the wrong JSON type, naming the entry (and version)."""
    version = "" if version_key is None else f": version {version_key!r}"
    kind = "a list of strings" if f == "dependencies" else "a string"
    return CatalogError(f"entry {name!r}{version}: {f!r} must be {kind}")


def _dependencies(value, share, name, version_key=None) -> tuple:
    """A dependencies list as a tuple of shared names; _type_error if it is
    not a list of strings."""
    if isinstance(value, list):
        names = []  # a loop: tuple(map(share, ...)) costs more on lists this short
        for dep in value:
            if not isinstance(dep, str):
                break
            names.append(share(dep, dep))
        else:
            return tuple(names)
    raise _type_error("dependencies", name, version_key)


@collector_paused
def parse_catalog(text: str) -> Catalog:
    """Parse and check a JSON catalog document in one pass over its entries.

    Unknown fields are ignored for forward compatibility.  Raises
    CatalogError on malformed JSON, a missing mandatory field or a field of
    the wrong JSON type in any entry; validate_catalog checks what
    dependencies name.  The first failing check is reported: entries in
    document order; in each entry, that installer and versions are present
    and versions is an object; then, version by version, that it is an
    object, its version_name, its app_version and its overrides in
    OVERRIDABLE_FIELDS order; last the entry's own fields, in that order.
    A version whose only keys are version_name and app_version has no
    overrides to walk.  Strings are checked inline, a dependencies list by
    one helper.  Equal names, installers, base URLs and version names are
    kept as one object, a dependency as the key it names, and so are equal
    version key tuples and the spec tuples of entries whose versions
    override nothing.  Each raw entry is cleared once checked, so the
    document is freed while the parse runs.
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
    plain = {}  # version name -> the one spec of the versions that override nothing
    share_tuple = {}.setdefault  # equal version key tuples, and plain spec tuples, as one
    checked = {}
    names_only = _NAME_KEYS.issuperset
    for name, body in raw.items():
        if not isinstance(body, dict):
            raise CatalogError(f"entry {name!r} must be a JSON object")
        installer = body.get("installer")
        if not installer:
            raise CatalogError(f"entry {name!r}: missing mandatory field 'installer'")
        versions = body.get("versions")
        if not versions:
            raise CatalogError(f"entry {name!r}: missing mandatory field 'versions'")
        if not isinstance(versions, dict):
            raise CatalogError(f"entry {name!r}: 'versions' must be an object")
        overridden = ()  # the versions' dependencies overrides
        specs = []
        plain_only = True
        for vk, vraw in versions.items():
            if not isinstance(vraw, dict):
                raise CatalogError(f"entry {name!r}: version {vk!r} must be an object")
            vname = vraw.get("version_name", "")
            if not isinstance(vname, str):
                raise _type_error("version_name", name, vk)
            pretty = vraw.get("app_version", "")
            if not isinstance(pretty, str):
                raise _type_error("app_version", name, vk)
            # The prose mandates version_name but real catalogs carry
            # app_version; accept either, fall back to the map key, which
            # json.loads already shares between entries.
            vname = vname or pretty or vk
            vname = vk if vname == vk else share(vname, vname)
            spec = plain.get(vname) or plain.setdefault(vname, (vname,))
            if not names_only(vraw):
                for f in OVERRIDABLE_FIELDS:
                    if f in vraw:
                        value = vraw[f]
                        if f == "dependencies":
                            value = _dependencies(value, share, name, vk)
                            overridden += (value,)
                        elif not isinstance(value, str):
                            raise _type_error(f, name, vk)
                        elif f != "file":  # a file is most often one version's own
                            value = share(value, value)
                        spec += (f, value)
                plain_only = plain_only and len(spec) == 1
            specs.append(spec)
        keys = tuple(versions)
        keys = share_tuple(keys, keys)
        specs = tuple(specs)
        if plain_only:
            specs = share_tuple(specs, specs)
        # The entry's own fields in OVERRIDABLE_FIELDS order; null is of no
        # field's type, and a file is most often one version's own.
        app_name = body.get("app_name")
        if app_name is not None or "app_name" in body:
            if not isinstance(app_name, str):
                raise _type_error("app_name", name)
            app_name = share(app_name, app_name)
        base_url = body.get("base_url")
        if base_url is not None or "base_url" in body:
            if not isinstance(base_url, str):
                raise _type_error("base_url", name)
            base_url = share(base_url, base_url)
        file = body.get("file")
        if (file is not None or "file" in body) and not isinstance(file, str):
            raise _type_error("file", name)
        deps = _dependencies(body["dependencies"], share, name) if "dependencies" in body else ()
        if not isinstance(installer, str):
            raise _type_error("installer", name)
        installer = share(installer, installer)
        edges = tuple(dict.fromkeys(chain(deps, *overridden))) if overridden else deps
        checked[name] = (app_name, base_url, file, deps, installer, keys, specs, edges)
        body.clear()
    return Catalog(checked)


def validate_catalog(catalog: Catalog):
    """Check that every dependency of every entry names a catalog key.

    Mandatory fields and types are already enforced at parse time;
    dependency existence is only checkable against the whole catalog, so
    it lives here.  Raises CatalogError on the first dangling dependency.
    """
    checked = catalog._checked
    for name, app in checked.items():
        for dep in app[EDGES]:
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
            for vk, spec in zip(app[VERSION_KEYS], app[SPECS])
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
    try:
        app_name, base_url, file, dependencies, installer, keys, specs, _ = catalog._checked[name]
    except KeyError:
        raise NotFoundError(f"application {name!r} not in catalog") from None
    try:
        spec = specs[keys.index(version_key)]
    except ValueError:
        raise NotFoundError(f"application {name!r} has no version {version_key!r}") from None
    effective = {"app_name": app_name, "base_url": base_url, "file": file,
                 "dependencies": dependencies, "installer": installer, "version_name": spec[0]}
    if len(spec) > 1:
        effective.update(zip(spec[1::2], spec[2::2]))
        base_url = effective["base_url"]
    url = None if base_url is None else join_url(base_url, effective["file"])
    return tuple.__new__(ResolvedApp, (name, version_key, effective, url))  # past its Python __new__
