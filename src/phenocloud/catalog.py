"""Application catalog: a JSON dictionary of installable applications.

Each top-level key names an application.  ``installer`` and ``versions``
are mandatory; every other field has a default at the application level
that individual versions may override.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from phenocloud.errors import CatalogError, NotFoundError

# Fields a version entry may override.
OVERRIDABLE_FIELDS = ("app_name", "base_url", "file", "dependencies", "installer")


@dataclass(frozen=True)
class VersionSpec:
    """One entry of an application's ``versions`` dictionary."""

    version_key: str
    version_name: str
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ApplicationEntry:
    name: str
    installer: str
    versions: dict  # version_key -> VersionSpec
    app_name: str | None = None
    base_url: str | None = None
    file: str | None = None
    dependencies: tuple = ()
    # The defaults plus every version's override: every edge some version
    # selection can give this application.
    all_dependencies: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        overrides = [
            spec.overrides["dependencies"]
            for spec in self.versions.values()
            if "dependencies" in spec.overrides
        ]
        union = self.dependencies
        if overrides:
            union = tuple(dict.fromkeys(chain(union, *overrides)))
        object.__setattr__(self, "all_dependencies", union)


@dataclass(frozen=True)
class ResolvedApp:
    """An application with one version selected and overrides applied."""

    name: str
    version_key: str
    effective: dict
    download_url: str | None

    @property
    def dependencies(self):
        return self.effective["dependencies"]


class Catalog:
    """Immutable mapping of application name -> ApplicationEntry."""

    def __init__(self, entries: dict):
        self._entries = dict(entries)

    def __contains__(self, name):
        return name in self._entries

    def __getitem__(self, name) -> ApplicationEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise NotFoundError(f"application {name!r} not in catalog") from None

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        return isinstance(other, Catalog) and self._entries == other._entries


def _typed_fields(raw, name, version_key=None) -> dict:
    """The overridable fields raw holds, dependencies as a tuple.

    Raises CatalogError naming the entry (and version) for a field of the
    wrong JSON type.
    """
    fields = {}
    for f in OVERRIDABLE_FIELDS:
        if f not in raw:
            continue
        value = raw[f]
        if f == "dependencies":
            ok = isinstance(value, list)
            for dep in value if ok else ():  # all() over a generator costs 3x on lists this short
                ok = ok and isinstance(dep, str)
        else:
            ok = isinstance(value, str)
        if not ok:
            version = "" if version_key is None else f": version {version_key!r}"
            kind = "a list of strings" if f == "dependencies" else "a string"
            raise CatalogError(f"entry {name!r}{version}: {f!r} must be {kind}")
        fields[f] = tuple(value) if f == "dependencies" else value
    return fields


def _parse_version(name, version_key, raw) -> VersionSpec:
    if not isinstance(raw, dict):
        raise CatalogError(
            f"entry {name!r}: version {version_key!r} must be an object"
        )
    # The prose mandates version_name but real catalogs carry app_version;
    # accept either, fall back to the map key.
    display = raw.get("version_name") or raw.get("app_version") or version_key
    return VersionSpec(
        version_key=version_key,
        version_name=display,
        overrides=_typed_fields(raw, name, version_key),
    )


def _parse_entry(name, raw) -> ApplicationEntry:
    if not isinstance(raw, dict):
        raise CatalogError(f"entry {name!r} must be a JSON object")
    for required in ("installer", "versions"):
        if not raw.get(required):
            raise CatalogError(f"entry {name!r}: missing mandatory field {required!r}")
    if not isinstance(raw["versions"], dict):
        raise CatalogError(f"entry {name!r}: 'versions' must be an object")
    versions = {
        vk: _parse_version(name, vk, vraw) for vk, vraw in raw["versions"].items()
    }
    return ApplicationEntry(name=name, versions=versions, **_typed_fields(raw, name))


def parse_catalog(text: str) -> Catalog:
    """Parse and validate a JSON catalog document.

    Unknown fields are ignored for forward compatibility.  Raises
    CatalogError on malformed JSON, a missing mandatory field or a field of
    the wrong JSON type; validate_catalog checks what dependencies name.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise CatalogError("catalog must be a JSON object")
    entries = {name: _parse_entry(name, body) for name, body in raw.items()}
    return Catalog(entries)


def validate_catalog(catalog: Catalog):
    """Check that every dependency of every entry names a catalog key.

    Mandatory fields are already enforced at parse time; dependency
    existence is only checkable against the whole catalog, so it lives
    here.  Raises CatalogError on the first dangling dependency.
    """
    for name in catalog:
        for dep in catalog[name].all_dependencies:
            if dep not in catalog:
                raise CatalogError(
                    f"entry {name!r}: dependency {dep!r} not in catalog"
                )


def serialize_catalog(catalog: Catalog) -> str:
    """Inverse of parse_catalog for the fields this module understands."""
    out = {}
    for name in catalog:
        entry = catalog[name]
        body = {"installer": entry.installer}
        if entry.app_name is not None:
            body["app_name"] = entry.app_name
        if entry.base_url is not None:
            body["base_url"] = entry.base_url
        if entry.file is not None:
            body["file"] = entry.file
        if entry.dependencies:
            body["dependencies"] = list(entry.dependencies)
        body["versions"] = {}
        for vk, spec in entry.versions.items():
            vbody = {"version_name": spec.version_name}
            for f, value in spec.overrides.items():
                vbody[f] = list(value) if f == "dependencies" else value
            body["versions"][vk] = vbody
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
    entry = catalog[name]
    if version_key not in entry.versions:
        raise NotFoundError(
            f"application {name!r} has no version {version_key!r}"
        )
    spec = entry.versions[version_key]
    effective = {
        "app_name": entry.app_name,
        "base_url": entry.base_url,
        "file": entry.file,
        "dependencies": entry.dependencies,
        "installer": entry.installer,
    }
    effective.update(spec.overrides)
    effective["version_name"] = spec.version_name
    return ResolvedApp(
        name=name,
        version_key=version_key,
        effective=effective,
        download_url=join_url(effective["base_url"], effective["file"]),
    )
