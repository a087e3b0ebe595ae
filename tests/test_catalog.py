import gc
import json
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import FEYNHIGGS_ENTRY
from phenocloud.catalog import (
    SPECS,
    VERSION_KEYS,
    effective_version,
    join_url,
    parse_catalog,
    serialize_catalog,
    validate_catalog,
)
from phenocloud.errors import CatalogError, NotFoundError


def test_formcalc_fragment_parses(formcalc_fragment_text):
    catalog = parse_catalog(formcalc_fragment_text)
    assert len(catalog) == 1
    assert set(catalog.version_keys("FormCalc")) == {"7.0.2", "7.4"}
    for vk in ("7.0.2", "7.4"):
        resolved = effective_version(catalog, "FormCalc", vk)
        assert resolved.effective["installer"] == "feyntools.sh"
        assert resolved.dependencies == ("FeynHiggs",)


def test_empty_catalog():
    assert len(parse_catalog("{}")) == 0


def test_missing_installer_is_an_error():
    doc = {"App": {"versions": {"1": {"version_name": "1"}}}}
    with pytest.raises(CatalogError, match="installer"):
        parse_catalog(json.dumps(doc))


def test_missing_versions_is_an_error():
    with pytest.raises(CatalogError, match="versions"):
        parse_catalog(json.dumps({"App": {"installer": "x.sh"}}))


def test_string_dependencies_are_an_error_not_a_list_of_characters():
    doc = {
        "A": {"installer": "a.sh", "dependencies": "Bee", "versions": {"1": {}}},
        "B": {"installer": "b.sh", "versions": {"1": {}}},
        "e": {"installer": "e.sh", "versions": {"1": {}}},
    }
    with pytest.raises(CatalogError, match="'A'.*dependencies"):
        parse_catalog(json.dumps(doc))


@pytest.mark.parametrize("version", [
    {"version_name": 5},
    {"app_version": ["x"]},
    {"version_name": "", "app_version": 5},
    {"version_name": None, "app_version": "1"},
])
def test_version_name_and_app_version_must_be_strings(version):
    doc = {"App": {"installer": "x.sh", "versions": {"1": version}}}
    with pytest.raises(
        CatalogError, match=r"entry 'App': version '1': '(version_name|app_version)' must be a string"
    ):
        parse_catalog(json.dumps(doc))


_ENTRY_DEPS = "entry 'App': 'dependencies' must be a list of strings"
_VERSION_DEPS = "entry 'App': version '1': 'dependencies' must be a list of strings"


@pytest.mark.parametrize("entry,error", [
    ({"installer": "x.sh", "versions": {"1": {"file": 6, "version_name": 5}}},
     "entry 'App': version '1': 'version_name' must be a string"),
    ({"installer": 5, "base_url": 6, "versions": {"1": {}}},
     "entry 'App': 'base_url' must be a string"),
    *[({"installer": "x.sh", "dependencies": ["B", bad], "versions": {"1": {}}}, _ENTRY_DEPS)
      for bad in (["B"], 5, None)],
    *[({"installer": "x.sh", "versions": {"1": {"dependencies": ["B", bad]}}}, _VERSION_DEPS)
      for bad in (["B"], 5, None)],
    ({"installer": "x.sh", "versions": {"1": {"base_url": 6, "mirror": "http://m/"}}},
     "entry 'App': version '1': 'base_url' must be a string"),
    ({"installer": 5, "dependencies": "B", "versions": {"1": {}}}, _ENTRY_DEPS),
], ids=["version", "entry", "entry-dep-list", "entry-dep-number", "entry-dep-null",
        "version-dep-list", "version-dep-number", "version-dep-null", "version-unknown-key",
        "entry-installer-and-dependencies"])
def test_the_first_wrong_field_in_check_order_is_reported(entry, error):
    # Where two fields are wrong they are listed out of check order, so document
    # order would name the other one.
    with pytest.raises(CatalogError) as info:
        parse_catalog(json.dumps({"App": entry}))
    assert str(info.value) == error


def test_type_error_in_an_entry_no_request_reaches_is_raised_by_parse():
    doc = {
        "A": {"installer": "a.sh", "versions": {"1": {}}},
        "Z": {"installer": "z.sh", "versions": {"1": {"dependencies": ["A", 5]}}},
    }
    with pytest.raises(CatalogError, match="entry 'Z': version '1': 'dependencies'"):
        parse_catalog(json.dumps(doc))


def test_malformed_json_reports_position():
    with pytest.raises(CatalogError, match=r"line \d+ column \d+"):
        parse_catalog('{"App": }')


def test_unknown_fields_ignored():
    doc = {
        "App": {
            "installer": "x.sh",
            "brand_new_field": 42,
            "versions": {"1": {"version_name": "one", "extra": True}},
        }
    }
    catalog = parse_catalog(json.dumps(doc))
    assert effective_version(catalog, "App", "1").effective == {
        "app_name": None,
        "base_url": None,
        "file": None,
        "dependencies": (),
        "installer": "x.sh",
        "version_name": "one",
    }
    assert json.loads(serialize_catalog(catalog)) == {
        "App": {"installer": "x.sh", "versions": {"1": {"version_name": "one"}}}
    }


def test_version_name_preferred_over_app_version():
    doc = {
        "App": {
            "installer": "x.sh",
            "versions": {
                "1": {"version_name": "pretty", "app_version": "raw"},
                "2": {"app_version": "two"},
                "3": {},
            },
        }
    }
    catalog = parse_catalog(json.dumps(doc))

    def version_name(vk):
        return effective_version(catalog, "App", vk).effective["version_name"]

    assert version_name("1") == "pretty"
    assert version_name("2") == "two"
    assert version_name("3") == "3"  # falls back to the map key


def test_validate_rejects_dangling_dependency(formcalc_fragment_text):
    catalog = parse_catalog(formcalc_fragment_text)  # parse alone is fine
    with pytest.raises(CatalogError, match="FeynHiggs"):
        validate_catalog(catalog)


def test_validate_accepts_complete_catalog(feyn_catalog):
    validate_catalog(feyn_catalog)


def test_effective_version_override(feyn_catalog):
    resolved = effective_version(feyn_catalog, "FormCalc", "7.0.2")
    assert resolved.effective["base_url"] == "https://devel.ifca.es/~enol/feynapps/"


def test_effective_version_default_retained(feyn_catalog):
    resolved = effective_version(feyn_catalog, "FormCalc", "7.4")
    assert resolved.effective["base_url"] == "http://www.feynarts.de/formcalc/"


def test_effective_version_identity_when_no_overrides(feyn_catalog):
    resolved = effective_version(feyn_catalog, "FeynHiggs", "2.9.4")
    entry = FEYNHIGGS_ENTRY["FeynHiggs"]
    assert resolved.effective["base_url"] == entry["base_url"]
    assert resolved.effective["installer"] == entry["installer"]
    assert resolved.effective["file"] == entry["file"]


def test_effective_version_unknown_name(feyn_catalog):
    with pytest.raises(NotFoundError, match="NoSuchApp"):
        effective_version(feyn_catalog, "NoSuchApp", "1")


def test_effective_version_unknown_version(feyn_catalog):
    with pytest.raises(NotFoundError, match="9.9"):
        effective_version(feyn_catalog, "FormCalc", "9.9")


def test_download_url_join(feyn_catalog):
    resolved = effective_version(feyn_catalog, "FeynHiggs", "2.9.4")
    assert (
        resolved.download_url
        == "http://www.feynhiggs.de/downloads/FeynHiggs-2.9.4.tar.gz"
    )


def test_download_url_without_file_is_base_url(feyn_catalog):
    resolved = effective_version(feyn_catalog, "FormCalc", "7.0.2")
    assert resolved.download_url == "https://devel.ifca.es/~enol/feynapps/"


@pytest.mark.parametrize(
    "base,file,expected",
    [
        ("http://x/a/", "f.tar", "http://x/a/f.tar"),
        ("http://x/a", "f.tar", "http://x/a/f.tar"),
        ("http://x/a/", "/f.tar", "http://x/a/f.tar"),
        ("http://x/a/", None, "http://x/a/"),
        (None, "f.tar", None),
    ],
)
def test_join_url(base, file, expected):
    assert join_url(base, file) == expected


def test_roundtrip(feyn_catalog):
    assert parse_catalog(serialize_catalog(feyn_catalog)) == feyn_catalog


_names = st.text(alphabet="abcXYZ09", min_size=1, max_size=6)


@given(
    st.dictionaries(
        _names,
        st.fixed_dictionaries(
            {},
            optional={
                "app_name": _names,
                "base_url": st.just("http://example.org/d/"),
                "file": _names,
            },
        ),
        min_size=1,
        max_size=4,
    )
)
def test_override_merge_is_idempotent_and_field_local(version_overrides):
    doc = {
        "App": {
            "installer": "x.sh",
            "app_name": "default-name",
            "base_url": "http://default/",
            "versions": {
                vk: dict(body, version_name=vk)
                for vk, body in version_overrides.items()
            },
        }
    }
    catalog = parse_catalog(json.dumps(doc))
    for vk, body in version_overrides.items():
        eff = effective_version(catalog, "App", vk).effective
        again = effective_version(catalog, "App", vk).effective
        assert eff == again  # merging twice equals merging once
        for field_name in ("app_name", "base_url", "file"):
            if field_name in body:
                assert eff[field_name] == body[field_name]
            else:
                assert eff[field_name] == doc["App"].get(field_name)
        assert eff["installer"] == "x.sh"  # unrelated field never changes


def _one_object_per_value(values):
    first = {}
    return all(first.setdefault(value, value) is value for value in values)


def test_parsed_catalog_keeps_one_object_per_distinct_value():
    # Names of two or more characters: CPython keeps one object per 1-character string anyway.
    doc = {
        "Alpha": {"installer": "x.sh", "base_url": "http://h/", "app_name": "suite",
                  "dependencies": ["Beta"], "versions": {
                      "1.0": {}, "2.0": {"version_name": "2.0"},
                      "3.0": {"dependencies": ["Gamma", "Beta"]}, "4.0": {"app_version": "pretty"}}},
        "Beta": {"installer": "x.sh", "base_url": "http://h/", "app_name": "suite",
                 "dependencies": ["Gamma"], "versions": {
                     "1.0": {"version_name": "1.0"},
                     "2.0": {"app_version": "pretty", "dependencies": ["Gamma"]}}},
        "Gamma": {"installer": "x.sh", "versions": {
            "1.0": {}, "2.0": {"base_url": "http://h/", "installer": "x.sh", "app_name": "suite"}}},
    }
    catalog = parse_catalog(json.dumps(doc))
    key = {name: name for name in catalog}
    merged = [effective_version(catalog, name, vk) for name in catalog
              for vk in catalog.version_keys(name)]
    assert all(dep is key[dep] for name in catalog for dep in catalog.edges(name))
    assert all(dep is key[dep] for app in merged for dep in app.dependencies)
    for field in ("installer", "base_url", "app_name", "version_name"):
        values = [app.effective[field] for app in merged if app.effective[field] is not None]
        assert len(values) > len(set(values)) and _one_object_per_value(values), field
    for app in merged:
        if app.effective["version_name"] == app.version_key:
            assert app.effective["version_name"] is app.version_key
    plain = [spec for app in catalog.checked().values() for spec in app[SPECS]
             if len(spec) == 1]
    assert sorted(plain) == [("1.0",)] * 3 + [("2.0",)] + [("pretty",)]
    assert _one_object_per_value(plain)


def chain_text(n):
    names = ["c%05d" % i for i in range(n)]
    return json.dumps({name: {"installer": "install.sh", "dependencies": names[i + 1:i + 2],
                              "versions": {"1.0": {"version_name": "1.0"}}}
                       for i, name in enumerate(names)}, sort_keys=True)


def test_parsed_chain_retains_under_two_and_a_half_times_its_text():
    text = chain_text(2000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        catalog = parse_catalog(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(catalog) == 2000
    # 2.0-2.2 on CPython 3.10-3.13; a dict per entry, or a copy of each version key
    # tuple or plain spec tuple, would each take it above 2.5.
    assert retained < 2.5 * len(text)


def test_the_collector_untracks_every_parsed_entry():
    doc = json.loads(chain_text(50))
    doc["c00000"]["versions"]["2.0"] = {"file": "f", "dependencies": ["c00007"], "installer": "y"}
    doc["c00001"].update(app_name="suite", base_url="http://h/", file="g")
    catalog = parse_catalog(json.dumps(doc))
    assert all(type(app) is tuple for app in catalog.checked().values())
    # CPython untracks a tuple once its items are, and meets an entry before the tuples it
    # holds: entry, specs, spec and dependencies take one collection each.
    for _ in range(4):
        gc.collect()
    assert not any(gc.is_tracked(app) for app in catalog.checked().values())


def test_equal_version_key_tuples_and_plain_spec_tuples_are_one_object():
    doc = {name: {"installer": "x.sh", "versions": {"1.0": {}, "2.0": {"app_version": "two"}}}
           for name in ("A", "B", "C")}
    doc["B"]["versions"]["2.0"]["file"] = "b.tgz"  # overrides: B's specs are its own
    doc["D"] = {"installer": "x.sh", "versions": {"2.0": {}, "1.0": {}}}
    apps = parse_catalog(json.dumps(doc)).checked()
    assert apps["A"][VERSION_KEYS] is apps["B"][VERSION_KEYS] is apps["C"][VERSION_KEYS]
    assert apps["A"][VERSION_KEYS] == ("1.0", "2.0") and apps["D"][VERSION_KEYS] == ("2.0", "1.0")
    assert apps["A"][SPECS] is apps["C"][SPECS] and apps["A"][SPECS] == (("1.0",), ("two",))
    assert apps["B"][SPECS] == (("1.0",), ("two", "file", "b.tgz"))
