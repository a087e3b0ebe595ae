import json
from pathlib import Path

import pytest

from phenocloud.bench import BenchRun
from phenocloud.catalog import parse_catalog

# The FormCalc sample entry, verbatim: two versions, the first overriding
# the application-level base_url.
FORMCALC_ENTRY = {
    "FormCalc": {
        "app_name": "FormCalc",
        "dependencies": ["FeynHiggs"],
        "installer": "feyntools.sh",
        "base_url": "http://www.feynarts.de/formcalc/",
        "versions": {
            "7.0.2": {
                "base_url": "https://devel.ifca.es/~enol/feynapps/",
                "app_version": "7.0.2",
            },
            "7.4": {
                "app_version": "7.4",
            },
        },
    }
}

FEYNHIGGS_ENTRY = {
    "FeynHiggs": {
        "app_name": "FeynHiggs",
        "installer": "feyntools.sh",
        "base_url": "http://www.feynhiggs.de/downloads/",
        "file": "FeynHiggs-2.9.4.tar.gz",
        "versions": {
            "2.9.4": {"version_name": "2.9.4"},
        },
    }
}


@pytest.fixture
def formcalc_fragment_text():
    return json.dumps(FORMCALC_ENTRY)


@pytest.fixture
def feyn_catalog_text():
    return json.dumps({**FORMCALC_ENTRY, **FEYNHIGGS_ENTRY})


@pytest.fixture
def feyn_catalog(feyn_catalog_text):
    return parse_catalog(feyn_catalog_text)


def make_catalog(deps: dict, versions=("1.0",)):
    """Build a catalog from a {name: [dependency, ...]} adjacency mapping."""
    doc = {
        name: {
            "installer": "install.sh",
            "dependencies": list(dep_list),
            "versions": {v: {"version_name": v} for v in versions},
        }
        for name, dep_list in deps.items()
    }
    return parse_catalog(json.dumps(doc))


def load_fixture_runs():
    """Every run of the paper's timing tables (virtual against physical machines, with and
    without hyperthreading; one JSON array of runs per file) as BenchRun objects."""
    tables = sorted((Path(__file__).parent / "paper_tables").glob("*.json"))
    return [BenchRun.from_dict(raw) for path in tables for raw in json.loads(path.read_text())]


def find_run(runs, label, phase):
    for run in runs:
        if run.label == label and run.phase == phase:
            return run
    raise LookupError(f"no run labelled {label!r} with phase {phase!r}")
