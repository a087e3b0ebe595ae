"""Toolkit for catalog-driven VM contextualization, identity mapping,
embarrassingly parallel parameter scans and process benchmarking.

Its records are named tuples: immutable, and dataclasses would cost every
command the import of inspect, ast, dis and tokenize."""

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "parse_catalog",
    "validate_catalog",
    "effective_version",
    "resolve",
    "check_cycles",
]


def __getattr__(name):
    # PEP 562: the catalog and the resolver load on first use of their names,
    # so a process that never plans (a CLI token check) never imports them.
    if name in ("Catalog", "parse_catalog", "validate_catalog", "effective_version"):
        from phenocloud import catalog as module
    elif name in ("resolve", "check_cycles"):
        from phenocloud import resolver as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
