"""Single command-line entry point: ctx / auth / scan / bench subcommands.

Exit codes: 0 success, 1 domain error (validation, denial, cycle, failed
step), 2 usage error.  Machine-readable output goes to stdout as JSON,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from phenocloud.errors import PhenocloudError, replace_file

CONFIG_ENV = "PHENO_CONFIG"
CONFIG_KEYS = {  # PHENO_CONFIG key -> the flag it fills in when the flag is absent
    "catalog": "catalog",
    "scripts_dir": "scripts",
    "root": "root",
    "identity_config": "config",
    "principal_store": "store",
    "signing_key": "key",
}


def load_global_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise PhenocloudError(f"{CONFIG_ENV} file {path} must hold a JSON object")
    config = {k: raw[k] for k in CONFIG_KEYS if k in raw}
    for key, value in config.items():
        if not isinstance(value, str):
            raise PhenocloudError(f"{CONFIG_ENV} file {path}: {key} must be a string")
    return config


def _read(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PhenocloudError(f"{path} is not UTF-8: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise PhenocloudError(f"{path} is not valid JSON: {exc}") from exc


def _load_catalog(args):
    from phenocloud.catalog import parse_catalog
    if not args.catalog:
        raise PhenocloudError("no catalog given (flag --catalog or PHENO_CONFIG)")
    return parse_catalog(_read(args.catalog))


# --- ctx ---------------------------------------------------------------------


def cmd_ctx_plan(args):
    from phenocloud.contextualize import MetadataSource, fetch_metadata
    from phenocloud.resolver import resolve
    catalog = _load_catalog(args)
    request = fetch_metadata(MetadataSource("local-file", args.metadata))
    plan = resolve(catalog, request)
    print(json.dumps(
        {
            "steps": [
                {
                    "app": s.name,
                    "version": s.version_key,
                    "download_url": s.download_url,
                    "installer": s.effective["installer"],
                }
                for s in plan.steps
            ]
        },
        indent=2,
    ))
    return 0


def cmd_ctx_run(args):
    from phenocloud.contextualize import Contextualizer, MetadataSource, fetch_metadata
    catalog = _load_catalog(args)
    request = fetch_metadata(MetadataSource("local-file", args.metadata))
    if not args.root:
        raise PhenocloudError("no sandbox root given (flag --root or PHENO_CONFIG)")
    ctx = Contextualizer(catalog, scripts_dir=args.scripts or ".", root=args.root)
    report = ctx.run(request, dry_run=args.dry_run)
    if args.pretty:
        for step in report.steps:
            status = "ok" if step.exit_status == 0 else (
                "planned" if step.download == "dry-run" else "FAILED")
            print(f"{step.app:<20} {step.version:<10} {step.download:<12} {status}")
        print("overall:", "success" if report.ok else f"failed-at({report.failed_at})")
    else:
        print(report.to_json())
    return 0 if report.ok else 1


def cmd_ctx_images(args):
    from phenocloud.contextualize import ImageRecord, filter_ready_images
    raw = _read_json(args.registry)
    try:
        images = [
            ImageRecord(image_id=r["id"], properties=r.get("properties", {})) for r in raw
        ]
        ready = filter_ready_images(images)
    except (AttributeError, KeyError, TypeError) as exc:
        raise PhenocloudError(
            f"malformed image registry {args.registry}: {type(exc).__name__}: {exc}"
        ) from exc
    print(json.dumps([img.image_id for img in ready], indent=2))
    return 0


# --- auth --------------------------------------------------------------------


def _identity_parts(args):
    from phenocloud import identity as identity_mod
    if not args.config:
        raise PhenocloudError("no mapping config given (--config or PHENO_CONFIG)")
    mapping = identity_mod.MappingConfig.from_json(_read(args.config))
    if args.store:
        store = identity_mod.JsonPrincipalStore(args.store)
    else:
        store = identity_mod.PrincipalStore()
    return mapping, store


def _emit_decision(outcome):
    from phenocloud import identity as identity_mod
    if isinstance(outcome, identity_mod.Denial):
        print(f"denied ({outcome.reason}): {outcome.detail}", file=sys.stderr)
        return 1
    print(json.dumps(outcome._asdict()))
    return 0


def cmd_auth_map_vo(args):
    from phenocloud import identity as identity_mod
    mapping, store = _identity_parts(args)
    assertion = identity_mod.Assertion(
        subject_dn=args.dn,
        vo=args.vo,
        not_before=args.not_before,
        not_after=args.not_after,
    )
    return _emit_decision(identity_mod.map_assertion(mapping, store, assertion, args.now))


def cmd_auth_map_user(args):
    from phenocloud import identity as identity_mod
    mapping, store = _identity_parts(args)
    return _emit_decision(identity_mod.map_username(mapping, store, args.user))


def _signing_key(args) -> bytes:
    if not args.key:
        raise PhenocloudError("no signing key given (--key or PHENO_CONFIG)")
    return args.key.encode("utf-8")


def cmd_auth_token_issue(args):
    from phenocloud import identity as identity_mod
    key = _signing_key(args)
    token = identity_mod.issue_token(key, args.subject, args.tenant, args.lifetime, args.now)
    print(token.encode())
    return 0


def cmd_auth_token_verify(args):
    from phenocloud import identity as identity_mod
    key = _signing_key(args)
    token, reason = identity_mod.verify_token(key, args.token, args.now)
    if token is None:
        print(f"invalid ({reason})", file=sys.stderr)
        return 1
    print(json.dumps(
        {
            "subject": token.subject,
            "tenant": token.tenant,
            "issued_at": token.issued_at,
            "expires_at": token.expires_at,
        }
    ))
    return 0


# --- scan --------------------------------------------------------------------


def _parse_range(flag, text):
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise PhenocloudError(f"{flag} takes LO:HI, got {text!r}") from None


def cmd_scan_run(args):
    from phenocloud import scan as scan_mod
    ma_min, ma_max = _parse_range("--ma", args.ma)
    tb_min, tb_max = _parse_range("--tb", args.tb)
    grid = scan_mod.ScanGrid(
        ma_min=ma_min, ma_max=ma_max, tb_min=tb_min, tb_max=tb_max,
        steps_per_axis=args.steps,
    )
    if args.kernel == "builtin":
        kernel, command = "builtin", None
    elif args.kernel.startswith("cmd:"):
        kernel, command = "command", args.kernel[4:]
    else:
        raise PhenocloudError(f"unknown kernel {args.kernel!r}")
    started = time.perf_counter()
    scan_mod.run_scan(
        grid,
        workers=args.workers,
        out=args.out,
        kernel=kernel,
        work_units=args.work_units,
        command=command,
        timeout_per_point=args.timeout_per_point,
    )
    print(json.dumps(
        {
            "out": args.out,
            "points": grid.n_points,
            "workers": args.workers,
            "wall_s": round(time.perf_counter() - started, 3),
        }
    ))
    return 0


# --- bench -------------------------------------------------------------------


def cmd_bench_run(args):
    from phenocloud import bench as bench_mod
    workload = bench_mod.Workload.from_spec(args.workload)
    if args.work_units is not None:
        workload = bench_mod.Workload(workload.command, args.work_units)
    run = bench_mod.run_concurrent(workload, args.processes)
    text = run.to_json()
    if args.out:
        replace_file(args.out, [(text + "\n").encode()])
    print(text)
    return 0 if not run.failed else 1


def cmd_bench_analyze(args):
    from phenocloud import bench as bench_mod

    def analyzed(path, baseline=None):
        raw = _read_json(path)
        try:  # a bad record or an empty run is an error naming its file
            run = bench_mod.BenchRun.from_dict(raw)
            return run, bench_mod.analyze(run, baseline=baseline)
        except (bench_mod.BenchError, ValueError) as exc:
            raise PhenocloudError(f"{path}: {exc}") from exc

    baseline = analyzed(args.baseline)[0] if args.baseline else None
    reports = [analyzed(path, baseline)[1] for path in args.runs]
    if args.report == "table":
        for r in reports:
            line = (
                f"{r.run_label:<14} {r.phase:<8} "
                f"max={r.max_record.real_s:<10g} min={r.min_record.real_s:<10g} "
                f"sys%={r.sys_pct_max:.2f}"
            )
            if r.degradation_pct_vs_baseline is not None:
                line += f" vs {r.baseline_label}: {r.degradation_pct_vs_baseline:+.2f}%"
            print(line)
    else:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phenocloud",
        description="Catalog contextualization, identity mapping, parameter scans and benchmarking",
    )
    top = parser.add_subparsers(dest="group", required=True)

    ctx = top.add_parser("ctx", help="catalog-driven contextualization")
    ctx_sub = ctx.add_subparsers(dest="command", required=True)
    p = ctx_sub.add_parser("plan", help="show the resolved install plan")
    p.add_argument("--catalog")
    p.add_argument("--metadata", required=True)
    p.set_defaults(func=cmd_ctx_plan)
    p = ctx_sub.add_parser("run", help="download and install the requested apps")
    p.add_argument("--catalog")
    p.add_argument("--metadata", required=True)
    p.add_argument("--root")
    p.add_argument("--scripts")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cmd_ctx_run)
    p = ctx_sub.add_parser("images", help="list contextualization-ready images")
    p.add_argument("--registry", required=True)
    p.set_defaults(func=cmd_ctx_images)

    auth = top.add_parser("auth", help="tenant mapping and tokens")
    auth_sub = auth.add_subparsers(dest="command", required=True)
    p = auth_sub.add_parser("map-vo", help="map a VO assertion to a tenant")
    p.add_argument("--config")
    p.add_argument("--store")
    p.add_argument("--dn", required=True)
    p.add_argument("--vo", required=True)
    p.add_argument("--not-before", type=float, default=0.0)
    p.add_argument("--not-after", type=float, default=float("inf"))
    p.add_argument("--now", type=float, default=None)
    p.set_defaults(func=cmd_auth_map_vo)
    p = auth_sub.add_parser("map-user", help="map an authenticated username")
    p.add_argument("--config")
    p.add_argument("--store")
    p.add_argument("--user", required=True)
    p.set_defaults(func=cmd_auth_map_user)
    token = auth_sub.add_parser("token", help="issue or verify scoped tokens")
    token_sub = token.add_subparsers(dest="token_command", required=True)
    p = token_sub.add_parser("issue")
    p.add_argument("--key")
    p.add_argument("--subject", required=True)
    p.add_argument("--tenant", required=True)
    p.add_argument("--lifetime", type=float, default=3600.0)
    p.add_argument("--now", type=float, default=None)
    p.set_defaults(func=cmd_auth_token_issue)
    p = token_sub.add_parser("verify")
    p.add_argument("--key")
    p.add_argument("--token", required=True)
    p.add_argument("--now", type=float, default=None)
    p.set_defaults(func=cmd_auth_token_verify)

    scan = top.add_parser("scan", help="parallel 2D parameter scan")
    scan_sub = scan.add_subparsers(dest="command", required=True)
    p = scan_sub.add_parser("run")
    p.add_argument("--steps", type=int, default=120)
    p.add_argument("--ma", default="90:500")
    p.add_argument("--tb", default="1.1:60")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--kernel", default="builtin", help="builtin or cmd:<command>")
    p.add_argument("--work-units", type=int, default=0)
    p.add_argument("--timeout-per-point", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan_run)

    bench = top.add_parser("bench", help="concurrent process benchmarking")
    bench_sub = bench.add_subparsers(dest="command", required=True)
    p = bench_sub.add_parser("run")
    p.add_argument("--processes", type=int, required=True)
    p.add_argument("--workload", default="builtin", help="builtin or cmd:<command>")
    p.add_argument("--work-units", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench_run)
    p = bench_sub.add_parser("analyze")
    p.add_argument("runs", nargs="+", metavar="RUN_FILE")
    p.add_argument("--baseline")
    p.add_argument("--report", choices=("table", "json"), default="json")
    p.set_defaults(func=cmd_bench_analyze)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Fill only flags this command has ("" otherwise) and the caller left out.
        for key, value in load_global_config().items():
            if getattr(args, CONFIG_KEYS[key], "") is None:
                setattr(args, CONFIG_KEYS[key], value)
        if getattr(args, "now", "") is None:
            args.now = time.time()
        return args.func(args)
    except (PhenocloudError, OSError, ValueError) as exc:  # bad input: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
