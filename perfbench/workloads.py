"""Operation groups, their inputs and their metrics.

Three groups of operations call the package's public functions in-process,
the way the CLI calls them:

* ``control-plane``: plan requests (parse, validate, resolve), cycle checks
  over four catalog shapes, user mapping and tokens, and two
  ``phenocloud auth token verify`` processes per round.
* ``provision``: whole instances contextualized from ``local-file``
  metadata, once into an empty sandbox root (cold) and once more into the
  same root (warm).
* ``fanout``: parameter scans with worker processes and
  ``bench.run_concurrent``.

Each operation is one closed-loop call from this process; fan-out uses at
most ``nproc`` workers.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
import oracle
from phenocloud import bench, catalog, contextualize, identity, resolver, scan
from phenocloud.errors import CycleError, PhenocloudError

MAP_EXISTING, MAP_CREATED, MAP_UNKNOWN, MAP_UNMATCHED = 120, 40, 20, 20
TOKENS_SIGNED = 100
VERIFY_VALID, VERIFY_TAMPERED, VERIFY_EXPIRED = 150, 30, 20
# check_cycles calls per round on each shape.  One call on the layered DAG
# varies by up to 2x on a shared host, so its median needs many calls.  The
# chains are checked once: a correct but quadratic search on a 10k chain
# takes seconds per call.
CYCLE_PASSES = {"dag": 8, "layered": 8, "chain": 1, "chain-cyclic": 1}
LIGHT_SCANS = 3
COMMAND_SCANS = 5
CONCURRENT_CALLS = 8
TOKEN_POOL = 64
CLI_PAIRS = 1  # CLI verify processes per round: one valid and one expired token each


def median(values):
    return statistics.median(values) if values else None


class Inputs:
    """Everything one run needs, generated from the seed under ``workdir``."""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        archives = workdir / "archives"
        scripts = workdir / "scripts"
        meta = workdir / "metadata"
        for d in (archives, scripts, meta, workdir / "roots", workdir / "scan"):
            d.mkdir(parents=True)
        self.scripts_dir = str(scripts)

        self.dag = inputs.random_dag(seed, archives.as_uri() + "/")
        self.shapes = {
            "dag": self.dag,
            "layered": inputs.layered_dag(),
            "chain": inputs.chain(cyclic=False),
            "chain-cyclic": inputs.chain(cyclic=True),
        }
        self.texts = {k: inputs.catalog_text(raw) for k, raw in self.shapes.items()}
        cyclic_chain = list(self.shapes["chain-cyclic"])
        self.planted = {
            "dag": inputs.planted_cycles(),
            "layered": [],
            "chain": [],
            "chain-cyclic": [cyclic_chain + [cyclic_chain[0]]],
        }
        self.plan_requests = inputs.request_pool(
            seed, self.dag, "plan", inputs.PLAN_REQUESTS, (30, 60))
        self.ring_requests = inputs.ring_requests()
        self.chain_request = {"c00000": "1.0"}

        self.provision_requests = inputs.request_pool(
            seed, self.dag, "provision", inputs.PROVISION_REQUESTS,
            (inputs.PROVISION_CLOSURE, inputs.PROVISION_CLOSURE + 10))
        self.manifest = inputs.write_archives(
            seed, self.dag, self.provision_requests, str(archives))
        self.metadata = []
        for i, request in enumerate(self.provision_requests):
            path = meta / f"instance{i}.json"
            inputs.write_text(path, inputs.catalog_text(request))
            self.metadata.append(str(path))
        inputs.write_text(scripts / inputs.INSTALLER, inputs.INSTALL_SCRIPT)

        self.rules = inputs.mapping_rules()
        self.principals = inputs.preloaded_principals(seed)
        self.store_seed = workdir / "principals.json"
        inputs.write_text(self.store_seed, inputs.catalog_text(self.principals))
        self.key = inputs.signing_key(seed)
        rng = inputs.rng_for(seed, "tokens")
        self.tokens = []
        for _ in range(TOKEN_POOL):
            p = rng.choice(self.principals)
            encoded = oracle.encode_token(
                self.key, p["username"], p["tenant"], inputs.TOKEN_NOW,
                inputs.TOKEN_NOW + inputs.TOKEN_LIFETIME)
            self.tokens.append((p["username"], p["tenant"], encoded, oracle.tamper(encoded, rng)))

        self.awk = workdir / "classify.awk"
        inputs.write_text(self.awk, inputs.AWK_KERNEL)
        self.scan_refs = {
            steps: oracle.scan_reference(scan.format_point, steps)
            for steps in (inputs.SCAN_LIGHT_STEPS, inputs.SCAN_HEAVY_STEPS, inputs.SCAN_COMMAND_STEPS)
        }

        # Program objects reused by every round.
        self.catalogs = {k: catalog.parse_catalog(t) for k, t in self.texts.items()}
        self.mapping = identity.MappingConfig.from_json(inputs.mapping_config_text())


class Harness:
    """Counts operations, collects samples and checks every result."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = Counter()
        self.values = defaultdict(list)  # metric -> one value per round or call
        self.counts = defaultdict(list)  # per-layer count -> one value per round

    def attempt(self, kind, fn, check):
        """Run ``fn()`` as one operation and check it with
        ``check(result, exc)``, which returns ``None`` or a reason.

        Any failure counts.  A wrong result, a domain error where the
        oracle expected another outcome, or a check that raises on an
        unexpected result also marks the run incorrect; any other exception
        of ``fn`` (``RecursionError``, ``OSError``...) is counted as an error
        by type.  Returns ``(result, seconds, ok)``.
        """
        self.attempted += 1
        with self.tracer.span("op." + kind, op=True) as record:
            start = time.perf_counter()
            try:
                result, exc = fn(), None
            except Exception as e:  # every exception is a counted failure
                result, exc = None, e
                record["error"] = type(e).__name__
            elapsed = time.perf_counter() - start
        try:
            reason = check(result, exc)
        except Exception as e:  # a result the check cannot read is wrong
            reason, exc = f"check raised {type(e).__name__}: {e}", None
        if reason is None:
            return result, elapsed, True
        self.failed += 1
        if exc is None or isinstance(exc, PhenocloudError):
            self.wrong += 1
            self.errors[f"wrong {kind}: {reason}"] += 1
        else:
            self.errors[f"{kind}: {type(exc).__name__}"] += 1
        return result, elapsed, False

    def span(self, name, **attrs):
        return self.tracer.span(name, **attrs)


def _raised(exc):
    return f"raised {type(exc).__name__}: {exc}"


# --- control-plane -------------------------------------------------------------------


class ControlPlane:
    def __init__(self, data: Inputs, harness: Harness, pythonpath: str):
        self.data = data
        self.h = harness
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.script = self._script()
        self.op_times = defaultdict(list)  # script index -> one time per round

    def plan(self, shape, request):
        text = self.data.texts[shape]
        with self.h.span("catalog.parse_catalog", shape=shape):
            cat = catalog.parse_catalog(text)
        with self.h.span("catalog.validate_catalog", shape=shape):
            catalog.validate_catalog(cat)
        with self.h.span("resolver.resolve", shape=shape):
            plan = resolver.resolve(cat, request)
        return [(s.name, s.version_key) for s in plan.steps]

    def plan_op(self, shape, request, steps_seen):
        raw = self.data.shapes[shape]
        cyclic = oracle.expected_plan(raw, request) is None

        def check(steps, exc):
            if cyclic:
                if isinstance(exc, CycleError):
                    return oracle.check_cycle_error(raw, exc.cycle, self.data.planted[shape])
                return _raised(exc) if exc else "cyclic request was planned"
            if exc is not None:
                return _raised(exc)
            return oracle.check_plan(raw, request, steps)

        steps, elapsed, ok = self.h.attempt("plan", lambda: self.plan(shape, request), check)
        if ok and not cyclic and shape == "dag":
            steps_seen.append(len(steps))
        return elapsed

    def cycles_op(self, shape, found):
        def call():
            with self.h.span("resolver.check_cycles", shape=shape):
                return resolver.check_cycles(self.data.catalogs[shape])

        def check(cycles, exc):
            if exc is not None:
                return _raised(exc)
            return oracle.check_cycles_result(cycles, self.data.planted[shape])

        cycles, elapsed, _ = self.h.attempt("check_cycles", call, check)
        if cycles is not None:
            found[shape].append(len(cycles))
        return elapsed

    def _script(self):
        """The operations of one round, seeded and shuffled once: every
        round repeats the same operations in the same order."""
        d = self.data
        rng = inputs.rng_for(d.seed, "control-plane")
        script = [("plan", "dag", q) for q in d.plan_requests + d.ring_requests]
        script += [("plan", shape, d.chain_request) for shape in ("chain", "chain-cyclic")]
        for shape, passes in CYCLE_PASSES.items():
            script += [("cycles", shape)] * passes
        script += [("map", user) for user in self._users(rng)]
        for _ in range(TOKENS_SIGNED):
            p = rng.choice(d.principals)
            script.append(("issue", p["username"], p["tenant"]))
        for kind, n in (("valid", VERIFY_VALID), ("tampered", VERIFY_TAMPERED), ("expired", VERIFY_EXPIRED)):
            script += [("verify", kind, rng.choice(d.tokens)) for _ in range(n)]
        script += [("cli", kind, rng.choice(d.tokens)) for kind in ("valid", "expired") * CLI_PAIRS]
        rng.shuffle(script)
        return script

    def _users(self, rng):
        """Fixed numbers of users per outcome: preloaded principals, new
        users that are auto-created, new users denied as unknown, and users
        no rule matches."""
        d = self.data
        users = [p["username"] for p in rng.sample(d.principals, MAP_EXISTING)]
        model = oracle.IdentityModel(d.rules, d.principals)
        wanted = {("decision", True): MAP_CREATED, ("denial", "unknown-principal"): MAP_UNKNOWN}
        while any(wanted.values()):
            user = inputs.username(rng.randrange(100_000, 1_000_000), rng.randrange(inputs.RULES))
            expected = model.expect(user)
            key = (expected[0], expected[-1])
            if wanted.get(key):
                wanted[key] -= 1
                users.append(user)
        users += [inputs.username(rng.randrange(100_000), rng.randrange(inputs.RULES, inputs.DEPARTMENTS))
                  for _ in range(MAP_UNMATCHED)]
        return users

    def round(self, r):
        d = self.data
        store_path = d.workdir / "principals-round.json"
        shutil.copyfile(d.store_seed, store_path)
        store = identity.JsonPrincipalStore(str(store_path))
        model = oracle.IdentityModel(d.rules, d.principals)
        steps_seen, found = [], defaultdict(list)
        tally = Counter()
        for i, (op, *args) in enumerate(self.script):
            if op == "plan":
                elapsed = self.plan_op(*args, steps_seen)
            elif op == "cycles":
                elapsed = self.cycles_op(*args, found)
            elif op == "map":
                elapsed = self.map_op(store, model, *args, tally)
            elif op == "issue":
                elapsed = self.issue_op(*args)
            elif op == "verify":
                elapsed = self.verify_op(*args, tally)
            else:
                elapsed = self.cli_op(*args)
            self.op_times[i].append(elapsed)
        c = self.h.counts
        c["resolver.plan_steps"].append(statistics.mean(steps_seen) if steps_seen else 0)
        c["resolver.cycles_found"].append(sum(statistics.mean(n) for n in found.values()))
        c["identity.store_bytes"].append(os.path.getsize(store_path))
        c["identity.created"].append(tally["created"])
        c["identity.verify_rejected"].append(tally["rejected"])

    def map_op(self, store, model, user, tally):
        def call():
            with self.h.span("identity.map_username"):
                outcome = identity.map_username(self.data.mapping, store, user)
            if isinstance(outcome, identity.Denial):
                return ("denial", outcome.reason)
            return ("decision", outcome.tenant, outcome.username, outcome.created)

        def check(outcome, exc):
            expected = model.expect(user)
            if exc is not None:
                return _raised(exc)
            if outcome[0] == "decision" and outcome[2] != user:
                return "decision names another user"
            return oracle.check_mapping(expected, outcome)

        outcome, elapsed, ok = self.h.attempt("map_username", call, check)
        if ok and outcome[0] == "decision" and outcome[3]:
            tally["created"] += 1
        return elapsed

    def issue_op(self, subject, tenant):
        def call():
            with self.h.span("identity.issue_token"):
                token = identity.issue_token(
                    self.data.key, subject, tenant, inputs.TOKEN_LIFETIME, inputs.TOKEN_NOW)
            return token.encode()

        def check(encoded, exc):
            if exc is not None:
                return _raised(exc)
            return oracle.check_issued(
                self.data.key, subject, tenant, inputs.TOKEN_NOW, inputs.TOKEN_LIFETIME, encoded)

        return self.h.attempt("issue_token", call, check)[1]

    def verify_op(self, kind, token, tally):
        subject, tenant, encoded, tampered = token
        text = tampered if kind == "tampered" else encoded
        now = inputs.TOKEN_NOW + (inputs.TOKEN_LIFETIME + 1 if kind == "expired" else 10)

        def call():
            with self.h.span("identity.verify_token"):
                got, reason = identity.verify_token(self.data.key, text, now)
            return (None if got is None else (got.subject, got.tenant)), reason

        def check(result, exc):
            if exc is not None:
                return _raised(exc)
            return oracle.check_verified(kind, subject, tenant, *result)

        result, elapsed, ok = self.h.attempt("verify_token", call, check)
        if ok and result[0] is None:
            tally["rejected"] += 1
        return elapsed

    def cli_op(self, kind, token):
        subject, tenant, encoded, _ = token
        now = inputs.TOKEN_NOW + (inputs.TOKEN_LIFETIME + 1 if kind == "expired" else 10)
        argv = [sys.executable, "-m", "phenocloud.cli", "auth", "token", "verify",
                "--key", self.data.key.decode("ascii"), "--token", encoded, "--now", repr(now)]

        def call():
            with self.h.span("cli.auth_token_verify"):
                return subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=60)

        def check(proc, exc):
            if exc is not None:
                return _raised(exc)
            if kind == "expired":
                if proc.returncode != 1 or "invalid (expired)" not in proc.stderr:
                    return f"CLI exit {proc.returncode} for an expired token"
                return None
            if proc.returncode != 0:
                return f"CLI exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            out = json.loads(proc.stdout)
            if (out["subject"], out["tenant"]) != (subject, tenant):
                return "CLI verified another subject or tenant"
            return None

        return self.h.attempt("cli_verify", call, check)[1]

    def end_to_end(self):
        """Every round repeats the same script, so each operation has one
        time per round.  A metric sums the median time of each of its
        operations: noise of single calls averages out over the script."""
        medians = defaultdict(list)
        for i, (op, *args) in enumerate(self.script):
            key = "auth" if op in ("map", "issue", "verify") else op
            medians[(key, args[0]) if op == "cycles" else key].append(median(self.op_times[i]))
        return {
            "plan_per_s": len(medians["plan"]) / sum(medians["plan"]),
            # one pass over the shape set: the mean over each shape's passes
            "cycle_check_s": sum(statistics.mean(medians[("cycles", s)]) for s in CYCLE_PASSES),
            "auth_per_s": len(medians["auth"]) / sum(medians["auth"]),
            "cli_auth_s": median(medians["cli"]),
        }

    def layer_metrics(self, tracer):
        c = self.h.counts
        return {
            "catalog.parse_s": tracer.median("catalog.parse_catalog", shape="dag"),
            "catalog.validate_s": tracer.median("catalog.validate_catalog", shape="dag"),
            "catalog.text_bytes": len(self.data.texts["dag"].encode("utf-8")),
            "resolver.resolve_s": tracer.median("resolver.resolve", shape="dag"),
            "resolver.plan_steps": median(c["resolver.plan_steps"]),
            "resolver.check_cycles_s": sum(
                tracer.median("resolver.check_cycles", shape=s) for s in self.data.shapes),
            "resolver.cycles_found": median(c["resolver.cycles_found"]),
            "identity.map_username_s": tracer.median("identity.map_username"),
            "identity.store_bytes": median(c["identity.store_bytes"]),
            "identity.created": median(c["identity.created"]),
            "identity.issue_token_s": tracer.median("identity.issue_token"),
            "identity.verify_token_s": tracer.median("identity.verify_token"),
            "identity.verify_rejected": median(c["identity.verify_rejected"]),
            "cli.import_s": cli_import_s(self.env),
        }


def cli_import_s(env, repeats=4):
    """Wall time of ``python -c "import phenocloud.cli"`` minus a bare
    interpreter start, median of ``repeats`` alternating pairs."""
    def wall(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - start

    return median([wall("import phenocloud.cli") - wall("pass") for _ in range(repeats)])


# --- provision -------------------------------------------------------------------------


class Provision:
    def __init__(self, data: Inputs, harness: Harness):
        self.data = data
        self.h = harness

    def instance(self, i, root, phase):
        with self.h.span("catalog.parse_catalog", shape="dag-provision"):
            cat = catalog.parse_catalog(self.data.texts["dag"])
        source = contextualize.MetadataSource("local-file", self.data.metadata[i])
        with self.h.span("contextualize.fetch_metadata"):
            request = contextualize.fetch_metadata(source)
        ctx = contextualize.Contextualizer(cat, scripts_dir=self.data.scripts_dir, root=root)
        with self.h.span("contextualize.plan"):
            plan = ctx.plan(request)
        with self.h.span("contextualize.run", phase=phase):
            report = ctx.run(request)
        return request, plan, report

    def round(self, r):
        d = self.data
        i = r % len(d.provision_requests)
        # One sandbox root for the run, emptied right before each cold run;
        # the last one goes with the work directory.
        root = str(d.workdir / "roots" / "instance")
        if os.path.exists(root):
            shutil.rmtree(root)
        os.makedirs(root)
        for phase, outcome in (("cold", "downloaded"), ("warm", "cached")):
            def check(result, exc):
                if exc is not None:
                    return _raised(exc)
                request, plan, report = result
                if request != d.provision_requests[i]:
                    return "metadata request differs from the one written"
                reason = oracle.check_plan(d.dag, request, [(s.name, s.version_key) for s in plan.steps])
                if reason:
                    return reason
                if not report.ok:
                    return f"run failed at step {report.failed_at}"
                ran = [(s.app, s.version) for s in report.steps]
                if ran != [(s.name, s.version_key) for s in plan.steps]:
                    return "steps run differ from the plan"
                steps = [(s.app, s.version, s.download, s.exit_status,
                          os.path.basename(s.download_url)) for s in report.steps]
                return oracle.check_installed(root, steps, d.manifest, outcome)

            result, elapsed, _ = self.h.attempt(
                f"provision_{phase}", lambda: self.instance(i, root, phase), check)
            self.h.values[f"provision_{phase}_s"].append(elapsed)
            if result is not None:
                self._count(phase, result[2])

    def _count(self, phase, report):
        c = self.h.counts
        steps = report.steps
        c[f"contextualize.step_{phase}_s"].extend(s.duration_s for s in steps)
        c["contextualize.steps"].append(len(steps))
        hits = sum(s.download == "cached" for s in steps)
        c[f"contextualize.cache_hit_ratio_{phase}"].append(hits / len(steps) if steps else 0.0)
        c["contextualize.installer_failures"].append(sum(s.exit_status != 0 for s in steps))
        if phase == "cold":
            c["contextualize.bytes_fetched"].append(sum(
                self.data.manifest[os.path.basename(s.download_url)]["size"]
                for s in steps if s.download == "downloaded"))

    def end_to_end(self):
        v = self.h.values
        return {f"provision_{p}_s": median(v[f"provision_{p}_s"]) for p in ("cold", "warm")}

    def layer_metrics(self, tracer):
        c = self.h.counts
        return {
            "contextualize.fetch_metadata_s": tracer.median("contextualize.fetch_metadata"),
            "contextualize.plan_s": tracer.median("contextualize.plan"),
            "contextualize.run_cold_s": tracer.median("contextualize.run", phase="cold"),
            "contextualize.run_warm_s": tracer.median("contextualize.run", phase="warm"),
            "contextualize.step_cold_s": median(c["contextualize.step_cold_s"]),
            "contextualize.step_warm_s": median(c["contextualize.step_warm_s"]),
            "contextualize.steps": median(c["contextualize.steps"]),
            "contextualize.cache_hit_ratio_cold": median(c["contextualize.cache_hit_ratio_cold"]),
            "contextualize.cache_hit_ratio_warm": median(c["contextualize.cache_hit_ratio_warm"]),
            "contextualize.bytes_fetched": median(c["contextualize.bytes_fetched"]),
            "contextualize.installer_failures": sum(c["contextualize.installer_failures"]),
        }


# --- fanout ------------------------------------------------------------------------------


class Fanout:
    def __init__(self, data: Inputs, harness: Harness, workers: int):
        self.data = data
        self.h = harness
        self.workers = workers

    def scan_op(self, label, steps, workers, **kw):
        out = str(self.data.workdir / "scan" / f"{label}.dat")
        grid = scan.ScanGrid(steps_per_axis=steps, **inputs.SCAN_RANGE)

        def call():
            with self.h.span("scan.run_scan", scan=label):
                scan.run_scan(grid, workers=workers, out=out, **kw)
            with open(out, "rb") as fh:
                return fh.read()

        def check(data, exc):
            # Every worker count is checked against the same reference, so
            # the W=nproc output is byte-identical to the W=1 output too.
            if exc is not None:
                return _raised(exc)
            return oracle.check_scan(data, self.data.scan_refs[steps])

        data, elapsed, _ = self.h.attempt("scan", call, check)
        parts = [p for p in os.listdir(os.path.dirname(out)) if p.startswith(f"{label}.dat.part")]
        self.h.counts["scan.parts_left"].append(len(parts))
        if label == "light" and data is not None:
            self.h.counts["scan.out_bytes"].append(len(data))
        return elapsed

    def concurrent_op(self):
        workload = bench.Workload.from_spec("cmd:true")
        holder = {}

        def call():
            # Only run_concurrent is timed; analyze runs after the clock stops.
            with self.h.span("bench.run_concurrent"):
                start = time.perf_counter()
                run = bench.run_concurrent(workload, self.workers)
                holder["wall_s"] = time.perf_counter() - start
            with self.h.span("bench.analyze"):
                holder["report"] = bench.analyze(run)
            return run

        def check(run, exc):
            if exc is not None:
                return _raised(exc)
            if run.failed or len(run.records) != self.workers:
                return f"run_concurrent failed={run.failed} with {len(run.records)} records"
            return None

        run, _, ok = self.h.attempt("run_concurrent", call, check)
        if ok:
            real = [rec.real_s for rec in run.records]
            wall = holder["wall_s"]
            self.h.values["fanout_overhead_s"].append(wall - max(real))
            c = self.h.counts
            c["bench.run_concurrent_s"].append(wall)
            c["bench.child_real_max_s"].append(max(real))
            c["bench.child_real_min_s"].append(min(real))
            c["bench.sys_pct"].append(holder["report"].sys_pct_max)

    def round(self, r):
        w = self.workers
        v = self.h.values
        for _ in range(LIGHT_SCANS):
            v["light"].append(self.scan_op("light", inputs.SCAN_LIGHT_STEPS, w, kernel="builtin"))
        heavy = dict(kernel="builtin", work_units=inputs.SCAN_HEAVY_WORK)
        v["heavy1"].append(self.scan_op("heavy1", inputs.SCAN_HEAVY_STEPS, 1, **heavy))
        v["heavyW"].append(self.scan_op("heavyW", inputs.SCAN_HEAVY_STEPS, w, **heavy))
        command = "awk -f " + shlex.quote(str(self.data.awk))
        for _ in range(COMMAND_SCANS):
            v["command"].append(self.scan_op(
                "command", inputs.SCAN_COMMAND_STEPS, w, kernel="command", command=command))
        for _ in range(CONCURRENT_CALLS):
            self.concurrent_op()

    def end_to_end(self):
        v = self.h.values
        t1, tw = median(v["heavy1"]), median(v["heavyW"])
        return {
            "scan_points_per_s": inputs.SCAN_LIGHT_STEPS ** 2 / median(v["light"]),
            "scan_heavy_points_per_s": inputs.SCAN_HEAVY_STEPS ** 2 / tw,
            "scan_speedup": bench.speedup_curve(
                [(1, t1)] + ([(self.workers, tw)] if self.workers > 1 else []))[-1][1],
            "scan_command_points_per_s": inputs.SCAN_COMMAND_STEPS ** 2 / median(v["command"]),
            "fanout_overhead_s": median(v["fanout_overhead_s"]),
        }

    def layer_metrics(self, tracer):
        c = self.h.counts
        run_scan_s = tracer.median("scan.run_scan", scan="light")
        kernel_s = kernel_seconds(inputs.SCAN_LIGHT_STEPS, 0)
        return {
            "scan.run_scan_s": run_scan_s,
            "scan.kernel_s": kernel_s,
            "scan.overhead_s": run_scan_s - kernel_s / self.workers,
            "scan.heavy_run_scan_s": tracer.median("scan.run_scan", scan="heavyW"),
            "scan.heavy_kernel_s": kernel_seconds(inputs.SCAN_HEAVY_STEPS, inputs.SCAN_HEAVY_WORK),
            "scan.command_run_scan_s": tracer.median("scan.run_scan", scan="command"),
            "scan.out_bytes": median(c["scan.out_bytes"]),
            "scan.parts_left": sum(c["scan.parts_left"]),
            "bench.run_concurrent_s": median(c["bench.run_concurrent_s"]),
            "bench.child_real_max_s": median(c["bench.child_real_max_s"]),
            "bench.child_real_min_s": median(c["bench.child_real_min_s"]),
            "bench.sys_pct": median(c["bench.sys_pct"]),
        }


def kernel_seconds(steps, work_units, repeats=2):
    """The scan's points through ``builtin_kernel`` in this process, single
    thread; median of ``repeats``."""
    points = oracle.grid_points(steps, **inputs.SCAN_RANGE)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for ma, tb in points:
            scan.builtin_kernel(ma, tb, work_units)
        times.append(time.perf_counter() - start)
    return median(times)
