"""Instance contextualization: fetch the requested-applications metadata,
build an install plan, download archives and run installer scripts in order.

Execution is sandboxed under a caller-supplied root directory; scripts run
unprivileged with APP_NAME / APP_VERSION / APP_ARCHIVE / INSTALL_PREFIX in
their environment.  A step whose installer lies outside the scripts directory,
or whose install prefix lies outside the root's apps directory, is skipped
and fails the run.  A dry run resolves the plan and refuses such steps, as a
real run does, but touches nothing.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple

from phenocloud.catalog import Catalog
from phenocloud.errors import PhenocloudError, replace_file
from phenocloud.resolver import InstallPlan, resolve

URL_TIMEOUT_S = 60.0  # per blocking socket operation of a metadata or archive fetch
OUTPUT_TAIL_CHARS = 2000  # how much of a failed step's output its JSON report keeps


class FetchError(PhenocloudError):
    """Metadata source unreachable or unreadable."""


class MetadataFormatError(PhenocloudError):
    """Metadata payload is not a JSON object of app name -> version key."""


class DownloadError(PhenocloudError):
    """Archive download failed."""


# kind: "fixed-url" | "local-file"
class MetadataSource(namedtuple("MetadataSource", "kind location")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("fixed-url", "local-file"):
            raise ValueError(f"unknown metadata source kind {self.kind!r}")
        if not self.location:
            raise ValueError("metadata source location must be non-empty")
        return self


# download: "cached" | "downloaded" | "skipped" | "failed" | "dry-run";
# exit_status: None when the script did not run
class StepReport(namedtuple("StepReport", "app version download download_url exit_status "
                            "duration_s output", defaults=("",))):
    __slots__ = ()

    def to_dict(self):
        doc = {
            "app": self.app,
            "version": self.version,
            "download": self.download,
            "download_url": self.download_url,
            "exit_status": self.exit_status,
            "duration_s": round(self.duration_s, 3),
        }
        if self.download != "dry-run" and self.exit_status != 0:
            doc["output"] = self.output[-OUTPUT_TAIL_CHARS:]
        return doc


# failed_at: step index, None = success
class ExecutionReport(namedtuple("ExecutionReport", "steps failed_at dry_run",
                                 defaults=(None, False))):
    __slots__ = ()

    @property
    def ok(self):
        return self.failed_at is None

    def to_dict(self):
        return {
            "overall": "success" if self.ok else f"failed-at({self.failed_at})",
            "dry_run": self.dry_run,
            "steps": [s.to_dict() for s in self.steps],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


ImageRecord = namedtuple("ImageRecord", "image_id properties")


def filter_ready_images(images) -> list:
    """Images flagged ready for contextualization: property feynapps == "true"."""
    return [img for img in images if img.properties.get("feynapps") == "true"]


def fetch_metadata(source: MetadataSource) -> dict:
    """Read the instance metadata payload and parse the install request."""
    try:
        if source.kind == "local-file":
            with open(source.location, encoding="utf-8") as fh:
                text = fh.read()
        else:
            import urllib.request
            with urllib.request.urlopen(source.location, timeout=URL_TIMEOUT_S) as resp:
                text = resp.read().decode("utf-8")
    except OSError as exc:
        raise FetchError(f"cannot fetch metadata from {source.location}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MetadataFormatError(f"metadata from {source.location} is not UTF-8: {exc}") from exc

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MetadataFormatError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in payload.items()
    ):
        raise MetadataFormatError(
            "metadata must be a JSON object mapping app name to version key"
        )
    return payload


def _download(url: str, dest: str) -> str:
    """Fetch url into dest unless dest exists; returns "cached" or "downloaded".

    dest appears only by renaming a finished download, so its existence is the cache.
    """
    if os.path.exists(dest):
        return "cached"
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=URL_TIMEOUT_S) as resp:
            replace_file(dest, iter(lambda: resp.read(1 << 16), b""))
    except OSError as exc:
        raise DownloadError(f"download of {url} failed: {exc}") from exc
    return "downloaded"


class Contextualizer:
    def __init__(self, catalog: Catalog, scripts_dir: str, root: str):
        self.catalog = catalog
        self.scripts_dir = scripts_dir
        self.root = os.path.abspath(root)  # installers run with it as their cwd

    def plan(self, request: dict) -> InstallPlan:
        return resolve(self.catalog, request)

    def run(self, request: dict, dry_run: bool = False) -> ExecutionReport:
        plan = self.plan(request)
        steps = []
        failed_at = None
        scripts_dir = os.path.realpath(self.scripts_dir)
        downloads_dir = os.path.join(self.root, "downloads")
        if not dry_run:
            os.makedirs(downloads_dir, exist_ok=True)
        for index, step in enumerate(plan.steps):
            start = time.monotonic()
            download, status, output = self._run_step(step, scripts_dir, downloads_dir, dry_run)
            steps.append(StepReport(
                app=step.name,
                version=step.version_key,
                download=download,
                download_url=step.download_url,
                exit_status=status,
                duration_s=0.0 if dry_run else time.monotonic() - start,
                output=output,
            ))
            if download != "dry-run" and status != 0:
                failed_at = index
                break
        return ExecutionReport(steps, failed_at, dry_run)

    def _run_step(self, step, scripts_dir, downloads_dir, dry_run):
        """(download, exit_status, output) of a step; a dry run stops after confinement."""
        installer = step.effective["installer"]
        script = os.path.realpath(os.path.join(scripts_dir, installer))
        if os.path.commonpath([scripts_dir, script]) != scripts_dir:
            reason = f"installer {installer!r} resolves outside scripts dir {scripts_dir}"
            return "skipped", None, reason
        # Catalog keys are unchecked: "/tmp/x" or "../.." would leave the sandbox root.
        apps_dir = os.path.join(self.root, "apps")
        prefix = os.path.normpath(os.path.join(apps_dir, step.name, step.version_key))
        if prefix == apps_dir or os.path.commonpath([apps_dir, prefix]) != apps_dir:
            return "skipped", None, f"install prefix {prefix!r} is not below {apps_dir}"
        if dry_run:
            return "dry-run", None, ""
        import hashlib
        import subprocess
        archive = ""
        download = "skipped"
        if step.download_url:
            # Keyed by URL, so archives of one basename from two sites stay apart.
            url_key = hashlib.sha256(step.download_url.encode("utf-8")).hexdigest()[:16]
            archive = os.path.join(
                downloads_dir, url_key + "-" + os.path.basename(step.download_url.rstrip("/"))
            )
            try:
                download = _download(step.download_url, archive)
            except DownloadError as exc:
                return "failed", None, str(exc)

        env = dict(os.environ)
        env.update(
            APP_NAME=step.name,
            APP_VERSION=step.version_key,
            APP_ARCHIVE=archive,
            INSTALL_PREFIX=prefix,
        )
        proc = subprocess.run(
            ["/bin/sh", script],
            cwd=self.root,
            env=env,
            capture_output=True,
            text=True,
        )
        return download, proc.returncode, proc.stdout + proc.stderr
