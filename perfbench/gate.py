"""Correctness gate for one `vibrancy run` output directory."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import K_TRUE


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifacts_digest(artifacts: dict[str, str]) -> str:
    """sha256 over the sorted (path, hash) pairs of a manifest's artifacts."""
    lines = "".join(f"{rel} {digest}\n" for rel, digest in sorted(artifacts.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def check_run(out_dir: Path, scopes: int, reference: dict | None) -> tuple[list[str], dict]:
    """Problems found in a finished run directory, and its artifact hashes.

    Every scope must pick k = K_TRUE and recover the planted labels exactly
    (ARI 1.0), every artifact on disk must hash to its manifest entry, and
    the hashes must equal ``reference`` (an earlier run's) when one is given.
    """
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        results, artifacts = manifest["results"], manifest["artifacts"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable manifest: {exc}"], {}
    problems = []
    if len(results) != scopes:
        problems.append(f"{len(results)} scopes, expected {scopes}")
    for scope, r in sorted(results.items()):
        if r.get("chosen_k") != K_TRUE:
            problems.append(f"{scope}: chosen_k {r.get('chosen_k')}, expected {K_TRUE}")
        if r.get("ari_vs_truth") != 1.0:
            problems.append(f"{scope}: ari_vs_truth {r.get('ari_vs_truth')}, expected 1.0")
    for rel, digest in sorted(artifacts.items()):
        path = out_dir / rel
        if not path.is_file() or sha256_file(path) != digest:
            problems.append(f"{rel}: bytes do not match the manifest hash")
    if reference is not None and artifacts != reference:
        problems.append("artifact hashes differ from the first run's")
    return problems, artifacts


def check_kselection(out_dir: Path, splits: dict) -> list[str]:
    """The replayed k-means/silhouette split must reproduce each scope's
    recorded kselection.json: every score, every inertia and the chosen k."""
    problems = []
    for scope, doc in sorted(splits.items()):
        try:
            recorded = json.loads((out_dir / scope / "kselection.json").read_text("utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{scope}: unreadable kselection.json: {exc}")
            continue
        if doc != recorded:
            problems.append(f"{scope}: split select_k does not reproduce kselection.json")
    return problems
