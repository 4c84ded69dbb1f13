"""Benchmark worker: sweeps one workload's invocations through ``warpquot.cli.main``.

Run by ``bench/run.py`` in a process of its own, single-threaded, with the
inputs already generated.  Prints one JSON object as its last stdout line.

    python3 bench/worker.py --manifest M --reports DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import inputs as inp_mod  # noqa: E402
import tracer as tr  # noqa: E402
from warpquot import cli  # noqa: E402

MIN_SWEEPS = 2
# commands summed into an end-to-end metric, and those that only the
# quotient workload runs, summed into per-layer "cmd." metrics
TIMED_COMMANDS = ("classify", "curvature", "transport", "verify-all")
QUOTIENT_ONLY = ("holonomy", "intersections", "decompose")


class Sweeper:
    """Runs sweeps and gates every invocation against the first sweep's reports."""

    def __init__(self, invs: list[tuple[dict, str, list[str]]], report_dir: Path):
        self.invs = invs
        self.report_dir = report_dir
        report_dir.mkdir(parents=True, exist_ok=True)
        self.validator = gate.load_validator(ROOT)
        self.first_texts: list | None = None
        self.budget_use_max = 0.0
        self.attempted = 0
        self.failures: list[dict] = []
        self.raw_times: list[list[float]] = []
        self.probes: list[list[float]] = []

    def sweep(self) -> list[float]:
        """One pass over every invocation; returns each one's time at the
        reference speed (see speed.py) and keeps the raw times."""
        paths = [self.report_dir / f"{k}.json" for k in range(len(self.invs))]
        for p in paths:
            p.unlink(missing_ok=True)
        raw, probes, outcomes = [], [speed.probe()], []
        for (inp, cmd, argv), path in zip(self.invs, paths):
            err = io.StringIO()
            s = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv + ["--out", str(path)])
            except Exception as exc:  # an escaped error is a failed invocation
                rc, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            raw.append(time.perf_counter() - s)
            probes.append(speed.probe())
            outcomes.append((rc, err.getvalue().strip()))
        self._gate(paths, outcomes)
        self.raw_times.append(raw)
        self.probes.append(probes)
        return speed.scaled(raw, probes)

    def _gate(self, paths, outcomes) -> None:
        texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in paths]
        first = self.first_texts is None
        if first:
            self.first_texts = texts
        for k, ((inp, cmd, _), (rc, err), text) in enumerate(zip(self.invs, outcomes, texts)):
            self.attempted += 1
            reasons = gate.check(self.validator, cmd, inp["expect"], rc, text)
            if rc != 0 and err:
                reasons.append(err.splitlines()[-1])
            if not first and text != self.first_texts[k]:
                reasons.append("report differs from the first sweep's")
            if reasons:
                self.failures.append({"input": inp["label"], "command": cmd,
                                      "reasons": reasons})
            elif first:
                uses = gate.budget_uses(json.loads(text))
                self.budget_use_max = max([self.budget_use_max] + uses)

    def command_sums(self, times: list[float], commands=TIMED_COMMANDS) -> dict:
        sums = dict.fromkeys(commands, 0.0)
        for (_, cmd, _), t in zip(self.invs, times):
            if cmd in sums:
                sums[cmd] += t
        return sums


def timed_sweeps(sw: Sweeper, seconds: float) -> list[list[float]]:
    sw.sweep()  # untimed warm-up
    runs = []
    t0 = time.perf_counter()
    while len(runs) < MIN_SWEEPS or time.perf_counter() - t0 < seconds:
        runs.append(sw.sweep())
    return runs


def end_to_end(sw: Sweeper, seconds: float) -> dict:
    runs = timed_sweeps(sw, seconds)
    med = statistics.median
    out = {"sweep_s": med(sum(ts) for ts in runs)}
    sums = [sw.command_sums(ts) for ts in runs]
    for cmd in TIMED_COMMANDS:
        out[f"{cmd.replace('-', '_')}_s"] = med(s[cmd] for s in sums)
    out["slowest_invocation_s"] = med(max(ts) for ts in runs)
    out["pass_ratio"] = 1.0 - len(sw.failures) / sw.attempted
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def per_layer(sw: Sweeper, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced sweeps; per-layer metrics are medians
    over the traced sweeps, and the last traced sweep's spans are saved."""
    tracer = tr.Tracer()
    sw.sweep()  # untimed warm-up
    plain, traced, layers = [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(sw.sweep())
        tracer.clear()
        tracer.install()
        try:
            traced.append(sum(sw.sweep()))
        finally:
            tracer.uninstall()
        table = tr.span_table(tracer)
        layers.append(tr.layer_metrics(table))
    np.savez(spans_path, **table)
    med = statistics.median
    out = {k: med(m[k] for m in layers) for k in layers[0]}
    sums = [sw.command_sums(ts, QUOTIENT_ONLY) for ts in plain]
    for cmd in QUOTIENT_ONLY:
        out[f"cmd.{cmd}_s"] = med(s[cmd] for s in sums)
    out["report.budget_use_max"] = sw.budget_use_max
    out["trace.overhead_ratio"] = med(traced) / med(sum(ts) for ts in plain)
    return out


def known_defect_runs(inputs: list[dict], report_dir: Path) -> list[dict]:
    """Run each known-defect invocation once, untimed, through the same gate,
    and say for each whether the defect still shows."""
    if not inputs:
        return []
    sw = Sweeper(inp_mod.invocations(inputs), report_dir)
    sw.sweep()
    failed = {(f["input"], f["command"]): f["reasons"] for f in sw.failures}
    return [{"input": inp["label"], "command": cmd, "defect": inp["known_defect"],
             "reproduced": (inp["label"], cmd) in failed,
             "reasons": failed.get((inp["label"], cmd), [])}
            for inp, cmd, _ in sw.invs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--manifest", type=Path, required=True)
    ap.add_argument("--reports", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args(argv)
    inputs = json.loads(ns.manifest.read_text(encoding="utf-8"))
    sw = Sweeper(inp_mod.invocations(inp_mod.timed_mix(inputs)), ns.reports)
    if ns.trace:
        metrics = per_layer(sw, ns.seconds, ns.reports.parent / "spans.npz")
    else:
        metrics = end_to_end(sw, ns.seconds)
    known = known_defect_runs(inp_mod.known_defects(inputs), ns.reports / "known-defects")
    if ns.trace:
        metrics["gate.known_defect_failures"] = sum(k["reproduced"] for k in known)
    print(json.dumps({"attempted": sw.attempted, "failed": len(sw.failures),
                      "failures": sw.failures, "known_defects": known, "metrics": metrics,
                      "raw_times": sw.raw_times, "probes": sw.probes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
