"""loomalg benchmark: closed-loop runs of generated `.loom` documents.

    python3 bench/run.py --workload window --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --record 0-19

One process runs one document at a time through the public path, `parse`
-> `execute` -> `report_json` (plus the document's `fmt` text), and
waits for each report before starting the next, as a `loomalg run`
caller does. No threads are started. Passes over the workload's
documents repeat while another pass fits in --seconds, at least
MIN_PASSES times. Times are normalized to a reference machine speed
(speed.py); raw medians are printed too. With --trace 0 the run reports
end-to-end metrics; with --trace 1 it runs a traced pass between two
untraced ones and reports per-layer metrics. Every output is checked
(`problems`), and the last line of stdout is one JSON object with the
result. --record runs one pass per workload for each listed seed and
stores the SHA-256 of every document's output in reference.json; runs on
those seeds compare against it. README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedMeter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 3
# with one pass, a quantile over a handful of documents would interpolate
# between different document families
MIN_PASSES = 2
SETUP_TIMEOUT_S = 60

# touches sympy factoring, simplicity, towers and the runner before timing
WARMUP = """field zeta 4;
algebra A = sl(2);
algebra k = unit();
auto id = identity(k);
tower T = loop(k, stage(id, 2), stage(id, 2, [[-1]], [1], zeta(4)));
type A;
kind T;
"""


@dataclass
class Outcome:
    seconds: float  # normalized
    output: str  # canonical JSON report, or the diagnostics of a bad parse
    formatted: str | None = None
    parsed: object = None
    exception: str | None = None


def run_document(text: str, meter: SpeedMeter) -> Outcome:
    from loomalg import dsl, runner

    started = meter.start()
    try:
        parsed = dsl.parse(text)
        if parsed.document is None:
            output = "".join(f"{d}\n" for d in parsed.diagnostics)
            formatted = None
        else:
            output = runner.report_json(runner.execute(parsed.document))
            formatted = dsl.format_document(parsed.document)
    except Exception as exc:  # a library defect; the gate counts it
        return Outcome(meter.stop(started)[1], "",
                       exception=f"{type(exc).__name__}: {exc}")
    return Outcome(meter.stop(started)[1], output, formatted, parsed)


def run_pass(docs, meter, tracer=None):
    """(raw seconds, normalized seconds, outcomes) of one pass."""
    started = meter.start()
    outcomes = []
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.doc = i
        outcomes.append(run_document(doc.text, meter))
    return (*meter.stop(started), outcomes)


def problems(doc, out: Outcome) -> str | None:
    """Seed-independent checks of one document's output; None when fine."""
    from loomalg import dsl

    if out.exception:
        return f"raised {out.exception}"
    if out.parsed.document is None:
        codes = sorted({d.code for d in out.parsed.errors})
        if doc.error in codes:
            return None
        return f"parse failed with {codes}, expected {doc.error}"
    report = json.loads(out.output)
    commands = report["commands"]
    if doc.error:
        codes = sorted({c["error"]["code"] for c in commands if "error" in c})
        if doc.error in codes:
            return None
        return f"command errors {codes}, expected {doc.error}"
    failed = [c["command"] for c in commands if not c["ok"]]
    if failed or not report["ok"]:
        return f"commands not ok: {failed}"
    for c in commands:
        if c["command"] == "canonical-form" and c["round_trip"] is not True:
            return "canonical form does not round-trip"
        if c["command"] == "centroid" and doc.lattice and not (
                c.get("lattice", {}).get("ok")):
            return "multiloop centroid has no ok lattice"
    kinds = [c["kind"] for c in commands if c["command"] == "kind"]
    if kinds != doc.kinds:
        return f"kinds {kinds}, expected {doc.kinds}"
    types = [(c["variety"], c["label"]) for c in commands
             if c["command"] == "type"]
    if types != doc.types:
        return f"types {types}, expected {doc.types}"
    again = dsl.parse(out.formatted)
    if (again.document != out.parsed.document
            or dsl.format_document(again.document) != out.formatted):
        return "fmt round trip changed the document"
    return None


def digest(out: Outcome) -> str:
    return hashlib.sha256(out.output.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def check_pass(docs, outcomes, expected) -> list:
    """One entry per document: a problem string, or None."""
    found = []
    for i, (doc, out) in enumerate(zip(docs, outcomes)):
        issue = problems(doc, out)
        if issue is None and expected is not None and (
                digest(out) != expected[i]):
            issue = "output differs from the recorded reference"
        found.append(None if issue is None else f"{doc.name}#{i}: {issue}")
    return found


def repeat_problems(first, later, what) -> list:
    """A repeated pass must reproduce the first pass byte for byte."""
    return [
        None if a.output == b.output and not b.exception
        else f"document #{i}: {what} output differs from the first pass"
        for i, (a, b) in enumerate(zip(first, later))
    ]


def setup_seconds(text: str) -> float:
    """Median normalized set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            input=text, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(docs, seconds, expected):
    """Untraced passes: (metrics, outcomes of every pass, failures, info)."""
    setup = setup_seconds(docs[0].text)
    with SpeedMeter() as meter:
        run_document(WARMUP, meter)
        started = meter.start()
        passes = []
        while True:
            passes.append(run_pass(docs, meter))
            elapsed = meter.stop(started)[0]
            fits = elapsed + passes[-1][0] <= seconds
            if len(passes) >= MIN_PASSES and not fits:
                break
    first = passes[0][2]
    failures = check_pass(docs, first, expected)
    for _, _, later in passes[1:]:
        failures += repeat_problems(first, later, "a repeated pass's")
    outcomes = [out for _, _, outs in passes for out in outs]
    times = [out.seconds for out in outcomes]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    metrics = {
        "wall_s": (statistics.median(p[1] for p in passes), "s"),
        "doc_s.p50": (statistics.median(times), "s"),
        "doc_s.p90": (p90, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw_wall = statistics.median(p[0] for p in passes)
    beyond = sum(1 for t in times if t > p90)
    info = (f"{len(passes)} passes of {len(docs)} documents, raw median "
            f"pass {raw_wall:.3f} s; {len(times)} document samples, "
            f"{beyond} beyond p90; set-up is the median of {SETUP_PROBES} "
            "fresh processes")
    return metrics, outcomes, failures, info


def measure_traced(docs, expected):
    """A traced pass between two untraced ones: per-layer metrics.  The
    overhead is taken against the mean of the untraced passes, so drift
    over the run does not bias it."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    with SpeedMeter() as meter:
        run_document(WARMUP, meter)
        _, before_wall, before = run_pass(docs, meter)
        layers.install(tracer)
        try:
            _, traced_wall, traced = run_pass(docs, meter, tracer)
        finally:
            tracer.uninstall()
        _, after_wall, after = run_pass(docs, meter)
        probes = layers.scalar_probes(docs, meter)
    failures = check_pass(docs, before, expected)
    failures += repeat_problems(before, traced, "the traced pass's")
    failures += repeat_problems(before, after, "a repeated pass's")
    metrics = layers.metrics(tracer)
    metrics.update(probes)
    base_wall = (before_wall + after_wall) / 2
    metrics["trace.overhead_frac"] = (
        (traced_wall - base_wall) / base_wall, "ratio")
    harness = []
    missing = layers.unreached(tracer)
    if missing:
        harness.append(f"traced boundaries recorded no span: {missing}")
    info = (f"untraced passes {before_wall:.3f} and {after_wall:.3f} s, "
            f"traced pass {traced_wall:.3f} s (normalized) over "
            f"{len(docs)} documents")
    return metrics, before + traced + after, failures, harness, info


def record(seeds) -> int:
    """Store reference digests for the given seeds, after checking them."""
    import workloads

    reference = load_reference()
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            docs = workloads.generate(workload, seed)
            with SpeedMeter() as meter:
                outcomes = run_pass(docs, meter)[2]
            bad = [i for i in check_pass(docs, outcomes, None) if i]
            if bad:
                print(f"{workload} seed {seed}: {bad}", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = [
                digest(out) for out in outcomes
            ]
            print(f"recorded {workload} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n", encoding="utf-8")
    return 0


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LO-HI",
                        help="record reference digests for these seeds")
    args = parser.parse_args(argv)
    if not (SRC / "loomalg" / "__init__.py").is_file():
        print(f"bench: no loomalg sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.record:
        return record(seed_range(args.record))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    docs = workloads.generate(args.workload, args.seed)
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    if expected is not None and len(expected) != len(docs):
        print("bench: reference.json does not match the generator",
              file=sys.stderr)
        return 2
    harness = []
    if args.trace:
        metrics, outcomes, failures, harness, info = measure_traced(
            docs, expected)
    else:
        metrics, outcomes, failures, info = measure(
            docs, args.seconds, expected)
    failures = [f for f in failures if f is not None]
    print(f"{args.workload} seed {args.seed}: {info}; reference digests "
          f"{'checked' if expected else 'not recorded for this seed'}")
    for issue in (harness + failures)[:20]:
        print(f"FAILED {issue}")
    result = {
        "correct": not failures and not harness,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
