"""One benchmark run: generate, set up, decide items, check, report.

A run executes one workload in one process, single-threaded, as a closed
loop with one caller: the next item starts when the previous one has
been decided.  The untraced run passes the bare ``IndexProvider`` and
yields the end-to-end metrics; the traced run wraps the layer boundaries
(see ``tracing``) and yields the per-layer metrics plus the tracing
overhead.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from npstruct import bracketer, coordination, datasets, ppattach, relsim
from npstruct.corpus import CorpusIndex, CountQuery, IndexProvider, IngestConfig, build_index
from npstruct.decisions import ATTACH_LABELS, BRACKET_LABELS, COORD_LABELS
from npstruct.morphology import inflections
from npstruct.ppattach import DETERMINERS

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# Set-ups per run.  A shared host's speed drifts by half over seconds,
# so the set-ups are spread over the run: set-up k of n is due when k/(n-1)
# of the untraced item window has passed.  Set-up and item times then
# sample the same stretch of the host's speed.  attach builds a
# 100k-sentence index (seconds), so it sets up fewer times.
SETUPS = {"bracket": 48, "attach": 4, "relsim": 16}
# Besides the set-ups' loads, the untraced run reloads the saved index
# between items, so that the reloads take this share of the item time.
# load_s is the mean over all loads; one per set-up is too few to steady
# it (on bracket a load takes about 30 ms).
RELOAD_SHARE = 0.25
# Items every run decides, however slow; the digest covers exactly these.
DIGEST_ITEMS = {"bracket": 2, "attach": 20, "relsim": 10}
# Items whose count queries the correctness gate checks (3 shapes each).
GATE_ITEMS = 4

PIPELINES = {
    "bracket": "bracketer.bracket",
    "coord": "coordination.coord_pipeline",
    "pp": "ppattach.pp_pipeline",
    "sat": "relsim.solve_sat",
    "semeval": "relsim.semeval_classify",
}
VOTERS = {
    "bracketer": bracketer.DEFAULT_VOTERS,
    "coordination": coordination.DEFAULT_COORD_VOTERS,
    "ppattach": ppattach.DEFAULT_PP_VOTERS,
}
SHAPES = ("unigram", "phrase", "gapped")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def load_oracle():
    """``naive_count`` and ``normalize_line`` from the test suite's conftest."""
    spec = importlib.util.spec_from_file_location("npstruct_count_oracle", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.naive_count, module.normalize_line


# --------------------------------------------------------------------- set-up


@dataclass
class Setup:
    build_s: float
    save_s: float
    load_s: float
    index_bytes: int
    corpus_bytes: int

    @property
    def setup_s(self) -> float:
        return self.build_s + self.save_s + self.load_s


def set_up(corpus: Path, tagged: bool, idx_path: Path) -> tuple[CorpusIndex, Setup]:
    """Build and save the index, drop it, and load it back as the CLI would."""
    t0 = perf_counter()
    built = build_index(corpus, IngestConfig(tagged=tagged))
    t1 = perf_counter()
    built.save(idx_path)
    t2 = perf_counter()
    del built
    t3 = perf_counter()
    index = CorpusIndex.load(idx_path)
    t4 = perf_counter()
    return index, Setup(t1 - t0, t2 - t1, t4 - t3, idx_path.stat().st_size, corpus.stat().st_size)


# ---------------------------------------------------------------- items


def make_runner(data: inputs.Inputs, index: CorpusIndex, provider):
    """Decide one item through the public pipeline entry points.

    Returns the item's final answer and its per-voter labels.
    """
    lex = datasets.default_lexicon()
    inv = datasets.default_inventory()

    def run(item: inputs.Item):
        if item.kind == "bracket":
            result = bracketer.bracket(item.args[0], provider, lex, inventory=inv)
        elif item.kind == "coord":
            result = coordination.coord_pipeline(item.args[0], provider, lex)
        elif item.kind == "pp":
            result = ppattach.pp_pipeline(item.args[0], provider, lex)
        elif item.kind == "sat":
            return relsim.solve_sat(*item.args, index, lex), ()
        else:
            return relsim.semeval_classify(item.args[0], data.semeval_train, lex, index=index), ()
        return result.final.label, tuple((name, d.label) for name, d in result.votes.items())

    return run


def valid_answer(item: inputs.Item, answer) -> bool:
    if item.kind == "bracket":
        return answer in BRACKET_LABELS
    if item.kind == "coord":
        return answer in COORD_LABELS
    if item.kind == "pp":
        return answer in ATTACH_LABELS
    if item.kind == "sat":
        return answer is None or 0 <= answer < len(item.args[1])
    return isinstance(answer, bool)


@dataclass
class Phase:
    """Outcome of deciding items in a closed loop."""

    answers: list = field(default_factory=list)  # (final, votes) or None when it raised
    elapsed: float = 0.0
    failed: int = 0

    @property
    def done(self) -> int:
        return len(self.answers)

    @property
    def items_per_s(self) -> float:
        return self.done / self.elapsed


def decide_one(items, run, phase: Phase, tracer: tracing.Tracer | None = None) -> None:
    """Decide the next item, cycling through ``items``, and add it to ``phase``."""
    i = phase.done
    item = items[i % len(items)]
    t0 = perf_counter()
    try:
        if tracer is None:
            answer = run(item)
        else:
            tracer.item = i
            with tracer.span("item"), tracer.span(PIPELINES[item.kind]):
                answer = run(item)
    except Exception:  # a failing item is counted, and the loop goes on
        if not phase.failed:
            traceback.print_exc(file=sys.stderr)
        phase.failed += 1
        answer = None
    phase.elapsed += perf_counter() - t0
    phase.answers.append(answer)


def decide(items, run, window: float, at_least: int, tracer: tracing.Tracer | None = None) -> Phase:
    """Decide items in order until ``window`` seconds of item time and
    ``at_least`` items have passed."""
    phase = Phase()
    while phase.elapsed < window or phase.done < at_least:
        decide_one(items, run, phase, tracer)
    return phase


def digest(items, phase: Phase, n: int) -> str:
    h = hashlib.sha256()
    for i in range(n):
        h.update(f"{items[i % len(items)].key}\t{phase.answers[i]!r}\n".encode("utf-8"))
    return h.hexdigest()[:16]


# ------------------------------------------------------------ correctness


def gate_queries(data: inputs.Inputs, lex) -> list[CountQuery]:
    """Count queries of every shape built from the first items' words."""
    queries = [CountQuery.of("the")]
    for item in data.items[:GATE_ITEMS]:
        if item.kind == "bracket":
            i1, i2, i3 = (inflections(lex, w) for w in item.args[0].words())
            queries += [
                CountQuery.of(i2),
                CountQuery.of(item.args[0].w1, i2, i3),
                CountQuery.gapped([i1], [i3], 1, 3),
            ]
        elif item.kind == "coord":
            q = item.args[0]
            ih = inflections(lex, q.h)
            queries += [
                CountQuery.of(ih),
                CountQuery.of(q.n1, q.c, q.n2, ih),
                CountQuery.gapped([q.n1], [ih], 1, 3),
            ]
        elif item.kind == "pp":
            q = item.args[0]
            iv, i1, i2 = (inflections(lex, w) for w in (q.v, q.n1, q.n2))
            queries += [
                CountQuery.of(iv),
                CountQuery.of(i1, q.p, DETERMINERS, i2),
                CountQuery.gapped([q.p, i2], [iv, i1], 1, 3),
            ]
        else:
            a, b = item.args[0] if item.kind == "sat" else (item.args[0].entity_head(1), item.args[0].entity_head(2))
            ia, ib = inflections(lex, a), inflections(lex, b)
            queries += [
                CountQuery.of(ia),
                CountQuery.of(DETERMINERS, ia),
                CountQuery.gapped([ia], [ib], 1, 4),
            ]
    return queries


def check_counts(provider, sentences: list[list[str]], queries: list[CountQuery], naive_count) -> list[str]:
    """Mismatches between the provider and the independent oracle.

    The oracle scans only the sentences holding some alternative of every
    query position, since no other sentence can match; on a 100k-sentence
    corpus this keeps the check to seconds.
    """
    candidates: list[list[list[str]]] = [[] for _ in queries]
    for toks in sentences:
        present = set(toks)
        for q, found in zip(queries, candidates):
            if all(not alts.isdisjoint(present) for alts in q.phrase):
                found.append(toks)
    errors = []
    for q, found in zip(queries, candidates):
        got, want = provider.count(q), naive_count(found, q)
        if got != want:
            errors.append(f"{q.canonical()}: index {got}, oracle {want}")
    return errors


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it, and its value.

    With fewer than twenty samples none qualifies and the median stands in.
    """
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - pct / 100) >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50)


def layer_metrics(data: inputs.Inputs, phase: Phase, tracer: tracing.Tracer, setups: list[Setup],
                  overhead: float, notes: list[str]) -> dict[str, float]:
    """Per-layer metrics of a traced run."""
    m = dict.fromkeys(metric_units("per_layer"), 0.0)
    m.update({
        "corpus.build_s": statistics.median(s.build_s for s in setups),
        "corpus.save_s": statistics.median(s.save_s for s in setups),
        "corpus.load_s": statistics.median(s.load_s for s in setups),
        "corpus.index_bytes": setups[0].index_bytes,
        "trace.overhead_ratio": overhead,
    })
    n = phase.done
    spans = tracer.spans
    totals: dict[str, list[int]] = {}  # "op.shape" -> [calls, ns, empty]
    by_span: dict[int, list[int]] = {}  # span id -> [count calls]
    for (sid, op, shape), (calls, ns, empty) in tracer.calls.items():
        for key in (op, f"{op}.{shape}"):
            cell = totals.setdefault(key, [0, 0, 0])
            cell[0] += calls
            cell[1] += ns
            cell[2] += empty
        if op == "count":
            by_span[sid] = by_span.get(sid, 0) + calls
    count = totals.get("count", [0, 0, 0])
    m["corpus.count.calls"] = count[0] / n
    m["corpus.count.ms"] = count[1] / 1e6 / n
    for shape in SHAPES:
        calls, ns, _ = totals.get(f"count.{shape}", [0, 0, 0])
        m[f"corpus.count.{shape}.calls"] = calls / n
        m[f"corpus.count.{shape}.ms"] = ns / 1e6 / n
    if count[0]:
        m["corpus.count.zero_ratio"] = count[2] / count[0]
        m["corpus.count.distinct_ratio"] = len(tracer.distinct) / count[0]
    snip = totals.get("snippets", [0, 0, 0])
    m["corpus.snippets.calls"] = snip[0] / n
    m["corpus.snippets.ms"] = snip[1] / 1e6 / n

    durations: dict[str, list[float]] = {}
    voter_calls: dict[str, int] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.ns / 1e6)
        if ".voter." in s.name:
            voter_calls[s.name] = voter_calls.get(s.name, 0) + by_span.get(s.id, 0)
    for kind, name in PIPELINES.items():
        ms = durations.get(name)
        if not ms:
            continue
        m[f"{name}.ms_p50"] = percentile(ms, 50)
        if f"{name}.ms_tail" in m:
            pct, value = tail(ms)
            m[f"{name}.ms_tail"] = value
            notes.append(f"{name}.ms_tail is p{pct:g} of {len(ms)} samples")
    bracket_items = sum(1 for i in range(n) if data.items[i % len(data.items)].kind == "bracket")
    if bracket_items:
        m["paraphrase.queries_per_triple"] = voter_calls.get("bracketer.voter.paraphrases", 0) / bracket_items

    layer_of = {"bracket": "bracketer", "coord": "coordination", "pp": "ppattach"}
    abstained: dict[str, int] = {}
    for i, answer in enumerate(phase.answers):
        kind = data.items[i % len(data.items)].kind
        for voter, label in (answer[1] if answer else ()):
            name = f"{layer_of[kind]}.voter.{voter}"
            abstained[name] = abstained.get(name, 0) + (label == "abstain")
    for layer, voters in VOTERS.items():
        for voter in voters:
            name = f"{layer}.voter.{voter}"
            ms = durations.get(name)
            if not ms:
                continue
            m[f"{name}.ms"] = statistics.fmean(ms)
            m[f"{name}.count_calls"] = voter_calls.get(name, 0) / len(ms)
            m[f"{name}.abstain_ratio"] = abstained.get(name, 0) / len(ms)
    features = durations.get(tracing.PAIR_FEATURES, [])
    m["relsim.extract_pair_features.calls"] = len(features) / n
    m["relsim.extract_pair_features.ms"] = sum(features) / n
    unlisted = sorted(set(m) - set(metric_units("per_layer")))
    if unlisted:
        notes.append(f"not reported, not listed in BENCHMARK.json: {' '.join(unlisted)}")
    return {name: value for name, value in m.items() if name not in unlisted}


def span_summary(tracer: tracing.Tracer) -> list[str]:
    """Per span name: spans, total and self milliseconds."""
    agg: dict[str, list[float]] = {}
    for s, self_ns in zip(tracer.spans, tracer.self_ns()):
        cell = agg.setdefault(s.name, [0, 0.0, 0.0])
        cell[0] += 1
        cell[1] += s.ns / 1e6
        cell[2] += self_ns / 1e6
    return [
        f"span {name} n={n} total_ms={total:.1f} self_ms={own:.1f}"
        for name, (n, total, own) in sorted(agg.items(), key=lambda kv: -kv[1][1])
    ]


# -------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool, sentences: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the report lines.

    The index is set up ``SETUPS`` times, each time from scratch, and
    items are decided on the latest index.  Untraced, items are decided
    for ``seconds`` of item time; the set-ups are spread over that window,
    and between items the saved index is also reloaded for
    ``RELOAD_SHARE`` of the item time.  Traced, all set-ups come first;
    items are then decided traced for half of ``seconds``, and the same
    items again untraced, for the overhead.
    """
    data = inputs.generate(workload, seed, sentences)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK))
    corpus = workdir / "corpus.txt"
    idx_path = workdir / "corpus.idx"
    setups: list[Setup] = []
    reloads: list[float] = []
    at_least = DIGEST_ITEMS[workload]
    n = SETUPS[workload]

    def due(share: float) -> str | None:
        """What is due once ``share`` of the item window has passed."""
        if len(setups) < 1 + int((n - 1) * share):
            return "set-up"
        if sum(reloads) < RELOAD_SHARE * share * seconds:
            return "reload"
        return None

    def next_index(what: str) -> CorpusIndex:
        gc.collect()  # no garbage of earlier work is collected inside the timing
        if what == "reload":
            t0 = perf_counter()
            index = CorpusIndex.load(idx_path)
            reloads.append(perf_counter() - t0)
            return index
        index, setup = set_up(corpus, data.tagged, idx_path)
        setups.append(setup)
        return index

    try:
        data.write_corpus(corpus)
        if trace:
            while len(setups) < n:
                index = None  # one index in memory at a time
                index = next_index("set-up")
            provider = IndexProvider(index)
            run_item = make_runner(data, index, provider)
            tracer = tracing.Tracer()
            traced = make_runner(data, index, tracing.TracingProvider(provider, tracer))
            with tracing.patched(tracer):
                phase = decide(data.items, traced, seconds / 2, at_least, tracer)
            plain = decide(data.items, run_item, 0, phase.done)
        else:
            phase = Phase()
            while True:
                share = min(1.0, phase.elapsed / seconds)
                while what := due(share):
                    index = provider = run_item = None  # one index in memory at a time
                    index = next_index(what)
                    provider = IndexProvider(index)
                    run_item = make_runner(data, index, provider)
                if phase.elapsed >= seconds and phase.done >= at_least:
                    break
                decide_one(data.items, run_item, phase)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = []
    for item, answer in zip((data.items[i % len(data.items)] for i in range(phase.done)), phase.answers):
        if answer is not None and not valid_answer(item, answer[0]):
            errors.append(f"item {item.key!r}: invalid answer {answer[0]!r}")
    if phase.failed:
        errors.append(f"{phase.failed} of {phase.done} items raised")
    naive_count, normalize_line = load_oracle()
    sentences_tokens = [toks for toks in (normalize_line(s) for s in data.lines) if toks]
    queries = gate_queries(data, datasets.default_lexicon())
    errors += check_counts(provider, sentences_tokens, queries, naive_count)

    lines = [f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)} "
             f"set-ups {len(setups)} reloads {len(reloads)}"]
    vocab = len({t for toks in sentences_tokens for t in toks})
    lines.append(
        f"corpus sentences {len(sentences_tokens)} tokens {sum(map(len, sentences_tokens))} "
        f"bytes {setups[0].corpus_bytes} vocabulary {vocab} items {len(data.items)}"
    )
    lines.append(f"gate checked {len(queries)} count queries against the oracle")
    item_digest = digest(data.items, phase, at_least)
    lines.append(f"digest {item_digest} over the first {at_least} items")
    if trace and digest(data.items, plain, at_least) != item_digest:
        errors.append("traced and untraced runs decided differently")
    lines += [f"error: {e}" for e in errors]
    lines.append(f"attempted {phase.done} failed {phase.failed} item_error_rate {phase.failed / phase.done:.4f} ratio")
    if trace:
        metrics = layer_metrics(data, phase, tracer, setups, phase.items_per_s / plain.items_per_s, lines)
        units = metric_units("per_layer")
        lines += span_summary(tracer)
        tracer.write(WORK / "traces" / f"{workload}-seed{seed}.jsonl")
    else:
        metrics = {
            "items_per_s": phase.items_per_s,
            "setup_s": statistics.fmean(s.setup_s for s in setups),
            "load_s": statistics.fmean([s.load_s for s in setups] + reloads),
            "index_bytes_per_corpus_byte": setups[0].index_bytes / setups[0].corpus_bytes,
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_units("end_to_end")
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {
        "correct": not errors,
        "attempted": phase.done,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines
