#!/usr/bin/env python3
"""Structural invariant linter for the authdb tree.

Six rules, each protecting a contract the compiler cannot see:

* ``epoch-pin`` — read paths must reach per-shard snapshot state only
  through a pinned ``EpochDescriptor``. The read paths are the ``const``
  member functions of ``ShardedQueryServer`` and every ``BatchEngine::``
  member, in ``src/server/sharded_query_server.cc`` and
  ``src/server/batch_exec.cc``. Concretely: no ``builder`` access, no
  ``Freeze``/``InstallDescriptor*``/``PublishEpoch*``/``AddSummary``
  calls, no ``ApplyUpdate``/``ApplyToShardDeferred`` calls, no
  ``atomic_exchange``/``atomic_store`` on the descriptor head, no raw
  ``current_`` outside ``PinCurrentEpoch``, and no ``shards_[...]``
  indexing at all (``srv_.shards_[...]`` included). This is the
  wait-free-reader contract of the epoch-pinned COW design: a reader
  that touched builder state would observe a half-built next epoch.

* ``raw-mutex`` — no naked ``std::mutex`` / ``std::lock_guard`` /
  ``std::unique_lock`` / ``std::condition_variable`` (or their include
  lines) outside ``src/common/thread_annotations.h``. All locking goes
  through the annotated ``Mutex`` / ``MutexLock`` / ``CondVar`` wrappers
  so clang's ``-Wthread-safety`` analysis sees every acquisition.

* ``test-labels`` — every test suite registered in
  ``tests/CMakeLists.txt`` carries at least one CTest label. The CI TSan
  and smoke lanes select by label; an unlabeled suite silently drops out
  of every filtered lane.

* ``bench-json`` — every ``bench/bench_*.cc`` drives its measurement
  through the ``BenchRun`` harness (which implements ``--smoke`` and
  ``--json``) or google-benchmark (``--benchmark_format=json``). The CI
  bench gate consumes those JSON artifacts; a bench without them is
  invisible to the regression gate.

* ``metrics-doc`` — every dotted counter name quoted in
  ``src/server/metrics.cc`` (the stable ``Flatten()`` contract) must
  appear in the README metrics table. The names are a published API;
  an undocumented one is unfindable and gets renamed by accident.

* ``crypto-batch`` — the crypto hot-path files (``core/chain.h``,
  ``core/epoch_snapshot.cc``, ``core/sigcache.cc``,
  ``core/verifier.cc``, ``server/batch_exec.cc``) must not fold
  digests one message at a time where a batched variant exists:
  single-message ``Sha1::Hash``/``Sha256::Hash`` (use
  ``Sha*::HashMany``) and per-record ``.Digest()`` (use
  ``RecordDigestMany``, or the barrier's ``SnapshotItem::digest``).
  One stray scalar call in a per-tuple loop quietly serializes what
  the SIMD front end batches — exactly the regression the
  crypto-bench speedup gate exists to catch, caught here before it
  costs a bench run. Genuinely single-shot sites (a lone join witness,
  one boundary record) take the allow-escape with a comment saying why
  the batch cannot apply.

Escape hatch: a violating line is accepted when it (or the line directly
above it) carries ``// authdb-lint: allow(<rule>)`` — use sparingly and
say why in the surrounding comment.

Usage:
    lint_invariants.py [--root DIR]   # lint the tree; findings to stdout
    lint_invariants.py --self-test    # seeded-violation check of the rules

Exit status: 0 = clean / self-test ok, 1 = findings / self-test failure,
2 = usage.
"""

import argparse
import pathlib
import re
import sys
from collections import namedtuple

Finding = namedtuple("Finding", "rule path line msg")

ALLOW_RE = re.compile(r"authdb-lint:\s*allow\(([a-z-]+)\)")

# --------------------------------------------------------------------------
# Shared helpers


def _strip_line_comment(line):
    return line.split("//", 1)[0]


def _allowed(lines, idx, rule):
    """True when line idx (0-based) or the one above carries an allow."""
    for i in (idx, idx - 1):
        if 0 <= i < len(lines):
            m = ALLOW_RE.search(lines[i])
            if m and m.group(1) == rule:
                return True
    return False


def _line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Rule: raw-mutex

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock"
    r"|shared_lock|condition_variable|condition_variable_any)\b")
RAW_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(mutex|shared_mutex|condition_variable)>")


def check_raw_mutex(relpath, text):
    findings = []
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        code = _strip_line_comment(line)
        m = RAW_MUTEX_RE.search(code) or RAW_INCLUDE_RE.search(code)
        if m and not _allowed(lines, idx, "raw-mutex"):
            findings.append(Finding(
                "raw-mutex", relpath, idx + 1,
                "naked %s — use the annotated wrappers from "
                "common/thread_annotations.h" % m.group(0).strip()))
    return findings


# --------------------------------------------------------------------------
# Rule: epoch-pin

# Forbidden inside read paths (const member functions of
# ShardedQueryServer, every BatchEngine member): each pattern is a route
# to snapshot state that bypasses the pinned descriptor, or a mutation of
# the descriptor head.
EPOCH_PIN_FORBIDDEN = [
    (re.compile(r"\bbuilder\b"),
     "touches a ShardVersionBuilder (next-epoch state) from a read path"),
    (re.compile(r"\bFreeze\w*\s*\("),
     "freezes a snapshot from a read path"),
    (re.compile(r"\b(InstallDescriptor\w*|PublishEpoch\w*|AddSummary)\s*\("),
     "publishes a descriptor from a read path"),
    (re.compile(r"\b(ApplyUpdate|ApplyToShardDeferred)\s*\("),
     "applies an update to next-epoch state from a read path"),
    (re.compile(r"\batomic_(exchange|store)\b"),
     "mutates the descriptor head from a read path"),
]
SHARDS_ACCESS_RE = re.compile(r"shards_\s*\[")
MEMBER_DEF_RE = re.compile(r"\b(ShardedQueryServer|BatchEngine)::(\w+)\s*\(")


def _match_forward(text, start, open_ch, close_ch):
    """Offset one past the close_ch matching the open_ch at text[start]."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _read_path_bodies(text):
    """Yield (name, body_start_offset, body_text) for each read-path member
    function definition in `text` (comments already stripped): the const
    members of ShardedQueryServer and every member of BatchEngine."""
    for m in MEMBER_DEF_RE.finditer(text):
        paren_open = text.index("(", m.end() - 1)
        paren_close = _match_forward(text, paren_open, "(", ")")
        if paren_close < 0:
            continue
        brace = text.find("{", paren_close)
        semi = text.find(";", paren_close)
        if brace < 0 or (0 <= semi < brace):
            continue  # declaration or out-of-line data — no body here
        # Qualifier region ends at a ctor's initializer-list colon, so a
        # `const` inside an initializer expression is not a cv-qualifier.
        qualifiers = text[paren_close:brace].split(":", 1)[0]
        body_end = _match_forward(text, brace, "{", "}")
        if body_end < 0:
            continue
        if m.group(1) == "BatchEngine" or re.search(r"\bconst\b",
                                                    qualifiers):
            yield m.group(2), brace, text[brace:body_end]


def check_epoch_pin(relpath, text):
    findings = []
    orig_lines = text.splitlines()
    stripped = "\n".join(_strip_line_comment(ln) for ln in orig_lines)
    for name, body_start, body in _read_path_bodies(stripped):
        for pat, why in EPOCH_PIN_FORBIDDEN:
            for hit in pat.finditer(body):
                line = _line_of(stripped, body_start + hit.start())
                if not _allowed(orig_lines, line - 1, "epoch-pin"):
                    findings.append(Finding(
                        "epoch-pin", relpath, line,
                        "%s(): %s" % (name, why)))
        if name == "PinCurrentEpoch":
            continue  # the one blessed accessor of the descriptor head
        for hit in re.finditer(r"\bcurrent_\b", body):
            line = _line_of(stripped, body_start + hit.start())
            if not _allowed(orig_lines, line - 1, "epoch-pin"):
                findings.append(Finding(
                    "epoch-pin", relpath, line,
                    "%s(): raw current_ access — pin the epoch via "
                    "PinCurrentEpoch() instead" % name))
        for hit in SHARDS_ACCESS_RE.finditer(body):
            line = _line_of(stripped, body_start + hit.start())
            if not _allowed(orig_lines, line - 1, "epoch-pin"):
                findings.append(Finding(
                    "epoch-pin", relpath, line,
                    "%s(): indexes shards_ (writer-side shard state) — "
                    "read snapshot state from the pinned EpochDescriptor"
                    % name))
    return findings


# --------------------------------------------------------------------------
# Rule: test-labels

ADD_TEST_RE = re.compile(r"add_test\s*\(\s*NAME\s+([A-Za-z0-9_]+)")
SUITES_RE = re.compile(r"set\s*\(\s*AUTHDB_TEST_SUITES\b([^)]*)\)", re.S)
PROPS_RE = re.compile(r"set_tests_properties\s*\(([^)]*)\)", re.S)


def check_test_labels(relpath, text):
    code = "\n".join(ln.split("#", 1)[0] for ln in text.splitlines())
    tests = []
    m = SUITES_RE.search(code)
    if m:
        tests.extend(m.group(1).split())
    tests.extend(n for n in ADD_TEST_RE.findall(code) if not n.startswith("$"))

    labeled = set()
    for call in PROPS_RE.findall(code):
        tokens = call.split()
        if "PROPERTIES" not in tokens or "LABELS" not in tokens:
            continue
        names = tokens[:tokens.index("PROPERTIES")]
        li = tokens.index("LABELS")
        has_value = li + 1 < len(tokens) and tokens[li + 1].strip('"')
        if has_value:
            labeled.update(names)

    findings = []
    for name in tests:
        if name not in labeled:
            findings.append(Finding(
                "test-labels", relpath, 1,
                "suite %s has no CTest LABELS — it drops out of every "
                "label-filtered CI lane (TSan, smoke)" % name))
    return findings


# --------------------------------------------------------------------------
# Rule: bench-json

BENCH_HARNESS_RE = re.compile(
    r"\bBenchRun\b|\bbenchmark::Initialize\b|\bBENCHMARK_MAIN\b")


def check_bench_json(files):
    """`files` is a list of (relpath, text) for bench/bench_*.cc."""
    findings = []
    for relpath, text in files:
        if not BENCH_HARNESS_RE.search(text):
            findings.append(Finding(
                "bench-json", relpath, 1,
                "bench drives neither BenchRun nor google-benchmark — it "
                "emits no --json artifact and the CI bench gate cannot "
                "see it"))
    return findings


# --------------------------------------------------------------------------
# Rule: metrics-doc

METRIC_NAME_RE = re.compile(
    r"\"((?:exec|admission|epoch|ingest)\.[a-z0-9_.]*)\"")


def check_metrics_doc(relpath, metrics_cc_text, readme_text):
    findings = []
    lines = metrics_cc_text.splitlines()
    for idx, line in enumerate(lines):
        code = _strip_line_comment(line)
        for m in METRIC_NAME_RE.finditer(code):
            name = m.group(1).rstrip(".")  # per-shard prefixes end with '.'
            if name in readme_text:
                continue
            if not _allowed(lines, idx, "metrics-doc"):
                findings.append(Finding(
                    "metrics-doc", relpath, idx + 1,
                    "metric %r is not documented in the README metrics "
                    "table — Flatten() names are a stable, published "
                    "contract" % name))
    return findings


# --------------------------------------------------------------------------
# Rule: crypto-batch

CRYPTO_BATCH_FILES = (
    "src/core/chain.h",
    "src/core/epoch_snapshot.cc",
    "src/core/sigcache.cc",
    "src/core/verifier.cc",
    "src/server/batch_exec.cc",
)
# Each pattern is a scalar crypto call with a batched sibling.
CRYPTO_BATCH_PATTERNS = [
    (re.compile(r"\bSha(?:1|256)::Hash\s*\("),
     "single-message Sha*::Hash on a crypto hot path — batch through "
     "Sha1::HashMany / Sha256::HashMany"),
    (re.compile(r"\.Digest\s*\(\s*\)"),
     "per-record Record::Digest on a crypto hot path — batch through "
     "RecordDigestMany"),
]


def check_crypto_batch(relpath, text):
    findings = []
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        code = _strip_line_comment(line)
        for pat, msg in CRYPTO_BATCH_PATTERNS:
            if pat.search(code) and not _allowed(lines, idx, "crypto-batch"):
                findings.append(
                    Finding("crypto-batch", relpath, idx + 1, msg))
    return findings


# --------------------------------------------------------------------------
# Driver

CXX_DIRS = ("src", "tests", "bench", "examples")
RAW_MUTEX_EXEMPT = "src/common/thread_annotations.h"


def lint_tree(root):
    root = pathlib.Path(root)
    findings = []

    for d in CXX_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel == RAW_MUTEX_EXEMPT:
                continue
            findings.extend(check_raw_mutex(rel, path.read_text()))

    # The read path spans two translation units: the descriptor-global
    # helpers and the batched execution engine (const members of
    # ShardedQueryServer in both, plus every BatchEngine member).
    for name in ("src/server/sharded_query_server.cc",
                 "src/server/batch_exec.cc"):
        server_cc = root / name
        if server_cc.is_file():
            findings.extend(check_epoch_pin(
                server_cc.relative_to(root).as_posix(),
                server_cc.read_text()))

    tests_cmake = root / "tests/CMakeLists.txt"
    if tests_cmake.is_file():
        findings.extend(check_test_labels(
            tests_cmake.relative_to(root).as_posix(),
            tests_cmake.read_text()))

    bench_files = [(p.relative_to(root).as_posix(), p.read_text())
                   for p in sorted((root / "bench").glob("bench_*.cc"))]
    findings.extend(check_bench_json(bench_files))

    metrics_cc = root / "src/server/metrics.cc"
    readme = root / "README.md"
    if metrics_cc.is_file() and readme.is_file():
        findings.extend(check_metrics_doc(
            metrics_cc.relative_to(root).as_posix(),
            metrics_cc.read_text(), readme.read_text()))

    for name in CRYPTO_BATCH_FILES:
        p = root / name
        if p.is_file():
            findings.extend(check_crypto_batch(
                p.relative_to(root).as_posix(), p.read_text()))
    return findings


# --------------------------------------------------------------------------
# Self-test: seed one violation per rule; every seed must be caught, and
# the allow-escape must suppress.

SELFTEST_RAW_MUTEX = """\
#include <mutex>
std::mutex mu;
void f() { std::lock_guard<std::mutex> lock(mu); }
"""

SELFTEST_RAW_MUTEX_ALLOWED = """\
// authdb-lint: allow(raw-mutex)
std::mutex interop_with_external_api;
"""

SELFTEST_EPOCH_PIN = """\
Result<SelectionAnswer> ShardedQueryServer::Select(int64_t lo,
                                                   int64_t hi) const {
  Shard& sh = *shards_[0];
  sh.builder.Apply(piece);
  std::shared_ptr<const EpochDescriptor> d = std::atomic_load(&current_);
  AddSummary(UpdateSummary());
  return FreezeShard(0);
}
void ShardedQueryServer::ApplyUpdate(const SignedRecordUpdate& msg) {
  shards_[0]->builder.Apply(msg);  // write path: must NOT be flagged
}
void ShardedQueryServer::AddSummary(UpdateSummary summary) {
  PublishEpochLocked(summary, FreezeAllShards(), {});  // write path: silent
}
"""

SELFTEST_EPOCH_PIN_BATCH = """\
void BatchEngine::Visit(size_t shard, const std::vector<size_t>& rr) {
  const EpochSnapshot& snap = *desc_.shards[shard];  // pinned: silent
  auto slot = std::atomic_load(&srv_.shards_[shard]->cache_slot);
  // authdb-lint: allow(epoch-pin)
  size_t hint = srv_.shards_[shard]->size_hint;  // escaped: silent
}
Status BatchEngine::ValidateAndPlan(const Query& q, size_t p) {
  srv_.shards_[0]->builder.Apply(piece);
  srv_.ApplyToShardDeferred(0, piece);
}
"""

SELFTEST_TEST_LABELS = """\
set(AUTHDB_TEST_SUITES
    labeled_test
    naked_test
)
add_test(NAME extra_check COMMAND extra_check)
set_tests_properties(labeled_test PROPERTIES LABELS "core")
"""

SELFTEST_BENCH = [
    ("bench/bench_good.cc", "int main() { BenchRun run(...); }"),
    ("bench/bench_micro.cc", "int main() { benchmark::Initialize(...); }"),
    ("bench/bench_naked.cc", "int main() { printf(\"fast\\n\"); }"),
]

SELFTEST_METRICS_DOC_CC = """\
    {"exec.batches", &Exec::batches, kSum},
    {"exec.undocumented_thing", &Exec::undocumented_thing, kSum},
    {"exec.batch.shard_busy_us.", &ShardBusy::visit_us, kSum},
"""
SELFTEST_METRICS_DOC_README = """\
| `exec.batches` | ExecuteBatch calls served |
| `exec.batch.shard_busy_us.<s>` | per-shard busy time |
"""

SELFTEST_CRYPTO_BATCH = """\
void Hot(const Record* recs, size_t n, Digest160* out) {
  Digest160 d = Sha1::Hash(msg);                  // flagged
  Digest160 d2 = recs[0].Digest();                // flagged
  Sha1::HashMany(msgs.data(), msgs.size(), out);  // batched: silent
  RecordDigestMany(recs, n, out);                 // batched: silent
  // authdb-lint: allow(crypto-batch) lone boundary witness
  Digest160 d3 = recs[n - 1].Digest();            // escaped: silent
}
"""


def self_test():
    failures = []

    def expect(label, findings, rule, count):
        got = [f for f in findings if f.rule == rule]
        if len(got) != count:
            failures.append("%s: expected %d %s finding(s), got %d: %r"
                            % (label, count, rule, len(got), got))

    expect("seeded raw mutex",
           check_raw_mutex("fake.cc", SELFTEST_RAW_MUTEX), "raw-mutex", 3)
    expect("allow-escape",
           check_raw_mutex("fake.cc", SELFTEST_RAW_MUTEX_ALLOWED),
           "raw-mutex", 0)
    # Seeded read path: shards_ deref, builder access, raw current_,
    # AddSummary and Freeze calls — and none from the non-const write
    # paths below it.
    expect("seeded epoch-pin",
           check_epoch_pin("fake.cc", SELFTEST_EPOCH_PIN), "epoch-pin", 5)
    # BatchEngine members are read paths whether const or not: the slot
    # load through srv_.shards_, the builder reach (shards_ + builder) and
    # the deferred apply are caught; the pinned descriptor and the escaped
    # line stay silent.
    expect("seeded BatchEngine epoch-pin",
           check_epoch_pin("fake.cc", SELFTEST_EPOCH_PIN_BATCH),
           "epoch-pin", 4)
    expect("seeded unlabeled suites",
           check_test_labels("fake.txt", SELFTEST_TEST_LABELS),
           "test-labels", 2)
    expect("seeded naked bench",
           check_bench_json(SELFTEST_BENCH), "bench-json", 1)
    naked = check_bench_json(SELFTEST_BENCH)
    if naked and naked[0].path != "bench/bench_naked.cc":
        failures.append("bench-json flagged the wrong file: %r" % (naked,))
    # Undocumented metric name caught; the documented scalar and the
    # per-shard prefix (matched with its '.' suffix trimmed) stay silent.
    expect("seeded undocumented metric",
           check_metrics_doc("fake.cc", SELFTEST_METRICS_DOC_CC,
                             SELFTEST_METRICS_DOC_README),
           "metrics-doc", 1)
    # Two scalar crypto calls caught; the batched siblings and the
    # allow-escaped single-shot site stay silent.
    expect("seeded scalar crypto",
           check_crypto_batch("fake.cc", SELFTEST_CRYPTO_BATCH),
           "crypto-batch", 2)

    if failures:
        for f in failures:
            print("self-test FAILED: %s" % f, file=sys.stderr)
        return 1
    print("self-test ok: every seeded violation is caught and the "
          "allow-escape suppresses")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: the script's parent repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation check of the rules")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or pathlib.Path(__file__).resolve().parent.parent
    findings = lint_tree(root)
    for f in findings:
        print("%s:%d: [%s] %s" % (f.path, f.line, f.rule, f.msg))
    if findings:
        print("%d invariant violation(s)" % len(findings), file=sys.stderr)
        return 1
    print("invariants ok: epoch-pin, raw-mutex, test-labels, bench-json, "
          "metrics-doc, crypto-batch")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
