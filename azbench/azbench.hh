/**
 * @file
 * Shared pieces of the AutomataZoo benchmark: run arguments, the
 * metric table, exact statistics, the in-memory span tracer and the
 * serial-NfaEngine output oracle.
 *
 * The benchmark links libazoo and times calls into each layer's
 * public functions from outside; nothing here reaches into src/.
 */

#ifndef AZBENCH_AZBENCH_HH
#define AZBENCH_AZBENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "core/automaton.hh"
#include "engine/report.hh"

namespace azbench {

using Clock = std::chrono::steady_clock;

/** Seconds since @p t0. */
double secondsSince(Clock::time_point t0);

/** Parsed command line. */
struct Args {
    std::string workload;
    uint64_t seed = 42;
    double seconds = 14;
    bool trace = false;
    /** Test-only: shrink every size so a run takes a few seconds. */
    bool tiny = false;
    /** Test-only: alter one measured report before the oracle check,
     *  which must then fail the run. */
    bool perturb = false;
    /** Where rulesets, spans and scratch files go (inside the
     *  checkout). */
    std::string workDir = ".bench_work";
};

// ---------------------------------------------------------------
// Metrics

/** Every metric the benchmark can print, with its unit. end_to_end
 *  metrics print with --trace 0, per-layer ones with --trace 1; the
 *  lists match BENCHMARK.json (the self-test checks this). */
struct MetricDef {
    const char *name;
    const char *unit;
};
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** Named metric values; unset names print as 0 (a layer that is not
 *  on the workload's path). */
class Metrics
{
  public:
    void set(const std::string &name, double v) { values_[name] = v; }
    double get(const std::string &name) const;
    /** The final result line: {"correct", "attempted", "failed",
     *  "metrics"} over @p defs. */
    std::string resultJson(bool correct, uint64_t attempted,
                           uint64_t failed,
                           const std::vector<MetricDef> &defs) const;

  private:
    std::map<std::string, double> values_;
};

// ---------------------------------------------------------------
// Exact statistics over raw samples

double median(std::vector<double> v);

/** Nearest-rank percentile (0 < q < 1) of raw samples. Sets
 *  @p reportable when at least ten samples lie beyond it. */
double percentile(std::vector<double> v, double q, bool *reportable);

/** Resident set size of this process, bytes (/proc/self/statm). */
uint64_t residentBytes();

/** Hand freed heap pages back to the kernel so the next RSS
 *  difference measures the next allocation, not reuse. */
void releaseFreeMemory();

// ---------------------------------------------------------------
// Tracing

/** obs::Registry counters whose deltas each span records. */
const std::vector<const char *> &tracedCounters();

/** One recorded span. */
struct Span {
    std::string name;
    uint64_t startNs = 0; ///< since the tracer's epoch
    uint64_t endNs = 0;
    int parent = -1;      ///< index into the span list, -1 = root
    uint64_t op = 0;      ///< stream index / session id / repetition
    /** Counter deltas over the span, parallel to tracedCounters(). */
    std::vector<uint64_t> deltas;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/**
 * In-memory span recorder. Disabled, begin()/end() do nothing, so
 * the untraced run records no spans. Spans nest per thread; the
 * list is written out once, when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int begin(const char *name, uint64_t op);
    void end(int id);

    /** Snapshot (copy) of every span so far. */
    std::vector<Span> spans() const;
    /** Index where the next span will be stored. */
    size_t mark() const;

    /** Write spans as JSON to @p path; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::vector<uint64_t>> startCounters_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, uint64_t op = 0)
        : t_(t), id_(t.begin(name, op))
    {
    }
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/** Sum of durations of spans named @p name in [from, spans.size()). */
double spanSeconds(const std::vector<Span> &spans, const std::string &name,
                   size_t from = 0);

/** Sum of counter @p counter's deltas over spans named @p name. */
uint64_t spanCounter(const std::vector<Span> &spans, const std::string &name,
                     const std::string &counter, size_t from = 0);

// ---------------------------------------------------------------
// Oracle

/** SimOptions every compared run uses: reports recorded, per-code
 *  tallies on. */
azoo::SimOptions oracleSimOptions();

/**
 * Serial NfaEngine references for @p streams, computed on @p threads
 * plain std::threads (never through the engine path being measured)
 * and canonicalized.
 */
std::vector<azoo::SimResult>
serialReferences(const azoo::Automaton &a,
                 const std::vector<std::vector<uint8_t>> &streams,
                 size_t threads);

/** True when @p got equals @p ref on the invariant fields: symbols,
 *  reports, reportCount, reportingCycles, byCode, guardStatus. */
bool sameResult(const azoo::SimResult &got, const azoo::SimResult &ref);

/** FNV-1a digest of references (symbols, counts and every report),
 *  so a drifting oracle or generator shows. */
uint64_t referenceDigest(const std::vector<azoo::SimResult> &refs,
                         uint64_t h = 1469598103934665603ull);

/** Test-only perturbation: shift one report so the check must fail.
 *  Returns false when @p r has no report to shift. */
bool perturbOne(azoo::SimResult &r);

/** What a workload run reports back to main(). */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Oracle mismatches (a subset of failed). */
    uint64_t mismatches = 0;
    /** False when a reference digest drifted from the recorded one. */
    bool digestOk = true;
};

/**
 * Counts operations (scanned streams, sessions, reloads) and their
 * failures. Thread-safe: serve clients check from several threads.
 */
class Checker
{
  public:
    explicit Checker(bool perturb) : perturb_(perturb) {}

    /** Compare one result with its reference (see sameResult()). */
    void check(const azoo::SimResult &got, const azoo::SimResult &ref);
    /** Record one operation that succeeded or failed by other means
     *  (a REPLY check, a reload, a refused session). */
    void record(bool ok, bool mismatch = false);
    /** True exactly once when --perturb is on: the caller then alters
     *  its copy of a result with reports before comparing. */
    bool takePerturb();

    Outcome outcome() const;
    double failRatio() const;

  private:
    const bool perturb_;
    mutable std::mutex mutex_;
    bool perturbed_ = false;
    Outcome out_;
};

// ---------------------------------------------------------------
// Inputs

/** Deterministic 64-bit mix of a seed and a stream index. */
uint64_t streamSeed(uint64_t seed, uint64_t index, uint64_t salt);

/** Zoo generation seed of every ruleset: fixed, so the rulesets (and
 *  their plans) stay put while --seed varies the scanned inputs. */
inline constexpr uint64_t kRulesetSeed = 42;

/** Pattern-count scale of every ruleset (--tiny uses 0.01). */
inline constexpr double kRulesetScale = 0.05;

/** One zoo ruleset and the generator of its input streams. */
struct RulesetSource {
    std::string name;
    /** The generator's in-memory automaton: what the oracle runs.
     *  The measured path loads its own copy from the ruleset file. */
    azoo::Automaton automaton;
    /** Stream generator: same (seed, bytes), same stream. */
    std::function<std::vector<uint8_t>(uint64_t seed, size_t bytes)>
        makeStream;
};

/** Build the zoo ruleset @p zooName at kRulesetSeed. */
RulesetSource makeRuleset(const std::string &zooName, bool tiny);

// ---------------------------------------------------------------
// Standalone layer probes (traced runs)

/** One ruleset as the standalone layer probes see it. */
struct ProbeInput {
    const azoo::Automaton *automaton = nullptr;
    const std::vector<azoo::analysis::ComponentProfile> *profiles = nullptr;
    /** Streams with their references; probes use the first few. */
    const std::vector<std::vector<uint8_t>> *streams = nullptr;
    const std::vector<azoo::SimResult> *refs = nullptr;
};

/** Single-thread NfaEngine, LazyDfaEngine and PlannedEngine on the
 *  first stream of each ruleset: planner.auto_over_best and
 *  nfa.ns_per_symbol. */
void probeEngines(const std::vector<ProbeInput> &in, Tracer &tracer,
                  Checker &checker, Metrics &m);

/** Standalone PlannedSession build / feed (4 KiB chunks) / reset over
 *  the first @p streams streams of each ruleset: session.*. Returns
 *  the sessions' enabled states per symbol. */
double probeSessions(const std::vector<ProbeInput> &in, size_t streams,
                     Tracer &tracer, Checker &checker, Metrics &m);

/** Standalone serve::loadRulesetFile of each path: ruleset.build_s. */
void probeRulesetBuild(const std::vector<std::string> &paths, Tracer &tracer,
                       Metrics &m);

/** Median seconds of @p fn over @p reps timed calls after a warm-up
 *  call. */
template <typename Fn>
double
timedMedian(int reps, Fn &&fn)
{
    fn();
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

/** Bytes of a DATA frame in the serve path and its session probes. */
inline constexpr size_t kChunkBytes = 4096;

/** Worker threads of the runner, the server and the oracle; client
 *  connections of serve_stream. */
inline constexpr size_t kThreads = 4;

// ---------------------------------------------------------------
// Workloads

Outcome runSigScan(const Args &args, Tracer &tracer, Metrics &m);
Outcome runRegexScan(const Args &args, Tracer &tracer, Metrics &m);
Outcome runMeshScan(const Args &args, Tracer &tracer, Metrics &m);
Outcome runServeStream(const Args &args, Tracer &tracer, Metrics &m);

/** Recorded reference digests for seed 42 at full size, per
 *  workload; 0 when none is recorded. */
uint64_t recordedDigest(const std::string &workload);

} // namespace azbench

#endif // AZBENCH_AZBENCH_HH
