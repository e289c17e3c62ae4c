#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <malloc.h>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "azbench.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "obs/obs.hh"

namespace azbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------
// Metrics

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> kDefs = {
        {"scan_MBps", "MB/s"},
        {"session_p50_ms", "ms"},
        {"setup_s", "s"},
        {"setup_rss_MB", "MB"},
    };
    return kDefs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> kDefs = {
        {"core.parse_s", "s"},
        {"core.parse_MBps", "MB/s"},
        {"artifact.load_s", "s"},
        {"artifact.materialize_s", "s"},
        {"artifact.bytes", "bytes"},
        {"analysis.verify_s", "s"},
        {"analysis.infer_s", "s"},
        {"analysis.components", "count"},
        {"planner.plan_s", "s"},
        {"planner.build_s", "s"},
        {"planner.comp.prefilter", "count"},
        {"planner.comp.anchored", "count"},
        {"planner.comp.lazy", "count"},
        {"planner.comp.interp", "count"},
        {"planner.comp.skip", "count"},
        {"planner.auto_over_best", "ratio"},
        {"prefilter.skip_ratio", "ratio"},
        {"prefilter.candidates_per_MB", "1/MB"},
        {"prefilter.window_bytes_per_MB", "B/MB"},
        {"lazy.hit_ratio", "ratio"},
        {"lazy.misses_per_MB", "1/MB"},
        {"lazy.flushes", "count"},
        {"nfa.symbols", "count"},
        {"nfa.active_avg", "states"},
        {"nfa.ns_per_symbol", "ns"},
        {"runner.batch_s", "s"},
        {"runner.parallel_efficiency", "ratio"},
        {"session.build_s", "s"},
        {"session.reset_s", "s"},
        {"session.feed_MBps", "MB/s"},
        {"serve.connect_ms.p50", "ms"},
        {"serve.connect_ms.p99", "ms"},
        {"serve.open_ms.p50", "ms"},
        {"serve.open_ms.p99", "ms"},
        {"serve.send_ms.p50", "ms"},
        {"serve.send_ms.p99", "ms"},
        {"serve.finish_ms.p50", "ms"},
        {"serve.finish_ms.p99", "ms"},
        {"serve.stage_sum_over_e2e", "ratio"},
        {"serve.engine_share", "ratio"},
        {"serve.admitted", "count"},
        {"serve.rejected", "count"},
        {"serve.shed", "count"},
        {"serve.queue_peak_bytes", "bytes"},
        {"ruleset.build_s", "s"},
        {"trace.overhead_ratio", "ratio"},
        {"setup.span_sum_over_setup", "ratio"},
        {"fail_ratio", "ratio"},
        {"session_p99_ms", "ms"},
        {"sessions_per_s", "1/s"},
        {"reload_p50_ms", "ms"},
        {"session.samples", "count"},
        {"reload.samples", "count"},
    };
    return kDefs;
}

double
Metrics::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

std::string
Metrics::resultJson(bool correct, uint64_t attempted, uint64_t failed,
                    const std::vector<MetricDef> &defs) const
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        double v = get(defs[i].name);
        if (!std::isfinite(v))
            v = 0;
        os << (i ? ", " : "") << '"' << defs[i].name
           << "\": {\"value\": " << v << ", \"unit\": \"" << defs[i].unit
           << "\"}";
    }
    os << "}}";
    return os.str();
}

// ---------------------------------------------------------------
// Statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q, bool *reportable)
{
    if (reportable)
        *reportable = false;
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (reportable)
        *reportable = n - rank >= 10;
    return v[rank - 1];
}

uint64_t
residentBytes()
{
    std::ifstream f("/proc/self/statm");
    uint64_t size = 0, resident = 0;
    f >> size >> resident;
    return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

void
releaseFreeMemory()
{
    ::malloc_trim(0);
}

// ---------------------------------------------------------------
// Tracing

const std::vector<const char *> &
tracedCounters()
{
    static const std::vector<const char *> kNames = {
        "prefilter.candidates",     "prefilter.window_bytes",
        "prefilter.bytes_skipped",  "engine.lazy.symbols",
        "engine.lazy.cache_hits",   "engine.lazy.cache_misses",
        "engine.lazy.cache_flushes", "engine.nfa.symbols",
        "engine.stream.symbols",    "parser.bytes_read",
        "runner.batch.symbols",
    };
    return kNames;
}

namespace {

thread_local std::vector<int> tlsOpen;

std::vector<uint64_t>
readCounters()
{
    const azoo::obs::Registry &reg = azoo::obs::Registry::global();
    std::vector<uint64_t> v;
    v.reserve(tracedCounters().size());
    for (const char *name : tracedCounters())
        v.push_back(reg.counterValue(name));
    return v;
}

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int
Tracer::begin(const char *name, uint64_t op)
{
    if (!enabled_)
        return -1;
    std::vector<uint64_t> counters = readCounters();
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.startNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count());
    s.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    s.op = op;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    startCounters_.push_back(std::move(counters));
    tlsOpen.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const auto now = Clock::now();
    std::vector<uint64_t> counters = readCounters();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<size_t>(id)];
    s.endNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count());
    const std::vector<uint64_t> &start =
        startCounters_[static_cast<size_t>(id)];
    s.deltas.resize(counters.size());
    for (size_t i = 0; i < counters.size(); ++i)
        s.deltas[i] = counters[i] - start[i];
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

size_t
Tracer::mark() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    const std::vector<Span> all = spans();
    f << "{\"counters\": [";
    for (size_t i = 0; i < tracedCounters().size(); ++i)
        f << (i ? ", " : "") << '"' << tracedCounters()[i] << '"';
    f << "],\n \"spans\": [";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        f << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": ";
        jsonString(f, s.name);
        f << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op
          << ", \"deltas\": [";
        for (size_t k = 0; k < s.deltas.size(); ++k)
            f << (k ? ", " : "") << s.deltas[k];
        f << "]}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

double
spanSeconds(const std::vector<Span> &spans, const std::string &name,
            size_t from)
{
    double total = 0;
    for (size_t i = from; i < spans.size(); ++i) {
        if (spans[i].name == name)
            total += spans[i].seconds();
    }
    return total;
}

uint64_t
spanCounter(const std::vector<Span> &spans, const std::string &name,
            const std::string &counter, size_t from)
{
    const auto &names = tracedCounters();
    size_t k = 0;
    while (k < names.size() && counter != names[k])
        ++k;
    if (k == names.size())
        return 0;
    uint64_t total = 0;
    for (size_t i = from; i < spans.size(); ++i) {
        if (spans[i].name == name && k < spans[i].deltas.size())
            total += spans[i].deltas[k];
    }
    return total;
}

// ---------------------------------------------------------------
// Oracle

azoo::SimOptions
oracleSimOptions()
{
    azoo::SimOptions o;
    o.recordReports = true;
    o.countByCode = true;
    return o;
}

std::vector<azoo::SimResult>
serialReferences(const azoo::Automaton &a,
                 const std::vector<std::vector<uint8_t>> &streams,
                 size_t threads)
{
    const azoo::NfaEngine engine(a);
    const azoo::SimOptions opts = oracleSimOptions();
    std::vector<azoo::SimResult> out(streams.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        azoo::EngineScratch scratch;
        for (size_t i = next.fetch_add(1); i < streams.size();
             i = next.fetch_add(1)) {
            out[i] = engine.simulate(streams[i], scratch, opts);
            azoo::canonicalizeReports(out[i]);
        }
    };
    std::vector<std::thread> pool;
    for (size_t t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (auto &t : pool)
        t.join();
    return out;
}

bool
sameResult(const azoo::SimResult &got, const azoo::SimResult &ref)
{
    return got.symbols == ref.symbols && got.reports == ref.reports &&
        got.reportCount == ref.reportCount &&
        got.reportingCycles == ref.reportingCycles &&
        got.byCode == ref.byCode &&
        got.guardStatus.code() == ref.guardStatus.code();
}

namespace {

uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

uint64_t
referenceDigest(const std::vector<azoo::SimResult> &refs, uint64_t h)
{
    for (const azoo::SimResult &r : refs) {
        h = fnv(h, r.symbols);
        h = fnv(h, r.reportCount);
        h = fnv(h, r.reportingCycles);
        for (const azoo::Report &rep : r.reports) {
            h = fnv(h, rep.offset);
            h = fnv(h, rep.element);
            h = fnv(h, rep.code);
        }
        for (const auto &[code, n] : r.byCode) {
            h = fnv(h, code);
            h = fnv(h, n);
        }
    }
    return h;
}

bool
perturbOne(azoo::SimResult &r)
{
    if (r.reports.empty())
        return false;
    ++r.reports.front().offset;
    return true;
}

uint64_t
streamSeed(uint64_t seed, uint64_t index, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + index * 0xbf58476d1ce4e5b9ull +
        salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace azbench
