/**
 * @file
 * The three scan workloads: rulesets loaded from files, engines built
 * through the planner, and batches of streams scanned through
 * ParallelRunner with ParallelEngine::kPlanned. Every scanned stream
 * is compared with the serial NfaEngine.
 *
 * A "round" scans one batch of streams per ruleset; a round's
 * latency is the session latency of a scan workload, and its bytes
 * over its time is one throughput sample.
 */

#include <array>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "analysis/analysis.hh"
#include "analysis/profile.hh"
#include "artifact/artifact.hh"
#include "azbench.hh"
#include "core/mnrl.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "util/logging.hh"

namespace azbench {

namespace {

struct ScanSpec {
    std::string workload;
    std::vector<std::string> rulesets;
    /** Load .azoox artifacts (EXEC + PROF) instead of MNRL text. */
    bool artifact = false;
    size_t streamsPerBatch = 0;
    size_t streamBytes = 0;
    /** New streams every round (the lazy DFA's cache must see fresh
     *  bytes); otherwise one pool is scanned round after round. */
    bool fresh = false;
    /** Fresh rounds generated (and their references computed) at a
     *  time, so the timed rounds run back to back. */
    size_t roundsPerBlock = 8;
    size_t setupReps = 9;
};

/** A ruleset file written for the run, plus its generator. */
struct Prepared {
    RulesetSource src;
    std::string path;
    uint64_t fileBytes = 0;
};

/** One ruleset ready to scan. */
struct Loaded {
    std::unique_ptr<azoo::Automaton> automaton;
    std::vector<azoo::analysis::ComponentProfile> profiles;
    azoo::EnginePlan plan;
    std::unique_ptr<azoo::ParallelRunner> runner;
};

/** Streams and their references for one round, per ruleset. */
struct Batch {
    std::vector<std::vector<std::vector<uint8_t>>> streams;
    std::vector<std::vector<azoo::SimResult>> refs;
    uint64_t bytes = 0;
};

std::string
slug(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
    return s;
}

[[noreturn]] void
die(const std::string &what, const azoo::Status &st)
{
    azoo::fatal(azoo::cat("azbench: ", what, ": ", st.str()));
}

std::vector<Prepared>
prepare(const ScanSpec &spec, const Args &args)
{
    const std::string dir = args.workDir + "/" + spec.workload;
    std::filesystem::create_directories(dir);
    std::vector<Prepared> out;
    for (const std::string &name : spec.rulesets) {
        Prepared p;
        p.src = makeRuleset(name, args.tiny);
        if (spec.artifact) {
            p.path = dir + "/" + slug(name) + ".azoox";
            azoo::artifact::WriteOptions wo;
            wo.execImage = true;
            wo.componentProfiles = true;
            auto info = azoo::artifact::saveArtifact(p.path, p.src.automaton, wo);
            if (!info.ok())
                die("writing " + p.path, info.status());
        } else {
            p.path = dir + "/" + slug(name) + ".mnrl";
            azoo::saveMnrl(p.path, p.src.automaton);
        }
        p.fileBytes = std::filesystem::file_size(p.path);
        out.push_back(std::move(p));
    }
    return out;
}

/** Ruleset file to engines ready to scan, one span per layer call. */
Loaded
setupOne(const Prepared &p, const ScanSpec &spec, Tracer &tracer,
         size_t threads)
{
    Loaded l;
    azoo::Automaton a;
    if (spec.artifact) {
        std::optional<azoo::artifact::LoadedArtifact> la;
        {
            Scope s(tracer, "artifact.load");
            auto r = azoo::artifact::loadArtifact(p.path);
            if (!r.ok())
                die("loading " + p.path, r.status());
            la.emplace(std::move(r).value());
        }
        {
            Scope s(tracer, "artifact.materialize");
            auto m = la->materialize();
            if (!m.ok())
                die("materializing " + p.path, m.status());
            a = std::move(m).value();
        }
        {
            Scope s(tracer, "analysis.verify");
            if (!azoo::analysis::verify(a).clean())
                azoo::fatal("azbench: " + p.path + " failed verification");
        }
        {
            // The artifact path reads inference from the PROF section.
            Scope s(tracer, "analysis.infer");
            if (!la->hasProfiles())
                azoo::fatal("azbench: " + p.path + " has no PROF section");
            l.profiles = la->componentProfiles();
        }
    } else {
        {
            Scope s(tracer, "core.parse");
            auto m = azoo::loadMnrl(p.path);
            if (!m.ok())
                die("parsing " + p.path, m.status());
            a = std::move(m).value();
        }
        {
            Scope s(tracer, "analysis.verify");
            if (!azoo::analysis::verify(a).clean())
                azoo::fatal("azbench: " + p.path + " failed verification");
        }
        {
            Scope s(tracer, "analysis.infer");
            l.profiles = azoo::analysis::inferProfiles(a);
        }
    }
    l.automaton = std::make_unique<azoo::Automaton>(std::move(a));
    {
        Scope s(tracer, "planner.plan");
        l.plan = azoo::planComponents(*l.automaton, l.profiles);
    }
    {
        Scope s(tracer, "planner.build");
        azoo::ParallelOptions po;
        po.threads = threads;
        po.engine = azoo::ParallelEngine::kPlanned;
        po.sim = oracleSimOptions();
        l.runner = std::make_unique<azoo::ParallelRunner>(*l.automaton, po);
    }
    return l;
}

const char *const kSetupLayers[] = {
    "core.parse",    "artifact.load", "artifact.materialize",
    "analysis.verify", "analysis.infer", "planner.plan",
    "planner.build",
};

/** Runs the scan loop and keeps the counts every check feeds. */
class ScanRun
{
  public:
    ScanRun(const ScanSpec &spec, const Args &args, Tracer &tracer)
        : spec_(spec), args_(args), tracer_(tracer), checker_(args.perturb)
    {
    }

    Outcome run(Metrics &m);

  private:
    void setupAll(Metrics &m);
    Batch makeBatch(uint64_t round);
    const Batch &batchFor(uint64_t round);
    /** Scan one round; returns its scan seconds (sum of runBatch). */
    double scanRound(const Batch &b, uint64_t round);
    void layerProbes(Metrics &m, const Batch &b);

    const ScanSpec &spec_;
    const Args &args_;
    Tracer &tracer_;
    std::vector<Prepared> prepared_;
    std::vector<Loaded> loaded_;
    std::optional<Batch> pool_;
    /** Fresh mode: rounds [blockStart_, blockStart_ + block_.size()). */
    std::vector<Batch> block_;
    uint64_t blockStart_ = 0;
    Checker checker_;
    uint64_t enabledSum_ = 0;
    uint64_t symbolSum_ = 0;
};

Batch
ScanRun::makeBatch(uint64_t round)
{
    Batch b;
    for (size_t r = 0; r < prepared_.size(); ++r) {
        std::vector<std::vector<uint8_t>> streams;
        for (size_t i = 0; i < spec_.streamsPerBatch; ++i) {
            const uint64_t index = round * spec_.streamsPerBatch + i;
            streams.push_back(prepared_[r].src.makeStream(
                streamSeed(args_.seed, index, r + 1), spec_.streamBytes));
            b.bytes += streams.back().size();
        }
        b.refs.push_back(
            serialReferences(prepared_[r].src.automaton, streams, kThreads));
        b.streams.push_back(std::move(streams));
    }
    return b;
}

const Batch &
ScanRun::batchFor(uint64_t round)
{
    if (!spec_.fresh) {
        if (!pool_)
            pool_ = makeBatch(0);
        return *pool_;
    }
    if (round < blockStart_ || round >= blockStart_ + block_.size()) {
        block_.clear();
        blockStart_ = round;
        for (size_t i = 0; i < spec_.roundsPerBlock; ++i)
            block_.push_back(makeBatch(round + i));
    }
    return block_[round - blockStart_];
}

double
ScanRun::scanRound(const Batch &b, uint64_t round)
{
    double secs = 0;
    for (size_t r = 0; r < loaded_.size(); ++r) {
        azoo::BatchResult br;
        {
            Scope s(tracer_, "runner.batch", round);
            const auto t0 = Clock::now();
            br = loaded_[r].runner->runBatch(b.streams[r]);
            secs += secondsSince(t0);
        }
        for (size_t i = 0; i < br.perStream.size(); ++i) {
            if (br.perStreamStatus[i].ok())
                checker_.check(br.perStream[i], b.refs[r][i]);
            else
                checker_.record(false);
            enabledSum_ += br.perStream[i].totalEnabled;
            symbolSum_ += br.perStream[i].symbols;
        }
    }
    return secs;
}

void
ScanRun::setupAll(Metrics &m)
{
    std::vector<double> secs, rss, spanSum;
    std::map<std::string, std::vector<double>> layer;
    for (size_t rep = 0; rep < spec_.setupReps; ++rep) {
        loaded_.clear();
        releaseFreeMemory();
        const size_t mark = tracer_.mark();
        const uint64_t rss0 = residentBytes();
        const auto t0 = Clock::now();
        {
            Scope s(tracer_, "setup", rep);
            for (const Prepared &p : prepared_)
                loaded_.push_back(setupOne(p, spec_, tracer_, kThreads));
        }
        secs.push_back(secondsSince(t0));
        rss.push_back(static_cast<double>(residentBytes() - rss0) / 1e6);
        if (tracer_.enabled()) {
            const std::vector<Span> spans = tracer_.spans();
            double sum = 0;
            for (const char *name : kSetupLayers) {
                const double v = spanSeconds(spans, name, mark);
                layer[name].push_back(v);
                sum += v;
            }
            spanSum.push_back(sum / spanSeconds(spans, "setup", mark));
        }
    }
    m.set("setup_s", median(secs));
    m.set("setup_rss_MB", median(rss));
    if (tracer_.enabled()) {
        m.set("core.parse_s", median(layer["core.parse"]));
        m.set("artifact.load_s", median(layer["artifact.load"]));
        m.set("artifact.materialize_s", median(layer["artifact.materialize"]));
        m.set("analysis.verify_s", median(layer["analysis.verify"]));
        m.set("analysis.infer_s", median(layer["analysis.infer"]));
        m.set("planner.plan_s", median(layer["planner.plan"]));
        m.set("planner.build_s", median(layer["planner.build"]));
        m.set("setup.span_sum_over_setup", median(spanSum));
        uint64_t fileBytes = 0;
        for (const Prepared &p : prepared_)
            fileBytes += p.fileBytes;
        if (spec_.artifact) {
            m.set("artifact.bytes", static_cast<double>(fileBytes));
        } else if (m.get("core.parse_s") > 0) {
            m.set("core.parse_MBps", fileBytes / 1e6 / m.get("core.parse_s"));
        }
    }
    std::array<uint32_t, azoo::kPlanBackends> census{};
    size_t components = 0;
    std::cout << spec_.workload << ": setup " << median(secs) << " s (median of "
              << secs.size() << "), rss +" << median(rss) << " MB\n";
    for (size_t r = 0; r < loaded_.size(); ++r) {
        std::cout << "  " << prepared_[r].src.name << ": "
                  << loaded_[r].automaton->size() << " states, plan "
                  << loaded_[r].plan.census() << ", "
                  << prepared_[r].fileBytes << " file bytes\n";
        for (size_t k = 0; k < azoo::kPlanBackends; ++k)
            census[k] += loaded_[r].plan.backendCount[k];
        components += loaded_[r].profiles.size();
    }
    m.set("analysis.components", static_cast<double>(components));
    m.set("planner.comp.prefilter", census[0]);
    m.set("planner.comp.anchored", census[1]);
    m.set("planner.comp.lazy", census[2]);
    m.set("planner.comp.interp", census[3]);
    m.set("planner.comp.skip", census[4]);
}

void
ScanRun::layerProbes(Metrics &m, const Batch &b)
{
    Scope probe(tracer_, "probe");
    std::vector<ProbeInput> in;
    std::vector<std::string> paths;
    for (size_t r = 0; r < loaded_.size(); ++r) {
        in.push_back({loaded_[r].automaton.get(), &loaded_[r].profiles,
                      &b.streams[r], &b.refs[r]});
        paths.push_back(prepared_[r].path);
    }
    probeEngines(in, tracer_, checker_, m);
    probeSessions(in, 2, tracer_, checker_, m);
    probeRulesetBuild(paths, tracer_, m);

    // Parallel efficiency: the same round on 1 and on kThreads threads.
    std::vector<Loaded> single;
    for (const Prepared &p : prepared_) {
        Tracer quiet(false);
        single.push_back(setupOne(p, spec_, quiet, 1));
    }
    double t1 = 0, tn = 0;
    for (size_t r = 0; r < loaded_.size(); ++r) {
        Scope s(tracer_, "probe.parallel", r);
        t1 += timedMedian(1, [&] { single[r].runner->runBatch(b.streams[r]); });
        tn += timedMedian(3, [&] { loaded_[r].runner->runBatch(b.streams[r]); });
    }
    m.set("runner.parallel_efficiency", t1 / (kThreads * tn));
}

Outcome
ScanRun::run(Metrics &m)
{
    prepared_ = prepare(spec_, args_);
    setupAll(m);

    // Reference digest over round 0: the oracle must not drift.
    const bool tracing = tracer_.enabled();
    tracer_.setEnabled(false);
    const Batch &first = batchFor(0);
    uint64_t digest = 1469598103934665603ull;
    bool digestOk = true;
    for (const auto &refs : first.refs)
        digest = referenceDigest(refs, digest);
    std::cout << "  reference digest (round 0, seed " << args_.seed
              << "): " << std::hex << digest << std::dec << "\n";
    if (args_.seed == 42 && !args_.tiny && recordedDigest(spec_.workload) &&
        digest != recordedDigest(spec_.workload)) {
        std::cout << "  reference digest differs from the recorded one\n";
        digestOk = false;
    }

    // One untimed warm-up round.
    scanRound(first, 0);
    uint64_t round = 1;

    // Timed rounds. Traced: half the time untraced, then as many
    // rounds traced, so the two walls compare the same work.
    const double budget = tracing ? args_.seconds / 2 : args_.seconds;
    std::vector<double> rates, latencies;
    double untracedScan = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < budget || rates.empty()) {
        const Batch &b = batchFor(round);
        const double secs = scanRound(b, round++);
        rates.push_back(static_cast<double>(b.bytes) / 1e6 / secs);
        latencies.push_back(secs * 1e3);
        untracedScan += secs;
    }
    m.set("scan_MBps", median(rates));
    m.set("session_p50_ms", median(latencies));
    bool p99ok = false;
    const double p99 = percentile(latencies, 0.99, &p99ok);
    if (p99ok)
        m.set("session_p99_ms", p99);
    m.set("sessions_per_s",
          static_cast<double>(latencies.size()) / untracedScan);
    m.set("session.samples", static_cast<double>(latencies.size()));
    std::cout << "  " << latencies.size() << " rounds of " << prepared_.size()
              << " x " << spec_.streamsPerBatch << " streams x "
              << spec_.streamBytes << " B: median " << median(rates)
              << " MB/s, round p50 " << median(latencies) << " ms (n="
              << latencies.size() << ")"
              << (p99ok ? azoo::cat(", p99 ", p99, " ms")
                        : std::string(", p99 not reportable"))
              << "\n";

    if (tracing) {
        tracer_.setEnabled(true);
        const size_t mark = tracer_.mark();
        enabledSum_ = symbolSum_ = 0;
        double tracedScan = 0;
        uint64_t tracedBytes = 0;
        {
            Scope pass(tracer_, "pass.traced");
            for (size_t i = 0; i < rates.size(); ++i) {
                const Batch &b = batchFor(round);
                tracedScan += scanRound(b, round++);
                tracedBytes += b.bytes;
            }
        }
        m.set("trace.overhead_ratio", tracedScan / untracedScan);
        const std::vector<Span> spans = tracer_.spans();
        std::vector<double> batchS;
        for (size_t i = mark; i < spans.size(); ++i) {
            if (spans[i].name == "runner.batch")
                batchS.push_back(spans[i].seconds());
        }
        m.set("runner.batch_s", median(batchS));
        const double mb = static_cast<double>(tracedBytes) / 1e6;
        auto delta = [&](const char *counter) {
            return static_cast<double>(
                spanCounter(spans, "runner.batch", counter, mark));
        };
        m.set("prefilter.skip_ratio",
              delta("prefilter.bytes_skipped") / (mb * 1e6));
        m.set("prefilter.candidates_per_MB", delta("prefilter.candidates") / mb);
        m.set("prefilter.window_bytes_per_MB",
              delta("prefilter.window_bytes") / mb);
        const double hits = delta("engine.lazy.cache_hits");
        const double misses = delta("engine.lazy.cache_misses");
        m.set("lazy.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
        m.set("lazy.misses_per_MB", misses / mb);
        m.set("lazy.flushes", delta("engine.lazy.cache_flushes"));
        m.set("nfa.symbols",
              delta("engine.nfa.symbols") + delta("engine.stream.symbols"));
        m.set("nfa.active_avg", symbolSum_ ? static_cast<double>(enabledSum_) /
                                                 static_cast<double>(symbolSum_)
                                           : 0);
        layerProbes(m, batchFor(round));
    }

    m.set("fail_ratio", checker_.failRatio());
    Outcome out = checker_.outcome();
    out.digestOk = digestOk;
    return out;
}

} // namespace

Outcome
runSigScan(const Args &args, Tracer &tracer, Metrics &m)
{
    ScanSpec spec;
    spec.workload = "sig_scan";
    spec.rulesets = {"ClamAV", "YARA"};
    spec.artifact = true;
    spec.streamsPerBatch = args.tiny ? 4 : 16;
    spec.streamBytes = args.tiny ? 64 << 10 : 1 << 20;
    spec.setupReps = args.tiny ? 2 : 9;
    return ScanRun(spec, args, tracer).run(m);
}

Outcome
runRegexScan(const Args &args, Tracer &tracer, Metrics &m)
{
    ScanSpec spec;
    spec.workload = "regex_scan";
    spec.rulesets = {"Snort"};
    spec.streamsPerBatch = args.tiny ? 4 : 32;
    spec.roundsPerBlock = args.tiny ? 2 : 4;
    spec.streamBytes = args.tiny ? 32 << 10 : 256 << 10;
    spec.fresh = true;
    spec.setupReps = args.tiny ? 2 : 9;
    return ScanRun(spec, args, tracer).run(m);
}

Outcome
runMeshScan(const Args &args, Tracer &tracer, Metrics &m)
{
    ScanSpec spec;
    spec.workload = "mesh_scan";
    spec.rulesets = {"Hamming 18x3", "Seq. Match 6w 6p wC", "Entity Resolution"};
    spec.streamsPerBatch = args.tiny ? 4 : 8;
    spec.streamBytes = args.tiny ? 8 << 10 : 16 << 10;
    spec.setupReps = args.tiny ? 2 : 9;
    return ScanRun(spec, args, tracer).run(m);
}

} // namespace azbench
