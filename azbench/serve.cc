/**
 * @file
 * serve_stream: a Snort ruleset behind an in-process serve::Server
 * (ServeEngine::kPlanned) on TCP loopback. kThreads closed-loop
 * serve::Client connections each send 64 KiB sessions in 4 KiB DATA
 * frames; client 0 also sends a RELOAD of the same ruleset file on a
 * fixed schedule, beside the sessions. Every REPLY is compared with
 * the serial NfaEngine, up to the server's report-record cap.
 */

#include <atomic>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "analysis/analysis.hh"
#include "analysis/profile.hh"
#include "azbench.hh"
#include "core/mnrl.hh"
#include "engine/planner.hh"
#include "serve/client.hh"
#include "serve/ruleset.hh"
#include "serve/server.hh"
#include "util/logging.hh"

namespace azbench {

namespace {

constexpr uint8_t kPriority = 100;
constexpr int64_t kReloadPeriodMs = 500;

/** One finished session or reload, timestamps relative to its start. */
struct OpRecord {
    bool ok = false;
    double latencyMs = 0;
    uint64_t bytes = 0;
};

struct PassResult {
    std::vector<OpRecord> sessions;
    std::vector<OpRecord> reloads;
    double wallS = 0;
};

class ServeRun
{
  public:
    ServeRun(const Args &args, Tracer &tracer)
        : args_(args), tracer_(tracer), checker_(args.perturb)
    {
    }

    Outcome run(Metrics &m);

  private:
    void setup(Metrics &m);
    /** Closed-loop pass: until @p seconds elapse, or, when
     *  @p sessions is non-zero, until that many sessions finished. */
    PassResult pass(double seconds, size_t sessions);
    OpRecord session(uint64_t id);
    OpRecord reload(uint64_t id);
    bool sameReply(const azoo::serve::Reply &r, const azoo::SimResult &ref);
    void layerProbes(Metrics &m, const PassResult &untraced);

    const Args &args_;
    Tracer &tracer_;
    Checker checker_;
    std::string path_;
    std::optional<RulesetSource> src_;
    std::vector<std::vector<uint8_t>> payloads_;
    std::vector<azoo::SimResult> refs_;
    azoo::serve::ServerOptions sopts_;
    std::unique_ptr<azoo::serve::Server> server_;
    std::string addr_;
};

bool
ServeRun::sameReply(const azoo::serve::Reply &r, const azoo::SimResult &ref)
{
    const size_t cap = std::min<size_t>(sopts_.limits.maxReportRecords,
                                        ref.reports.size());
    return r.status == azoo::serve::ReplyStatus::kOk && ref.guardStatus.ok() &&
        r.symbols == ref.symbols && r.reportCount == ref.reportCount &&
        r.reports.size() == cap &&
        std::equal(r.reports.begin(), r.reports.end(), ref.reports.begin());
}

OpRecord
ServeRun::session(uint64_t id)
{
    OpRecord rec;
    const std::vector<uint8_t> &payload = payloads_[id % payloads_.size()];
    const auto t0 = Clock::now();
    Scope whole(tracer_, "serve.session", id);
    azoo::serve::Client c;
    bool ok;
    {
        Scope s(tracer_, "serve.connect", id);
        ok = c.connect(addr_).ok();
    }
    if (ok) {
        Scope s(tracer_, "serve.open", id);
        ok = c.open(kPriority).ok() && c.admitted();
    }
    if (ok) {
        // A send error means the server shed the session; its REPLY
        // may still be readable, so fall through to finish().
        Scope s(tracer_, "serve.send", id);
        for (size_t pos = 0; pos < payload.size(); pos += kChunkBytes) {
            if (!c.send(payload.data() + pos,
                        std::min(kChunkBytes, payload.size() - pos))
                     .ok())
                break;
        }
    }
    std::optional<azoo::serve::Reply> reply;
    if (ok) {
        Scope s(tracer_, "serve.finish", id);
        auto r = c.finish();
        if (r.ok())
            reply = std::move(r).value();
    }
    rec.latencyMs = secondsSince(t0) * 1e3;
    if (!reply) {
        checker_.record(false);
        return rec;
    }
    const azoo::SimResult &ref = refs_[id % refs_.size()];
    if (!reply->reports.empty() && checker_.takePerturb())
        ++reply->reports.front().offset;
    const bool same = sameReply(*reply, ref);
    checker_.record(same, !same && reply->status == azoo::serve::ReplyStatus::kOk);
    rec.ok = same;
    rec.bytes = payload.size();
    return rec;
}

OpRecord
ServeRun::reload(uint64_t id)
{
    OpRecord rec;
    Scope s(tracer_, "serve.reload", id);
    const auto t0 = Clock::now();
    azoo::serve::Client c;
    bool ok = c.connect(addr_).ok();
    if (ok) {
        auto r = c.reload(path_);
        ok = r.ok() && r->status == azoo::serve::ReplyStatus::kOk;
    }
    rec.latencyMs = secondsSince(t0) * 1e3;
    rec.ok = ok;
    checker_.record(ok);
    return rec;
}

PassResult
ServeRun::pass(double seconds, size_t sessions)
{
    PassResult res;
    std::mutex mutex;
    std::atomic<uint64_t> next{0};
    const auto start = Clock::now();
    auto more = [&] {
        if (sessions)
            return next.load() < sessions;
        return secondsSince(start) < seconds;
    };
    auto client = [&](size_t k) {
        auto nextReload = start + std::chrono::milliseconds(kReloadPeriodMs);
        uint64_t reloads = 0;
        while (more()) {
            if (k == 0 && Clock::now() >= nextReload) {
                OpRecord r = reload(reloads++);
                nextReload += std::chrono::milliseconds(kReloadPeriodMs);
                std::lock_guard<std::mutex> lock(mutex);
                res.reloads.push_back(r);
                continue;
            }
            const uint64_t id = next.fetch_add(1);
            if (sessions && id >= sessions)
                break;
            OpRecord r = session(id);
            std::lock_guard<std::mutex> lock(mutex);
            res.sessions.push_back(r);
        }
    };
    std::vector<std::thread> clients;
    for (size_t k = 0; k < kThreads; ++k)
        clients.emplace_back(client, k);
    for (auto &t : clients)
        t.join();
    res.wallS = secondsSince(start);
    return res;
}

void
ServeRun::setup(Metrics &m)
{
    sopts_.addr = "tcp:0";
    sopts_.engine = azoo::serve::ServeEngine::kPlanned;
    sopts_.workers = kThreads;
    azoo::serve::RulesetSpec spec;
    spec.engine = sopts_.engine;
    spec.plan = sopts_.plan;

    const size_t reps = args_.tiny ? 2 : 9;
    std::vector<double> secs, rss, spanSum;
    for (size_t rep = 0; rep < reps; ++rep) {
        server_.reset();
        releaseFreeMemory();
        const size_t mark = tracer_.mark();
        const uint64_t rss0 = residentBytes();
        const auto t0 = Clock::now();
        {
            Scope s(tracer_, "setup", rep);
            azoo::Expected<azoo::serve::RulesetGeneration> gen =
                azoo::Status(azoo::ErrorCode::kInternal, "not loaded");
            {
                Scope l(tracer_, "ruleset.load");
                gen = azoo::serve::loadRulesetFile(path_, spec, 1);
            }
            if (!gen.ok())
                azoo::fatal("azbench: loading " + path_ + ": " +
                            gen.status().str());
            {
                Scope b(tracer_, "serve.build");
                server_ = std::make_unique<azoo::serve::Server>(
                    std::move(gen).value(), sopts_);
            }
            Scope st(tracer_, "serve.start");
            if (azoo::Status s2 = server_->start(); !s2.ok())
                azoo::fatal("azbench: server start: " + s2.str());
        }
        secs.push_back(secondsSince(t0));
        rss.push_back(static_cast<double>(residentBytes() - rss0) / 1e6);
        if (tracer_.enabled()) {
            const std::vector<Span> spans = tracer_.spans();
            const double l = spanSeconds(spans, "ruleset.load", mark);
            const double b = spanSeconds(spans, "serve.build", mark);
            const double s = spanSeconds(spans, "serve.start", mark);
            spanSum.push_back((l + b + s) / spanSeconds(spans, "setup", mark));
        }
    }
    m.set("setup_s", median(secs));
    m.set("setup_rss_MB", median(rss));
    if (tracer_.enabled())
        m.set("setup.span_sum_over_setup", median(spanSum));
    addr_ = azoo::cat("tcp:", server_->port());
    std::cout << "serve_stream: setup " << median(secs) << " s (median of "
              << secs.size() << "), rss +" << median(rss) << " MB, "
              << addr_ << "\n";
}

void
ServeRun::layerProbes(Metrics &m, const PassResult &untraced)
{
    Scope probe(tracer_, "probe");
    // The layers loadRulesetFile runs, called one by one.
    azoo::Automaton a;
    {
        const auto t0 = Clock::now();
        Scope s(tracer_, "core.parse");
        auto r = azoo::loadMnrl(path_);
        if (!r.ok())
            azoo::fatal("azbench: parsing " + path_ + ": " + r.status().str());
        a = std::move(r).value();
        const double secs = secondsSince(t0);
        m.set("core.parse_s", secs);
        m.set("core.parse_MBps",
              static_cast<double>(std::filesystem::file_size(path_)) / 1e6 / secs);
    }
    {
        const auto t0 = Clock::now();
        Scope s(tracer_, "analysis.verify");
        if (!azoo::analysis::verify(a).clean())
            azoo::fatal("azbench: " + path_ + " failed verification");
        m.set("analysis.verify_s", secondsSince(t0));
    }
    std::vector<azoo::analysis::ComponentProfile> profiles;
    {
        const auto t0 = Clock::now();
        Scope s(tracer_, "analysis.infer");
        profiles = azoo::analysis::inferProfiles(a);
        m.set("analysis.infer_s", secondsSince(t0));
    }
    m.set("analysis.components", static_cast<double>(profiles.size()));
    {
        const auto t0 = Clock::now();
        Scope s(tracer_, "planner.plan");
        const azoo::EnginePlan plan = azoo::planComponents(a, profiles);
        m.set("planner.plan_s", secondsSince(t0));
        m.set("planner.comp.prefilter", plan.backendCount[0]);
        m.set("planner.comp.anchored", plan.backendCount[1]);
        m.set("planner.comp.lazy", plan.backendCount[2]);
        m.set("planner.comp.interp", plan.backendCount[3]);
        m.set("planner.comp.skip", plan.backendCount[4]);
        std::cout << "  Snort: " << a.size() << " states, plan "
                  << plan.census() << "\n";
    }
    const std::vector<ProbeInput> in = {{&a, &profiles, &payloads_, &refs_}};
    probeEngines(in, tracer_, checker_, m);
    m.set("nfa.active_avg",
          probeSessions(in, payloads_.size(), tracer_, checker_, m));
    // The server builds one PlannedSession per concurrent session.
    m.set("planner.build_s", m.get("session.build_s"));
    probeRulesetBuild({path_}, tracer_, m);

    // Engine share: standalone feed time of one session's bytes over
    // the measured session latency.
    std::vector<double> lat;
    for (const OpRecord &r : untraced.sessions)
        lat.push_back(r.latencyMs);
    const double feedMs = static_cast<double>(payloads_.front().size()) / 1e6 /
        m.get("session.feed_MBps") * 1e3;
    m.set("serve.engine_share", feedMs / median(lat));
}

Outcome
ServeRun::run(Metrics &m)
{
    const std::string dir = args_.workDir + "/serve_stream";
    std::filesystem::create_directories(dir);
    path_ = dir + "/Snort.mnrl";
    src_.emplace(makeRuleset("Snort", args_.tiny));
    azoo::saveMnrl(path_, src_->automaton);
    const size_t pool = args_.tiny ? 8 : 64;
    const size_t bytes = args_.tiny ? 32 << 10 : 64 << 10;
    for (size_t i = 0; i < pool; ++i)
        payloads_.push_back(src_->makeStream(streamSeed(args_.seed, i, 1), bytes));
    refs_ = serialReferences(src_->automaton, payloads_, kThreads);
    const uint64_t digest = referenceDigest(refs_);
    std::cout << "serve_stream: reference digest (seed " << args_.seed
              << "): " << std::hex << digest << std::dec << "\n";
    bool digestOk = true;
    if (args_.seed == 42 && !args_.tiny && recordedDigest("serve_stream") &&
        digest != recordedDigest("serve_stream")) {
        std::cout << "  reference digest differs from the recorded one\n";
        digestOk = false;
    }

    setup(m);
    std::thread loop([this] { server_->run(); });

    const bool tracing = tracer_.enabled();
    tracer_.setEnabled(false);
    // Warm-up: one session per client slot builds the pooled sessions.
    pass(0, kThreads);
    PassResult untraced = pass(args_.seconds, 0);

    // A failed session misses every latency limit.
    std::vector<double> lat, reloadLat;
    uint64_t okBytes = 0;
    for (const OpRecord &r : untraced.sessions) {
        lat.push_back(r.ok ? r.latencyMs : 1e300);
        okBytes += r.bytes;
    }
    for (const OpRecord &r : untraced.reloads)
        reloadLat.push_back(r.ok ? r.latencyMs : 1e300);
    bool p50ok = false, p99ok = false, reloadOk = false;
    const double p50 = percentile(lat, 0.5, &p50ok);
    const double p99 = percentile(lat, 0.99, &p99ok);
    const double reloadP50 = percentile(reloadLat, 0.5, &reloadOk);
    m.set("session_p50_ms", p50);
    if (p99ok)
        m.set("session_p99_ms", p99);
    if (reloadOk)
        m.set("reload_p50_ms", reloadP50);
    m.set("sessions_per_s", static_cast<double>(lat.size()) / untraced.wallS);
    m.set("scan_MBps", static_cast<double>(okBytes) / 1e6 / untraced.wallS);
    m.set("session.samples", static_cast<double>(lat.size()));
    m.set("reload.samples", static_cast<double>(reloadLat.size()));
    std::cout << "  " << kThreads << " closed-loop clients, "
              << payloads_.front().size() << " B sessions in " << kChunkBytes
              << " B frames, RELOAD every " << kReloadPeriodMs << " ms\n"
              << "  sessions: n=" << lat.size() << " p50 " << p50 << " ms"
              << (p99ok ? azoo::cat(", p99 ", p99, " ms")
                        : std::string(", p99 not reportable"))
              << ", " << lat.size() / untraced.wallS << " /s\n"
              << "  reloads: n=" << reloadLat.size() << " p50 " << reloadP50
              << " ms" << (reloadOk ? "" : " (not reportable)") << "\n";

    if (tracing) {
        tracer_.setEnabled(true);
        const size_t mark = tracer_.mark();
        PassResult traced;
        {
            Scope s(tracer_, "pass.traced");
            traced = pass(0, untraced.sessions.size());
        }
        m.set("trace.overhead_ratio", traced.wallS / untraced.wallS);
        const std::vector<Span> spans = tracer_.spans();
        std::map<std::string, std::vector<double>> stage;
        double stageSum = 0, sessionSum = 0;
        for (size_t i = mark; i < spans.size(); ++i) {
            const Span &s = spans[i];
            if (s.name == "serve.session") {
                sessionSum += s.seconds();
            } else if (s.name.rfind("serve.", 0) == 0 && s.name != "serve.reload") {
                stage[s.name].push_back(s.seconds() * 1e3);
                stageSum += s.seconds();
            }
        }
        for (const char *name :
             {"serve.connect", "serve.open", "serve.send", "serve.finish"}) {
            bool ok50 = false, ok99 = false;
            const double v50 = percentile(stage[name], 0.5, &ok50);
            const double v99 = percentile(stage[name], 0.99, &ok99);
            if (ok50)
                m.set(azoo::cat(name, "_ms.p50"), v50);
            if (ok99)
                m.set(azoo::cat(name, "_ms.p99"), v99);
            std::cout << "  " << name << ": p50 " << v50 << " ms, p99 " << v99
                      << " ms (n=" << stage[name].size() << ")\n";
        }
        m.set("serve.stage_sum_over_e2e", stageSum / sessionSum);
        // Engine counters over the whole traced pass: sessions
        // overlap, so per-session deltas would double count.
        uint64_t passBytes = 0;
        for (const OpRecord &r : traced.sessions)
            passBytes += r.bytes;
        const double mb = static_cast<double>(passBytes) / 1e6;
        auto delta = [&](const char *c) {
            return static_cast<double>(spanCounter(spans, "pass.traced", c, mark));
        };
        m.set("prefilter.skip_ratio", delta("prefilter.bytes_skipped") / (mb * 1e6));
        m.set("prefilter.candidates_per_MB", delta("prefilter.candidates") / mb);
        m.set("prefilter.window_bytes_per_MB", delta("prefilter.window_bytes") / mb);
        m.set("nfa.symbols",
              delta("engine.nfa.symbols") + delta("engine.stream.symbols"));
        layerProbes(m, untraced);
    }

    server_->requestShutdown();
    loop.join();
    const azoo::serve::ServerStats &st = server_->stats();
    m.set("serve.admitted", static_cast<double>(st.admitted));
    m.set("serve.rejected", static_cast<double>(st.rejected));
    m.set("serve.shed", static_cast<double>(st.shed));
    m.set("serve.queue_peak_bytes", static_cast<double>(st.peakQueueBytes));
    m.set("fail_ratio", checker_.failRatio());
    std::cout << "  server: admitted " << st.admitted << ", rejected "
              << st.rejected << ", shed " << st.shed << ", reloads "
              << st.reloads << " (" << st.reloadFailures << " failed)\n";
    Outcome out = checker_.outcome();
    out.digestOk = digestOk;
    return out;
}

} // namespace

Outcome
runServeStream(const Args &args, Tracer &tracer, Metrics &m)
{
    return ServeRun(args, tracer).run(m);
}

} // namespace azbench
