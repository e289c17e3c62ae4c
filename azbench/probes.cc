/**
 * @file
 * Standalone layer probes of the traced run, and the operation
 * checker. A probe calls one layer's public entry point on the
 * workload's own ruleset and inputs, outside the measured path.
 */

#include <algorithm>
#include <iostream>
#include <optional>

#include "azbench.hh"
#include "engine/lazy_dfa_engine.hh"
#include "engine/nfa_engine.hh"
#include "engine/parallel_runner.hh"
#include "engine/planner.hh"
#include "serve/ruleset.hh"
#include "util/logging.hh"

namespace azbench {

void
Checker::check(const azoo::SimResult &got, const azoo::SimResult &ref)
{
    bool same;
    if (!got.reports.empty() && takePerturb()) {
        azoo::SimResult altered = got;
        perturbOne(altered);
        same = sameResult(altered, ref);
    } else {
        same = sameResult(got, ref);
    }
    record(same, !same);
}

void
Checker::record(bool ok, bool mismatch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++out_.attempted;
    if (!ok)
        ++out_.failed;
    if (mismatch)
        ++out_.mismatches;
}

bool
Checker::takePerturb()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!perturb_ || perturbed_)
        return false;
    perturbed_ = true;
    return true;
}

Outcome
Checker::outcome() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return out_;
}

double
Checker::failRatio() const
{
    const Outcome o = outcome();
    return o.attempted ? static_cast<double>(o.failed) /
            static_cast<double>(o.attempted)
                       : 0;
}

void
probeEngines(const std::vector<ProbeInput> &in, Tracer &tracer,
             Checker &checker, Metrics &m)
{
    Scope probe(tracer, "probe.engines");
    const azoo::SimOptions so = oracleSimOptions();
    double nfaS = 0, lazyS = 0, autoS = 0, bytes = 0;
    for (size_t r = 0; r < in.size(); ++r) {
        const azoo::Automaton &a = *in[r].automaton;
        const std::vector<uint8_t> &stream = in[r].streams->front();
        const azoo::SimResult &ref = in[r].refs->front();
        bytes += static_cast<double>(stream.size());
        azoo::SimResult got;
        {
            Scope s(tracer, "probe.nfa", r);
            const azoo::NfaEngine nfa(a);
            azoo::EngineScratch scratch;
            nfaS += timedMedian(3, [&] { got = nfa.simulate(stream, scratch, so); });
        }
        azoo::canonicalizeReports(got);
        checker.check(got, ref);
        {
            Scope s(tracer, "probe.lazy", r);
            azoo::LazyDfaEngine lazy(a);
            lazyS += timedMedian(3, [&] { got = lazy.simulate(stream, so); });
        }
        azoo::canonicalizeReports(got);
        checker.check(got, ref);
        {
            Scope s(tracer, "probe.planned", r);
            azoo::PlannedEngine planned(a, *in[r].profiles);
            autoS += timedMedian(3, [&] { got = planned.simulate(stream, so); });
        }
        checker.check(got, ref);
    }
    m.set("planner.auto_over_best",
          (bytes / autoS) / std::max(bytes / nfaS, bytes / lazyS));
    m.set("nfa.ns_per_symbol", nfaS * 1e9 / bytes);
    std::cout << "  single-thread MB/s: nfa " << bytes / nfaS / 1e6
              << ", lazydfa " << bytes / lazyS / 1e6 << ", auto "
              << bytes / autoS / 1e6 << "\n";
}

double
probeSessions(const std::vector<ProbeInput> &in, size_t streams,
              Tracer &tracer, Checker &checker, Metrics &m)
{
    Scope probe(tracer, "probe.sessions");
    double buildS = 0, feedS = 0, feedBytes = 0;
    uint64_t enabled = 0, symbols = 0;
    std::vector<double> resets;
    for (size_t r = 0; r < in.size(); ++r) {
        std::optional<azoo::PlannedSession> ps;
        const auto t0 = Clock::now();
        {
            Scope s(tracer, "session.build", r);
            ps.emplace(*in[r].automaton, *in[r].profiles);
        }
        buildS += secondsSince(t0);
        ps->options = oracleSimOptions();
        const size_t n = std::min(streams, in[r].streams->size());
        for (size_t i = 0; i < n; ++i) {
            const std::vector<uint8_t> &stream = (*in[r].streams)[i];
            const auto f0 = Clock::now();
            {
                Scope s(tracer, "session.feed", i);
                for (size_t pos = 0; pos < stream.size(); pos += kChunkBytes) {
                    ps->feed(stream.data() + pos,
                             std::min(kChunkBytes, stream.size() - pos));
                }
            }
            feedS += secondsSince(f0);
            feedBytes += static_cast<double>(stream.size());
            const azoo::SimResult res = ps->results();
            checker.check(res, (*in[r].refs)[i]);
            enabled += res.totalEnabled;
            symbols += res.symbols;
            const auto r0 = Clock::now();
            {
                Scope s(tracer, "session.reset", i);
                ps->reset();
            }
            resets.push_back(secondsSince(r0));
        }
    }
    m.set("session.build_s", buildS);
    m.set("session.reset_s", median(resets));
    m.set("session.feed_MBps", feedBytes / 1e6 / feedS);
    return symbols ? static_cast<double>(enabled) / static_cast<double>(symbols)
                   : 0;
}

void
probeRulesetBuild(const std::vector<std::string> &paths, Tracer &tracer,
                  Metrics &m)
{
    double total = 0;
    for (const std::string &path : paths) {
        Scope s(tracer, "ruleset.build");
        azoo::serve::RulesetSpec spec;
        spec.engine = azoo::serve::ServeEngine::kPlanned;
        const auto t0 = Clock::now();
        auto gen = azoo::serve::loadRulesetFile(path, spec, 1);
        total += secondsSince(t0);
        if (!gen.ok())
            azoo::fatal(azoo::cat("azbench: loadRulesetFile ", path, ": ",
                                  gen.status().str()));
    }
    m.set("ruleset.build_s", total);
}

} // namespace azbench
