/**
 * @file
 * The benchmark's rulesets and input streams. Rulesets come from the
 * zoo generators at a fixed seed; every input stream is made from the
 * run's --seed and the stream's index, with true positives planted
 * from the ruleset's own rule instances, as the zoo does.
 */

#include <set>

#include "azbench.hh"
#include "input/diskimage.hh"
#include "input/dna.hh"
#include "input/malware.hh"
#include "input/names.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "zoo/clamav.hh"
#include "zoo/entity.hh"
#include "zoo/registry.hh"
#include "zoo/seqmatch.hh"
#include "zoo/snort.hh"
#include "zoo/yara.hh"

namespace azbench {

RulesetSource
makeRuleset(const std::string &zooName, bool tiny)
{
    azoo::zoo::ZooConfig cfg;
    cfg.seed = kRulesetSeed;
    cfg.scale = tiny ? 0.01 : kRulesetScale;
    cfg.inputBytes = 4096; // the zoo's own input is not used
    RulesetSource rs;
    rs.name = zooName;
    rs.automaton = azoo::zoo::makeBenchmark(zooName, cfg).automaton;

    if (zooName == "ClamAV") {
        auto sigs = azoo::zoo::makeClamSignatures(cfg);
        rs.makeStream = [sigs](uint64_t seed, size_t bytes) {
            azoo::Rng rng(seed);
            azoo::input::DiskImageConfig dc;
            dc.bytes = bytes;
            dc.seed = seed;
            for (int k = 0; k < 2; ++k)
                dc.viruses.push_back(sigs[rng.nextBelow(sigs.size())].instance);
            return azoo::input::diskImage(dc);
        };
    } else if (zooName == "YARA") {
        auto rules = azoo::zoo::makeYaraRules(cfg, false);
        rs.makeStream = [rules](uint64_t seed, size_t bytes) {
            azoo::Rng rng(seed);
            azoo::input::MalwareConfig mc;
            mc.bytes = bytes;
            mc.seed = seed;
            for (int k = 0; k < 6; ++k)
                mc.planted.push_back(rules[rng.nextBelow(rules.size())].instance);
            return azoo::input::malwareStream(mc);
        };
    } else if (zooName == "Snort") {
        auto rules = azoo::zoo::makeSnortRules(cfg);
        const double scale = cfg.scale;
        rs.makeStream = [rules, scale](uint64_t seed, size_t bytes) {
            azoo::zoo::ZooConfig sc;
            sc.seed = seed;
            sc.scale = scale;
            sc.inputBytes = bytes;
            return azoo::zoo::snortInput(sc, rules);
        };
    } else if (zooName == "Hamming 18x3") {
        // The mesh generator keeps its patterns private; these are
        // drawn with its recipe so planted reads are near-matches.
        azoo::Rng prng(cfg.seed ^ 0x4a4dULL);
        std::vector<std::string> patterns;
        for (size_t i = 0, n = cfg.scaled(1000); i < n; ++i)
            patterns.push_back(azoo::input::randomDnaString(18, prng));
        rs.makeStream = [patterns](uint64_t seed, size_t bytes) {
            std::vector<uint8_t> s = azoo::input::randomDna(bytes, seed);
            azoo::Rng rng(seed ^ 0x91a7ULL);
            for (size_t at = 1024; at + 18 < s.size(); at += 16 * 1024) {
                azoo::input::plantWithMismatches(
                    s, at, patterns[rng.nextBelow(patterns.size())],
                    static_cast<int>(rng.nextBelow(4)), rng);
            }
            return s;
        };
    } else if (zooName == "Seq. Match 6w 6p wC") {
        azoo::zoo::SeqMatchParams p;
        p.withCounters = true;
        auto itemsets = azoo::zoo::seqMatchItemsets(cfg, p);
        // Sorted transactions, one in 40 embedding a ruleset itemset
        // (the zoo's input recipe, seeded per stream).
        rs.makeStream = [itemsets](uint64_t seed, size_t bytes) {
            std::vector<uint8_t> in;
            in.reserve(bytes + 64);
            azoo::Rng rng(seed);
            while (in.size() < bytes) {
                std::set<uint8_t> txn;
                const size_t len = 8 + rng.nextBelow(17);
                while (txn.size() < len) {
                    txn.insert(static_cast<uint8_t>(
                        1 + rng.nextBelow(azoo::zoo::kSeqMaxItem)));
                }
                if (rng.nextBelow(40) == 0) {
                    const auto &plant =
                        itemsets[rng.nextBelow(itemsets.size())];
                    txn.insert(plant.begin(), plant.end());
                }
                in.insert(in.end(), txn.begin(), txn.end());
                in.push_back(azoo::zoo::kSeqSeparator);
            }
            in.resize(bytes);
            return in;
        };
    } else if (zooName == "Entity Resolution") {
        auto names = azoo::zoo::entityNames(cfg);
        rs.makeStream = [names](uint64_t seed, size_t bytes) {
            return azoo::input::nameStream(names, bytes, 0.15, seed);
        };
    } else {
        azoo::fatal(azoo::cat("azbench: no input generator for ", zooName));
    }
    return rs;
}

} // namespace azbench
