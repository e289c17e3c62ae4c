/**
 * @file
 * azbench: the AutomataZoo benchmark.
 *
 *   azbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads: sig_scan, regex_scan, mesh_scan, serve_stream. With
 * --trace 0 the run prints the end-to-end metrics; with --trace 1 it
 * runs the workload untraced and then traced, and prints the
 * per-layer metrics (spans go to .bench_work/trace-*.json). The last
 * stdout line is the JSON result. The exit code is non-zero when any
 * output differed from the serial NfaEngine oracle.
 *
 * Test-only flags: --tiny (small sizes), --perturb (alter one
 * measured report; the oracle must catch it).
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "azbench.hh"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "azbench: " << why
              << "\nusage: azbench --workload sig_scan|regex_scan|mesh_scan|"
                 "serve_stream --seed N --seconds S --trace 0|1 [--tiny] "
                 "[--perturb]\n";
    std::exit(64);
}

azbench::Args
parseArgs(int argc, char **argv)
{
    azbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload")
                a.workload = value();
            else if (flag == "--seed")
                a.seed = std::stoull(value());
            else if (flag == "--seconds")
                a.seconds = std::stod(value());
            else if (flag == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (flag == "--tiny")
                a.tiny = true;
            else if (flag == "--perturb")
                a.perturb = true;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

} // namespace

namespace azbench {

uint64_t
recordedDigest(const std::string &workload)
{
    // Serial-NfaEngine reference digests at seed 42 (full size).
    if (workload == "sig_scan")
        return 0x1b0d5a83fd056302ull;
    if (workload == "regex_scan")
        return 0x2ed2fc74dbc29588ull;
    if (workload == "mesh_scan")
        return 0xb8f67a5b1f075335ull;
    if (workload == "serve_stream")
        return 0xba940cd7b0d255b2ull;
    return 0;
}

} // namespace azbench

int
main(int argc, char **argv)
{
    const azbench::Args args = parseArgs(argc, argv);
    azbench::Outcome (*run)(const azbench::Args &, azbench::Tracer &,
                            azbench::Metrics &) = nullptr;
    if (args.workload == "sig_scan")
        run = azbench::runSigScan;
    else if (args.workload == "regex_scan")
        run = azbench::runRegexScan;
    else if (args.workload == "mesh_scan")
        run = azbench::runMeshScan;
    else if (args.workload == "serve_stream")
        run = azbench::runServeStream;
    else
        usage("unknown workload " + args.workload);

    std::filesystem::create_directories(args.workDir);
    azbench::Tracer tracer(args.trace);
    azbench::Metrics metrics;
    const azbench::Outcome out = run(args, tracer, metrics);

    if (args.trace) {
        const std::string path = args.workDir + "/trace-" + args.workload +
            "-" + std::to_string(args.seed) + ".json";
        if (!tracer.write(path)) {
            std::cerr << "azbench: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "spans: " << tracer.spans().size() << " written to "
                  << path << "\n";
    }
    const bool correct = out.mismatches == 0 && out.digestOk;
    std::cout << "operations: " << out.attempted << " attempted, "
              << out.failed << " failed (" << out.mismatches
              << " oracle mismatches), fail_ratio "
              << metrics.get("fail_ratio") << "\n";
    std::cout << metrics.resultJson(correct, out.attempted, out.failed,
                                    args.trace ? azbench::perLayerMetrics()
                                               : azbench::endToEndMetrics())
              << std::endl;
    return correct && out.failed == 0 ? 0 : 1;
}
