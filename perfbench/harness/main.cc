/**
 * @file
 * perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload and prints, as its last stdout line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exit status
 * is 0 only when every result matched the golden model.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness/workloads.hh"

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "ladder_ise|ladder_ca|service_sign_burst|"
                 "service_mixed_paced --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, unsigned long long &out)
{
    if (!*s)
        return false;
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *end == '\0' && s[0] != '-';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    unsigned long long seed = 0, seconds = 0, trace = 2;
    bool haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; i++) {
        if (i + 1 >= argc)
            return usage("missing value");
        const char *v = argv[++i];
        if (!std::strcmp(argv[i - 1], "--workload"))
            workload = v;
        else if (!std::strcmp(argv[i - 1], "--seed"))
            haveSeed = parseUnsigned(v, seed);
        else if (!std::strcmp(argv[i - 1], "--seconds"))
            haveSeconds = parseUnsigned(v, seconds) && seconds >= 1 &&
                          seconds <= 120;
        else if (!std::strcmp(argv[i - 1], "--trace")) {
            if (!parseUnsigned(v, trace) || trace > 1)
                return usage("--trace takes 0 or 1");
        } else
            return usage("unknown argument");
    }
    if (workload.empty() || !haveSeed || !haveSeconds || trace > 1)
        return usage("--workload, --seed, --seconds (1..120) and --trace "
                     "are required");

    perfbench::RunOptions opt;
    opt.seed = seed;
    opt.seconds = double(seconds);
    opt.trace = trace == 1;
    bool iss = workload == "ladder_ise" || workload == "ladder_ca";
    if (iss) {
        std::string problem = perfbench::issEnvironmentProblem();
        if (!problem.empty()) {
            std::fprintf(stderr, "perfbench: refusing to run: %s\n",
                         problem.c_str());
            return 3;
        }
    }

    try {
        perfbench::Report rep(opt.trace);
        if (workload == "ladder_ise")
            perfbench::runLadder(opt, jaavr::CpuMode::ISE, rep);
        else if (workload == "ladder_ca")
            perfbench::runLadder(opt, jaavr::CpuMode::CA, rep);
        else if (workload == "service_sign_burst")
            perfbench::runSignBurst(opt, rep);
        else if (workload == "service_mixed_paced")
            perfbench::runMixedPaced(opt, rep);
        else
            return usage("unknown workload");
        std::printf("%s\n", rep.json().c_str());
        std::fflush(stdout);
        return rep.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
