/**
 * @file
 * jaavr-ctcheck: static constant-time verification of every shipped
 * assembly routine (src/avrgen/ct_check.hh).
 *
 * Walks the harness routine tables (avrgen/opf_harness.hh) — the OPF
 * set for the paper's reference prime in CA and ISE mode, and the
 * secp160r1 set in ISE mode — checking each distinct routine at its
 * harness load address with the harness entry state (Y = &a, Z = &b,
 * secrets in the operand buffers) against the contract the table
 * gives it (fieldRoutineCtSpec). Emits one JSON line per routine plus
 * one per finding to CT_report.json and exits non-zero unless every
 * routine satisfies its contract; a routine without one fails.
 *
 * Usage: jaavr-ctcheck [--out CT_report.json] [-v]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "avrgen/ct_check.hh"
#include "avrgen/opf_harness.hh"
#include "nt/opf_prime.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace jaavr;

namespace
{

/** One routine to check: a row of a loaded harness table. */
struct Job
{
    std::string name; ///< report name
    const FieldRoutine &row;
    size_t words;     ///< operand width of the row's set
};

/** The row laid out in an otherwise erased flash image. */
std::vector<uint16_t>
flashOf(const FieldRoutine &row)
{
    std::vector<uint16_t> flash(Machine::flashWords, 0xffff);
    for (size_t i = 0; i < row.program.words.size(); i++)
        flash[row.entry + i] = row.program.words[i];
    return flash;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out = "CT_report.json";
    bool verbose = false;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "-v") ||
                   !std::strcmp(argv[i], "--verbose")) {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out CT_report.json] [-v]\n",
                         argv[0]);
            return 2;
        }
    }

    // Report names: "<set>_<op>"; a row whose routine differs by mode
    // (the OPF multiplication) is checked in both, suffixed _native
    // and _ise.
    OpfAvrLibrary opfNative(paperOpfPrime(), CpuMode::CA);
    OpfAvrLibrary opfIse(paperOpfPrime(), CpuMode::ISE);
    Secp160AvrLibrary secp(CpuMode::ISE);
    std::vector<Job> jobs;
    for (size_t i = 0; i < opfIse.routines().size(); i++) {
        const FieldRoutine &n = opfNative.routines()[i];
        const FieldRoutine &r = opfIse.routines()[i];
        std::string name = "opf160" + r.name.substr(3);
        if (n.program.words == r.program.words) {
            jobs.push_back({name, r, opfIse.words()});
        } else {
            jobs.push_back({name + "_native", n, opfNative.words()});
            jobs.push_back({name + "_ise", r, opfIse.words()});
        }
    }
    for (const FieldRoutine &r : secp.routines())
        jobs.push_back({"secp160r1" + r.name.substr(7), r, secp.words()});

    // Truncate the report file: the checker is a whole-state tool,
    // not an append-only trajectory.
    if (FILE *f = std::fopen(out.c_str(), "w"))
        std::fclose(f);

    bool allPass = true;
    for (const Job &job : jobs) {
        std::optional<CtCheckSpec> spec =
            fieldRoutineCtSpec(job.row, job.words);
        if (!spec) {
            std::printf("%-20s has no constant-time contract: FAIL\n",
                        job.name.c_str());
            allPass = false;
            continue;
        }
        spec->routine = job.name;
        CtReport rep = ctCheck(flashOf(job.row), *spec);
        allPass = allPass && rep.pass;

        std::printf("%-20s %-14s %s  (%zu findings, %zu waived, "
                    "%llu states, %llu mem passes)\n",
                    rep.routine.c_str(), ctContractName(rep.contract),
                    rep.pass ? "PASS" : "FAIL", rep.findings.size(),
                    rep.waivedCount(),
                    static_cast<unsigned long long>(rep.instsAnalyzed),
                    static_cast<unsigned long long>(rep.memPasses));

        JsonLine line;
        line.str("kind", "routine")
            .str("routine", rep.routine)
            .str("contract", ctContractName(rep.contract))
            .num("pass", rep.pass ? 1.0 : 0.0)
            .num("findings", double(rep.findings.size()))
            .num("waived", double(rep.waivedCount()))
            .num("violations", double(rep.violationCount()))
            .num("states", double(rep.instsAnalyzed))
            .num("rom_bytes", double(job.row.program.romBytes()));
        appendJsonLine(out, line);

        for (const CtFinding &f : rep.findings) {
            if (verbose || !f.waived)
                std::printf("    pc=0x%04x %-16s %s%s\n", f.pc,
                            ctFindingClassName(f.cls),
                            f.disasm.c_str(),
                            f.waived ? "  [waived]" : "");
            JsonLine fl;
            fl.str("kind", "finding")
                .str("routine", rep.routine)
                .num("pc", double(f.pc))
                .str("class", ctFindingClassName(f.cls))
                .str("disasm", f.disasm)
                .num("waived", f.waived ? 1.0 : 0.0);
            appendJsonLine(out, fl);
        }
    }

    std::printf("jaavr-ctcheck: %s (%zu routines, report: %s)\n",
                allPass ? "all contracts hold" : "CONTRACT VIOLATIONS",
                jobs.size(), out.c_str());
    return allPass ? 0 : 1;
}
