/**
 * @file
 * jaavr-gdb: GDB Remote Serial Protocol server for the JAAVR ISS.
 *
 * Serves an assembled OPF field-arithmetic image (or an external
 * Intel HEX firmware) over TCP so avr-gdb can attach with
 * `target remote :3333` and set breakpoints, watch the result
 * buffers, single-step across MAC-ISE instructions, and inspect the
 * profiler through `monitor` commands. See README.md for a
 * walkthrough stepping opf_mul.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "avr/profiler.hh"
#include "avr/leakage.hh"
#include "avr/vcd.hh"
#include "avrgen/opf_harness.hh"
#include "debug/server.hh"
#include "nt/opf_prime.hh"
#include "obs/flight.hh"
#include "support/ihex.hh"
#include "support/logging.hh"

using namespace jaavr;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "  --port N          TCP port to listen on "
                 "(default 3333, 0 = ephemeral)\n"
                 "  --mode ca|fast|ise  CPU timing/ISE mode "
                 "(default ise)\n"
                 "  --backend reference|superblock\n"
                 "                    ISS execution backend for free "
                 "running\n"
                 "                    (default: JAAVR_ISS_BACKEND or "
                 "superblock)\n"
                 "  --image opf160|opf192|opf256\n"
                 "                    built-in OPF routine image "
                 "(default opf160)\n"
                 "  --load FILE.hex   serve an external Intel HEX "
                 "image instead\n"
                 "  --entry ADDR      initial PC word address "
                 "(default: image start)\n"
                 "  --export-hex FILE write the loaded flash image as "
                 "Intel HEX and exit\n"
                 "  --log FILE        mirror the RSP session to FILE\n"
                 "  --vcd FILE        dump a cycle-accurate VCD "
                 "waveform of the session\n"
                 "  --leak-trace FILE record a synthesized power "
                 "trace of the session\n"
                 "                    (.npy suffix: NumPy vector, "
                 "else CSV; marker metadata\n"
                 "                    goes to FILE.meta.json; "
                 "`monitor leakage` shows status)\n"
                 "  --flight FILE     arm the flight recorder: machine "
                 "traps dump the last\n"
                 "                    events to FILE; `monitor flight "
                 "dump` writes on demand\n"
                 "  --slice N         ISS cycles per continue slice "
                 "(default 200000)\n",
                 argv0);
}

bool
parseBackend(const std::string &s, IssBackend &out)
{
    if (s == "reference")
        out = IssBackend::Reference;
    else if (s == "superblock")
        out = IssBackend::Superblock;
    else
        return false;
    return true;
}

bool
parseMode(const std::string &s, CpuMode &out)
{
    if (s == "ca")
        out = CpuMode::CA;
    else if (s == "fast")
        out = CpuMode::FAST;
    else if (s == "ise")
        out = CpuMode::ISE;
    else
        return false;
    return true;
}

/** Non-0xffff flash runs as an Intel HEX image (LE byte order). */
IhexImage
dumpFlash(const Machine &m)
{
    IhexImage img;
    std::vector<uint8_t> run;
    uint32_t runStart = 0;
    for (uint32_t w = 0; w <= Machine::flashWords; w++) {
        uint16_t v = w < Machine::flashWords ? m.flashWord(w) : 0xffff;
        if (v != 0xffff) {
            if (run.empty())
                runStart = 2 * w;
            run.push_back(static_cast<uint8_t>(v));
            run.push_back(static_cast<uint8_t>(v >> 8));
        } else if (!run.empty()) {
            img.add(runStart, run);
            run.clear();
        }
    }
    return img;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint16_t port = 3333;
    CpuMode mode = CpuMode::ISE;
    bool backendSet = false;
    IssBackend backend = IssBackend::Superblock;
    std::string image = "opf160";
    std::string loadFile, exportFile, logPath, vcdPath, leakPath;
    std::string flightPath;
    long entry = -1;
    uint64_t slice = 200000;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--port") {
            port = static_cast<uint16_t>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--mode") {
            if (!parseMode(next(), mode)) {
                std::fprintf(stderr, "unknown mode (ca|fast|ise)\n");
                return 2;
            }
        } else if (arg == "--backend") {
            if (!parseBackend(next(), backend)) {
                std::fprintf(stderr, "unknown backend "
                             "(reference|superblock)\n");
                return 2;
            }
            backendSet = true;
        } else if (arg == "--image") {
            image = next();
        } else if (arg == "--load") {
            loadFile = next();
        } else if (arg == "--entry") {
            entry = std::strtol(next(), nullptr, 0);
        } else if (arg == "--export-hex") {
            exportFile = next();
        } else if (arg == "--log") {
            logPath = next();
        } else if (arg == "--vcd") {
            vcdPath = next();
        } else if (arg == "--leak-trace") {
            leakPath = next();
        } else if (arg == "--flight") {
            flightPath = next();
        } else if (arg == "--slice") {
            slice = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    // --- build the target machine ---------------------------------
    std::unique_ptr<OpfAvrLibrary> lib;
    std::unique_ptr<Machine> bare;
    Machine *m = nullptr;
    SymbolTable symbols;
    if (!loadFile.empty()) {
        std::ifstream in(loadFile, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", loadFile.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        IhexImage img;
        std::string err;
        if (!parseIhex(text.str(), img, &err)) {
            std::fprintf(stderr, "%s: %s\n", loadFile.c_str(),
                         err.c_str());
            return 1;
        }
        if (img.empty()) {
            std::fprintf(stderr, "%s: empty image\n", loadFile.c_str());
            return 1;
        }
        bare = std::make_unique<Machine>(mode);
        bare->loadProgram(img.words(), img.loadWordAddr());
        bare->setPc(entry >= 0 ? static_cast<uint32_t>(entry)
                               : img.loadWordAddr());
        m = bare.get();
        std::printf("loaded %zu bytes from %s at word 0x%x\n",
                    img.byteCount(), loadFile.c_str(),
                    img.loadWordAddr());
    } else {
        unsigned k;
        if (image == "opf160")
            k = 144;
        else if (image == "opf192")
            k = 176;
        else if (image == "opf256")
            k = 240;
        else {
            std::fprintf(stderr,
                         "unknown image %s (opf160|opf192|opf256)\n",
                         image.c_str());
            return 2;
        }
        OpfPrime prime = makeOpf(0xff4c, k);
        lib = std::make_unique<OpfAvrLibrary>(prime, mode);
        m = &lib->machine();
        symbols = lib->symbols();
        if (entry >= 0)
            m->setPc(static_cast<uint32_t>(entry));
        std::printf("image %s (%u-bit OPF), mode %s, %zu ROM bytes\n",
                    image.c_str(), 32 * (prime.k / 32 + 1),
                    cpuModeName(mode), lib->romBytes());
    }

    // The flag overrides the environment's JAAVR_ISS_BACKEND pick
    // (already applied at machine construction). With stops armed the
    // server runs on the reference loop regardless; the backend
    // governs free-running continues.
    if (backendSet)
        m->setBackend(backend);
    std::printf("ISS backend: %s\n", issBackendName(m->backend()));

    if (!exportFile.empty()) {
        std::ofstream out(exportFile, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         exportFile.c_str());
            return 1;
        }
        out << writeIhex(dumpFlash(*m));
        std::printf("wrote %s\n", exportFile.c_str());
        return 0;
    }

    // --- serve ----------------------------------------------------
    DebugTarget target(*m);
    TcpServerTransport tcp;
    if (!tcp.listen(port)) {
        std::fprintf(stderr, "cannot listen on port %u\n", port);
        return 1;
    }
    std::printf("listening on 127.0.0.1:%u — connect with:\n"
                "  avr-gdb -ex 'target remote :%u'\n",
                tcp.port(), tcp.port());
    std::fflush(stdout);
    while (!tcp.acceptClient())
        usleep(20000);
    std::printf("client attached\n");
    std::fflush(stdout);

    VcdWriter vcd;
    if (!vcdPath.empty()) {
        m->setWaveSink(&vcd);
        if (!vcd.open(vcdPath, *m))
            return 1;
        std::printf("dumping VCD waveform to %s\n", vcdPath.c_str());
    }

    LeakTracer leak;
    if (!leakPath.empty()) {
        m->setLeakSink(&leak);
        leak.begin(*m);
        std::printf("recording leakage trace for %s (model %s)\n",
                    leakPath.c_str(), leak.model().describe().c_str());
    }

    obs::FlightRecorder flight;
    std::unique_ptr<obs::MachineTrapFlight> trapFlight;
    if (!flightPath.empty()) {
        flight.setDumpPath(flightPath);
        trapFlight =
            std::make_unique<obs::MachineTrapFlight>(flight, "iss");
        m->setTrapSink(trapFlight.get());
        std::printf("flight recorder armed, dumps to %s\n",
                    flightPath.c_str());
    }

    CallGraphProfiler profiler(*m, symbols);
    GdbServer server(target, tcp);
    server.setSymbols(symbols);
    server.setProfiler(&profiler);
    if (!leakPath.empty())
        server.setLeakTracer(&leak);
    if (!flightPath.empty())
        server.setFlightRecorder(&flight, flightPath);
    server.setSliceCycles(slice);
    std::FILE *log = nullptr;
    if (!logPath.empty()) {
        log = std::fopen(logPath.c_str(), "w");
        if (!log) {
            std::fprintf(stderr, "cannot write %s\n", logPath.c_str());
            return 1;
        }
        server.setLog(log);
    }
    server.serve();
    if (!leakPath.empty()) {
        leak.end();
        bool npy = leakPath.size() > 4 &&
                   leakPath.compare(leakPath.size() - 4, 4, ".npy") ==
                       0;
        bool ok = npy ? leak.writeNpy(leakPath)
                      : leak.writeCsv(leakPath);
        JsonLine stamp;
        stamp.str("tool", "jaavr-gdb").str("trace", leakPath);
        ok = leak.writeMeta(leakPath + ".meta.json", stamp) && ok;
        if (!ok)
            std::fprintf(stderr, "cannot write %s\n", leakPath.c_str());
        std::printf("leakage: %zu samples over %llu cycles -> %s\n",
                    leak.samples().size(),
                    static_cast<unsigned long long>(leak.time()),
                    leakPath.c_str());
    }
    if (vcd.active()) {
        std::printf("VCD: %llu instructions over %llu cycles -> %s\n",
                    static_cast<unsigned long long>(vcd.samples()),
                    static_cast<unsigned long long>(vcd.time()),
                    vcdPath.c_str());
        vcd.close();
    }
    if (log)
        std::fclose(log);
    tcp.shutdown();
    std::printf("session ended\n");
    return 0;
}
