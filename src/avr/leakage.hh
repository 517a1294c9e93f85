/**
 * @file
 * Side-channel leakage observability: a WaveSink that prices the
 * per-retirement architectural state of the ISS through a
 * Hamming-weight/Hamming-distance power model into a deterministic
 * synthesized power trace (DESIGN.md, "Leakage observability").
 *
 * One sample is produced per retired instruction, stamped with the
 * cumulative cycle count, as a weighted sum of
 *
 *  - the Hamming distance of the whole register file against the
 *    previous retirement (switching activity of the register write
 *    ports — this includes the 72-bit MAC accumulator R0..R8, whose
 *    single-cycle update is the paper's Fig. 1 datapath),
 *  - the Hamming weight of the data-space bus for loads and stores
 *    (value and address; the address is reconstructed from the
 *    post-retirement pointer state for every LD/ST variant),
 *  - the Hamming weight of the MAC accumulator on retirements that
 *    advanced the MAC unit (the accumulator bus of Fig. 1), and
 *  - deterministic pseudo-Gaussian noise seeded per trace, so two
 *    identical runs synthesize byte-identical traces (the same
 *    rerun-determinism contract the VCD writer pins).
 *
 * Sampling needs the machine's architectural state current after
 * every retirement, which only the reference loop provides: an
 * *active* tracer routes run() through the reference loop, an idle
 * (attached but not armed) tracer leaves the superblock backend
 * untouched at exactly zero simulated cycles — pinned
 * by tests/test_leakage.cc, mirroring tests/test_vcd.cc.
 */

#ifndef JAAVR_AVR_LEAKAGE_HH
#define JAAVR_AVR_LEAKAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "avr/machine.hh"
#include "support/json.hh"

namespace jaavr
{

/**
 * Power-model coefficients. The defaults weight the register-file
 * switching and the memory bus equally and add mild measurement
 * noise; tests use noiseSigma = 0 for exact fixtures.
 */
struct LeakModel
{
    double wRegHd = 1.0;   ///< register-file Hamming distance
    double wBusHw = 1.0;   ///< load/store bus value+address weight
    double wMacHw = 0.5;   ///< MAC accumulator weight when it stepped
    double noiseSigma = 0; ///< pseudo-Gaussian noise amplitude

    /** One-line description ("hd+hw sigma=1.5") for reports. */
    std::string describe() const;
};

class LeakTracer : public WaveSink
{
  public:
    LeakTracer() = default;
    explicit LeakTracer(const LeakModel &model) : model_(model) {}

    LeakTracer(const LeakTracer &) = delete;
    LeakTracer &operator=(const LeakTracer &) = delete;

    /**
     * Arm the tracer: clear any previous trace, snapshot @p m's
     * register file as the Hamming-distance reference, and reseed the
     * noise stream with @p noise_seed. Recording starts at the
     * machine's next run()/call().
     */
    void begin(const Machine &m, uint64_t noise_seed = 0);

    /** Disarm (captured samples stay readable until the next begin). */
    void end() { armed = false; }

    const LeakModel &model() const { return model_; }
    void setModel(const LeakModel &m) { model_ = m; }

    // WaveSink interface -------------------------------------------------
    bool active() const override { return armed; }
    void onStep(const Machine &m, uint32_t pc, const Inst &inst,
                unsigned cycles) override;
    void onTrap(const Machine &m, const Trap &trap) override;

    /** Synthesized samples, one per retired instruction. */
    const std::vector<float> &samples() const { return trace; }

    /** Cumulative cycle stamp of each sample (same indexing). */
    const std::vector<uint32_t> &stamps() const { return cycleStamps; }

    /** Cycles covered since begin(). */
    uint64_t time() const { return now; }

    /**
     * Record a named marker at the current sample index (harness-side
     * windowing: ladder steps, field-op boundaries). Markers are
     * cleared by begin().
     */
    void mark(const std::string &label);

    /** Markers as (label, sample index) in insertion order. */
    const std::vector<std::pair<std::string, size_t>> &markers() const
    {
        return marks;
    }

    // Exports ------------------------------------------------------------

    /** "sample,cycle,power" CSV; byte-identical across identical runs. */
    bool writeCsv(const std::string &path) const;

    /**
     * NumPy .npy (format 1.0), one float32 vector of the samples —
     * loadable with numpy.load for offline CPA tooling. No timestamps
     * or host info in the header: byte-identical across reruns.
     */
    bool writeNpy(const std::string &path) const;

    /**
     * JSON-lines metadata: one "trace" line (sample count, cycles,
     * model, seed) plus one "marker" line per marker, each prefixed
     * with the fields of @p stamp.
     */
    bool writeMeta(const std::string &path, const JsonLine &stamp) const;

  private:
    double noise();

    LeakModel model_;
    bool armed = false;
    uint64_t now = 0;
    uint64_t seed = 0;
    uint64_t noiseCounter = 0;
    uint64_t lastMacs = 0;
    std::array<uint8_t, 32> prevRegs{};
    std::vector<float> trace;
    std::vector<uint32_t> cycleStamps;
    std::vector<std::pair<std::string, size_t>> marks;
};

} // namespace jaavr

#endif // JAAVR_AVR_LEAKAGE_HH
