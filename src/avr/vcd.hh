/**
 * @file
 * Cycle-accurate VCD (Value Change Dump, IEEE 1364) waveform writer
 * for the ISS, attached through the Machine's WaveSink observer.
 *
 * One VCD time unit is one CPU cycle (declared as 1 us, i.e. a core
 * clocked at 1 MHz, so GTKWave's time axis doubles as a microsecond
 * axis at the paper's reference frequency). Dumped signals:
 *
 *   pc[16], sp[16]        program counter (word address), stack pointer
 *   sreg_i .. sreg_c      the eight SREG bits as individual wires
 *   call_depth[8]         CALL/RCALL/ICALL minus RET/RETI nesting
 *   op[8]                 mnemonic ordinal of the retired instruction
 *   mac_acc[72]           the MAC accumulator R8..R0 (Fig. 1)
 *   mac_cnt[3]            the MAC barrel-shifter nibble counter
 *   mac_shadow[2]         outstanding Algorithm-2 shadow cycles
 *   maccr[8]              the MACCR extension register
 *   trap[4]               TrapKind when a run stops, 0 while running
 *
 * The header carries no date or host information and values are
 * emitted change-only in fixed signal order, so two identical runs
 * produce byte-identical files (pinned by tests/test_vcd.cc).
 *
 * Sampling requires current architectural state after every retired
 * instruction, so an *active* writer routes run() through the
 * reference loop; while closed it is invisible — the superblock
 * backend runs with exactly zero added cycles (also pinned by
 * tests/test_vcd.cc).
 */

#ifndef JAAVR_AVR_VCD_HH
#define JAAVR_AVR_VCD_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "avr/machine.hh"

namespace jaavr
{

class VcdWriter : public WaveSink
{
  public:
    VcdWriter() = default;
    ~VcdWriter() override;

    VcdWriter(const VcdWriter &) = delete;
    VcdWriter &operator=(const VcdWriter &) = delete;

    /**
     * Open @p path, emit the header and an initial $dumpvars snapshot
     * of @p m at time 0. Recording starts at the machine's next
     * run()/call(). Returns false (with a warning) if the file cannot
     * be created.
     */
    bool open(const std::string &path, const Machine &m);

    /** Flush and close the dump (also done by the destructor). */
    void close();

    // WaveSink interface -------------------------------------------------
    bool active() const override { return file != nullptr; }
    void onStep(const Machine &m, uint32_t pc, const Inst &inst,
                unsigned cycles) override;
    void onTrap(const Machine &m, const Trap &trap) override;

    /** Current dump time = cumulative cycles since open(). */
    uint64_t time() const { return now; }

    /** Retired instructions sampled since open(). */
    uint64_t samples() const { return sampleCount; }

  private:
    /** Fixed signal indices (also the emission order). */
    enum Sig : unsigned
    {
        SigPc = 0,
        SigSregI, SigSregT, SigSregH, SigSregS,
        SigSregV, SigSregN, SigSregZ, SigSregC,
        SigSp,
        SigCallDepth,
        SigOp,
        SigMacAcc,
        SigMacCnt,
        SigMacShadow,
        SigMaccr,
        SigTrap,
        kNumSigs,
    };

    /** VCD identifier for signal @p s (printable ASCII from '!'). */
    static char id(unsigned s) { return static_cast<char>('!' + s); }

    /** Format the current value of every signal into @p vals. */
    void sample(const Machine &m, uint8_t op_ord, uint8_t trap_ord,
                std::string vals[kNumSigs]) const;

    /** Emit changed signals (all of them when @p force) at time now. */
    void emit(const std::string vals[kNumSigs], bool force);

    std::FILE *file = nullptr;
    uint64_t now = 0;
    uint64_t stampedTime = 0; ///< time of the last '#' record written
    uint64_t sampleCount = 0;
    uint8_t callDepth = 0;
    uint8_t lastOpOrd = 0; ///< op wire value (held across onTrap)
    std::string last[kNumSigs];
};

} // namespace jaavr

#endif // JAAVR_AVR_VCD_HH
