/**
 * @file
 * The ISS field-routine harness: binds a generated assembly routine
 * set — the paper's OPF library (Section III) or the secp160r1
 * reference set — to the JAAVR machine model. Each set is one
 * routine table (FieldRoutine rows: name, assembled Program, load
 * entry); the table drives loading, symbols, ROM size and the
 * constant-time contracts jaavr-ctcheck checks, and every row is
 * called with one convention: operands at OpfMemoryMap::aAddr/bAddr
 * with Y = &a and Z = &b, the result read back from resultAddr.
 * This is the measurement apparatus behind Tables I-III.
 */

#ifndef JAAVR_AVRGEN_OPF_HARNESS_HH
#define JAAVR_AVRGEN_OPF_HARNESS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrasm/symbol_table.hh"
#include "avrgen/ct_check.hh"
#include "avrgen/opf_routines.hh"
#include "field/opf_field.hh"

namespace jaavr
{

/** Result of running one field routine on the simulator. */
struct OpfRun
{
    OpfField::Words result;
    uint64_t cycles;
    uint64_t instructions = 0; ///< dynamic instructions retired
    Trap trap;                 ///< ISS trap, kind None on a clean run
};

/**
 * A time-redundant routine execution (see DESIGN.md, "Fault model &
 * hardening"): the routine runs twice and the results are compared.
 * A transient fault — the FaultInjector's plans fire exactly once —
 * perturbs at most one of the runs, so a mismatch or a trap in
 * either run flags the fault.
 */
struct OpfCheckedRun
{
    OpfRun first;          ///< the run whose result would be consumed
    bool redundantOk;      ///< second run matched (result and trap)
    bool coherentOk;       ///< structural self-check on the result

    bool ok() const
    {
        return first.trap.kind == TrapKind::None && redundantOk &&
               coherentOk;
    }
};

/** A routine table's rows, in this order (MulIse: secp160r1, ISE). */
enum class FieldOp : uint8_t { Add, Sub, Mul, Inv, MulIse };

/** One generated routine as the harness loads it. */
struct FieldRoutine
{
    std::string name; ///< symbol name ("opf_mul", "secp160_inv")
    Program program;
    uint32_t entry;   ///< flash word address it is loaded and called at
};

/**
 * The OPF table for @p prime: add, sub, mul (the MAC-unit variant in
 * ISE mode, the native one otherwise), inv.
 */
std::vector<FieldRoutine> opfRoutines(const OpfPrime &prime,
                                      CpuMode mode);

/** The secp160r1 table: add, sub, mul, inv, and mulIse in ISE mode. */
std::vector<FieldRoutine> secp160Routines(CpuMode mode);

/**
 * The constant-time check of table row @p r for operands of @p words
 * 32-bit words: its contract, the harness entry state (Y = &a,
 * Z = &b) and the secret operand bytes. nullopt if the row has no
 * contract — jaavr-ctcheck fails on such a row.
 */
std::optional<CtCheckSpec> fieldRoutineCtSpec(const FieldRoutine &r,
                                              size_t words);

/** A routine table loaded into its own machine. */
class FieldAvrLibrary
{
  public:
    using W = OpfField::Words;

    CpuMode mode() const { return machine_->mode(); }

    /** Operand and result width in 32-bit words. */
    size_t words() const { return s; }

    /** a + b and a - b (mod p), incompletely reduced; the product
     *  (Montgomery a * b * R^-1 for the OPFs, plain a * b mod p for
     *  secp160r1); the Kaliski inverse a^-1 * 2^(32 s) (mod p). */
    OpfRun add(const W &a, const W &b) { return run(FieldOp::Add, a, b); }
    OpfRun sub(const W &a, const W &b) { return run(FieldOp::Sub, a, b); }
    OpfRun mul(const W &a, const W &b) { return run(FieldOp::Mul, a, b); }
    OpfRun inv(const W &a) { return run(FieldOp::Inv, a, zero); }

    /** The loaded table, in FieldOp order. */
    const std::vector<FieldRoutine> &routines() const { return table; }

    /**
     * Flash footprint of the add, sub, mul and inv rows (paper: "ROM
     * bytes"); an alternative multiplication row is not counted.
     */
    size_t romBytes() const;

    /** Underlying machine (for statistics inspection). */
    Machine &machine() { return *machine_; }

    /** Symbols of the loaded routines (for profiler attribution). */
    SymbolTable symbols() const;

  protected:
    FieldAvrLibrary(CpuMode mode, size_t words,
                    std::vector<FieldRoutine> routines);

    OpfRun run(FieldOp op, const W &a, const W &b);

  private:
    size_t s;
    W zero; ///< the unused b operand of inv()
    std::unique_ptr<Machine> machine_;
    std::vector<FieldRoutine> table;
};

/** The paper's OPF routine set for one prime. */
class OpfAvrLibrary : public FieldAvrLibrary
{
  public:
    /**
     * Assemble the routines for @p prime and load them into a machine
     * in @p mode. The multiplication uses the MAC-unit variant when
     * the mode is ISE, the native variant otherwise.
     */
    OpfAvrLibrary(const OpfPrime &prime, CpuMode mode);

    const OpfPrime &prime() const { return opf; }

    /** The host model the routines are validated against. */
    const OpfField &field() const { return fieldModel; }

    /** Time-redundant multiplication with coherence self-check. */
    OpfCheckedRun mulChecked(const W &a, const W &b);

    /**
     * Structural coherence of @p r: no trap, the value is inside the
     * incomplete s-word representation range, and its canonical
     * residue survives a host-side Montgomery-domain round trip.
     * These checks catch marshalling faults and gross corruption;
     * arithmetic faults that stay inside the representation range
     * need the time redundancy of mulChecked() (the incomplete
     * representation admits any value in [0, 2^(32 s)), so a plain
     * result < p test would reject legitimate clean results).
     */
    bool coherent(const OpfRun &r) const;

  private:
    OpfPrime opf;
    OpfField fieldModel; ///< host-side model for coherence checks
};

/** The secp160r1 reference routine set (5-word operands). */
class Secp160AvrLibrary : public FieldAvrLibrary
{
  public:
    explicit Secp160AvrLibrary(CpuMode mode);

    /**
     * The MAC-product multiplication variant (ISE mode only; panics
     * otherwise). Used by the OPF ablation.
     */
    OpfRun mulIse(const W &a, const W &b);
};

} // namespace jaavr

#endif // JAAVR_AVRGEN_OPF_HARNESS_HH
