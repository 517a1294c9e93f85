#include "avrgen/opf_harness.hh"

#include "avrgen/secp160_routines.hh"
#include "support/logging.hh"

namespace jaavr
{

using W = FieldAvrLibrary::W;

namespace
{

/** Flash word address of each FieldOp row. */
constexpr uint32_t kEntry[] = {0x0000, 0x1000, 0x2000, 0x4000, 0x6000};

FieldRoutine
row(FieldOp op, const std::string &name, const std::string &source)
{
    return {name, assemble(source, name), kEntry[size_t(op)]};
}

std::vector<uint8_t>
toBytes(const W &w)
{
    std::vector<uint8_t> out;
    out.reserve(w.size() * 4);
    for (uint32_t word : w) {
        out.push_back(static_cast<uint8_t>(word));
        out.push_back(static_cast<uint8_t>(word >> 8));
        out.push_back(static_cast<uint8_t>(word >> 16));
        out.push_back(static_cast<uint8_t>(word >> 24));
    }
    return out;
}

W
fromBytes(const std::vector<uint8_t> &bytes)
{
    W out(bytes.size() / 4, 0);
    for (size_t i = 0; i < bytes.size(); i++)
        out[i / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (i % 4));
    return out;
}

/**
 * Each row's timing contract: (name, contract, waived branch sites,
 * b operand secret too). OPF add/sub/mul (both variants) are constant
 * time but for the two final-fold ripple branches of emitFinalFold
 * (paper Section III-A, probability 2^-32 per round). secp160r1's
 * pseudo-Mersenne fold ripple is ordinary data-dependent control
 * flow, and the paper concedes the Kaliski inverses (Section V-B).
 */
constexpr struct
{
    const char *name;
    CtContract contract;
    unsigned waivedBranches;
    bool secretB;
} kContracts[] = {
    {"opf_add", CtContract::ConstantTime, 2, true},
    {"opf_sub", CtContract::ConstantTime, 2, true},
    {"opf_mul", CtContract::ConstantTime, 2, true},
    {"opf_inv", CtContract::VariableTime, 0, false},
    {"secp160_add", CtContract::VariableTime, 0, true},
    {"secp160_sub", CtContract::VariableTime, 0, true},
    {"secp160_mul", CtContract::VariableTime, 0, true},
    {"secp160_mul_ise", CtContract::VariableTime, 0, true},
    {"secp160_inv", CtContract::VariableTime, 0, false},
};

} // anonymous namespace

std::vector<FieldRoutine>
opfRoutines(const OpfPrime &prime, CpuMode mode)
{
    return {
        row(FieldOp::Add, "opf_add", genOpfAddSub(prime, false)),
        row(FieldOp::Sub, "opf_sub", genOpfAddSub(prime, true)),
        row(FieldOp::Mul, "opf_mul",
            mode == CpuMode::ISE ? genOpfMulIse(prime)
                                 : genOpfMulNative(prime)),
        row(FieldOp::Inv, "opf_inv",
            genOpfMontInverse(prime, kEntry[size_t(FieldOp::Inv)])),
    };
}

std::vector<FieldRoutine>
secp160Routines(CpuMode mode)
{
    std::vector<FieldRoutine> t{
        row(FieldOp::Add, "secp160_add", genSecp160AddSub(false)),
        row(FieldOp::Sub, "secp160_sub", genSecp160AddSub(true)),
        row(FieldOp::Mul, "secp160_mul", genSecp160Mul()),
        row(FieldOp::Inv, "secp160_inv", genSecp160Inverse()),
    };
    if (mode == CpuMode::ISE)
        t.push_back(
            row(FieldOp::MulIse, "secp160_mul_ise", genSecp160MulIse()));
    return t;
}

std::optional<CtCheckSpec>
fieldRoutineCtSpec(const FieldRoutine &r, size_t words)
{
    for (const auto &c : kContracts) {
        if (r.name != c.name)
            continue;
        const uint16_t bytes = uint16_t(4 * words);
        CtCheckSpec spec;
        spec.entry = r.entry;
        spec.contract = c.contract;
        spec.waivedBranches = c.waivedBranches;
        spec.secrets = {{OpfMemoryMap::aAddr, bytes}};
        if (c.secretB)
            spec.secrets.push_back({OpfMemoryMap::bAddr, bytes});
        spec.entryRegs = {
            {28, uint8_t(OpfMemoryMap::aAddr & 0xff)},
            {29, uint8_t(OpfMemoryMap::aAddr >> 8)},
            {30, uint8_t(OpfMemoryMap::bAddr & 0xff)},
            {31, uint8_t(OpfMemoryMap::bAddr >> 8)},
        };
        return spec;
    }
    return std::nullopt;
}

FieldAvrLibrary::FieldAvrLibrary(CpuMode mode, size_t words,
                                 std::vector<FieldRoutine> routines)
    : s(words), zero(words, 0),
      machine_(std::make_unique<Machine>(mode)), table(std::move(routines))
{
    for (const FieldRoutine &r : table)
        machine_->loadProgram(r.program.words, r.entry);
}

OpfRun
FieldAvrLibrary::run(FieldOp op, const W &a, const W &b)
{
    if (a.size() != s || b.size() != s)
        panic("FieldAvrLibrary: operands must be %zu words", s);
    machine_->writeBytes(OpfMemoryMap::aAddr, toBytes(a));
    machine_->writeBytes(OpfMemoryMap::bAddr, toBytes(b));
    machine_->setY(OpfMemoryMap::aAddr);
    machine_->setZ(OpfMemoryMap::bAddr);
    machine_->setSp(0x10ff);
    uint64_t insts = machine_->stats().instructions;
    RunResult rr = machine_->call(table[size_t(op)].entry);
    OpfRun out;
    out.cycles = rr.cycles;
    out.trap = rr.trap;
    out.instructions = machine_->stats().instructions - insts;
    out.result = fromBytes(
        machine_->readBytes(OpfMemoryMap::resultAddr, 4 * s));
    return out;
}

SymbolTable
FieldAvrLibrary::symbols() const
{
    SymbolTable st;
    for (const FieldRoutine &r : table)
        st.addProgram(r.name, r.program, r.entry);
    return st;
}

size_t
FieldAvrLibrary::romBytes() const
{
    size_t bytes = 0;
    for (size_t i = 0; i <= size_t(FieldOp::Inv); i++)
        bytes += table[i].program.romBytes();
    return bytes;
}

OpfAvrLibrary::OpfAvrLibrary(const OpfPrime &prime, CpuMode mode)
    : FieldAvrLibrary(mode, prime.k / 32 + 1, opfRoutines(prime, mode)),
      opf(prime), fieldModel(prime)
{
}

OpfCheckedRun
OpfAvrLibrary::mulChecked(const W &a, const W &b)
{
    OpfCheckedRun out;
    out.first = mul(a, b);
    OpfRun second = mul(a, b);
    out.redundantOk = second.result == out.first.result &&
                      second.trap == out.first.trap;
    out.coherentOk = coherent(out.first);
    return out;
}

bool
OpfAvrLibrary::coherent(const OpfRun &r) const
{
    if (r.trap.kind != TrapKind::None)
        return false;
    if (r.result.size() != words())
        return false;
    // The incomplete representation bounds the value by 2^(32 s);
    // fromBytes() guarantees that structurally, so the meaningful
    // remaining check is the Montgomery round trip on the canonical
    // residue: canonical(r) must re-enter and leave the Montgomery
    // domain unchanged under the host model.
    BigUInt canonical = fieldModel.canonical(r.result);
    if (!(canonical < fieldModel.modulus()))
        return false;
    return fieldModel.fromMont(fieldModel.toMont(canonical)) == canonical;
}

Secp160AvrLibrary::Secp160AvrLibrary(CpuMode mode)
    : FieldAvrLibrary(mode, 5, secp160Routines(mode))
{
}

OpfRun
Secp160AvrLibrary::mulIse(const W &a, const W &b)
{
    if (routines().size() <= size_t(FieldOp::MulIse))
        panic("Secp160AvrLibrary::mulIse requires ISE mode");
    return run(FieldOp::MulIse, a, b);
}

} // namespace jaavr
