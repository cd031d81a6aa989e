//===-- fuzz/Oracles.h - Differential fuzzing oracles -----------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five correctness oracles the fuzzing harness runs every
/// generated (or replayed) program through:
///
///  1. *Differential semantics* — the dead-member-eliminated program
///     must recompile and produce byte-identical observable output and
///     the same exit code as the original (the transformation's
///     behaviour-preservation contract, DeadMemberEliminator.h).
///  2. *Dynamic soundness* — every member whose value is read during
///     interpretation must be classified live by the analysis
///     (DESIGN.md §6; the paper's central invariant).
///  3. *Configuration invariance* — the dead set must grow
///     monotonically with call-graph precision
///     (baseline ⊆ paper, Trivial ⊆ CHA ⊆ RTA ⊆ PTA).
///  4. *Profiler agreement* — the shadow-memory profiler's online
///     dynamic measurements (profiler/ShadowProfiler.h) must equal the
///     allocation-trace replay (trace/DynamicMetrics.h) exactly on the
///     same execution; the two compute the paper's Table 2 numbers by
///     independent mechanisms.
///  5. *Engine equivalence* — the bytecode VM (vm/VM.h) must reproduce
///     the tree-walking interpreter exactly on the same program:
///     byte-identical output, exit code, error message, ReadTrace
///     first-read order, read/write sets, heat counts, allocation
///     trace, and shadow-profiler summary. Only ExecResult::Steps is
///     exempt (the engines count different units); step-limit aborts
///     are therefore compared by error kind alone.
///
/// An oracle failure carries a machine-readable kind plus a
/// human-readable detail; the harness (FuzzMain.cpp) feeds failures to
/// the shrinker (fuzz/Shrinker.h) and records them as artifacts.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_FUZZ_ORACLES_H
#define DMM_FUZZ_ORACLES_H

#include "analysis/DeadMemberAnalysis.h"
#include "transform/DeadMemberEliminator.h"

#include <string>

namespace dmm {
namespace fuzz {

/// Which oracles to run and under which base analysis configuration.
struct OracleConfig {
  bool Semantics = true;
  bool Soundness = true;
  bool Invariance = true;
  bool Profiler = true;
  bool Engine = true;

  /// Base analysis configuration (defaults reproduce the paper's:
  /// RTA call graph, deallocation exemption, union closure).
  AnalysisOptions Analysis;

  /// \name Fault injection (harness self-validation; docs/TESTING.md)
  /// @{
  /// Forwarded to the eliminator: a deliberately buggy transformation
  /// the semantics oracle must catch.
  EliminationFault Fault;
  /// Interpreter-side fault: count reads that only feed delete/free,
  /// breaking the two-sided deallocation exemption the soundness
  /// oracle relies on.
  bool CountDeallocationReads = false;
  /// Bytecode-compiler fault: integer additions compile to an
  /// off-by-one AddII, a deliberate miscompile the engine oracle must
  /// catch (vm/BytecodeCompiler.h, CompilerConfig::FaultAddOffByOne).
  bool VmMiscompile = false;
  /// @}
};

/// The verdict of one program's trip through the oracles.
struct OracleOutcome {
  bool Passed = true;
  /// Empty when Passed; otherwise one of "frontend", "runtime",
  /// "semantics", "soundness", "invariance-monotonic", "profiler",
  /// "engine".
  std::string FailedOracle;
  /// Human-readable failure description (first violation wins).
  std::string Detail;
};

/// Runs \p Source through every enabled oracle, stopping at the first
/// failure. A program that fails to compile or aborts at run time is
/// itself an oracle failure ("frontend" / "runtime"): the generator
/// promises valid programs, so either indicates a generator or
/// pipeline bug worth shrinking.
OracleOutcome runOracles(const std::string &Source,
                         const OracleConfig &Config = {});

} // namespace fuzz
} // namespace dmm

#endif // DMM_FUZZ_ORACLES_H
