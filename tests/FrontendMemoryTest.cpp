//===-- tests/FrontendMemoryTest.cpp - Frontend heap budget ---------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The frontend's cost is mostly memory: page faults on fresh heap, not
// instructions. This pins its peak heap per source byte on the largest
// paper program, jikes as the paper suite synthesizes it (fixed seed,
// split into several files), counted by the telemetry layer's allocation
// accounting: deterministic, no timing.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Synthesizer.h"
#include "driver/Frontend.h"
#include "telemetry/MemoryAccounting.h"
#include "telemetry/Telemetry.h"

#include "gtest/gtest.h"

using namespace dmm;

namespace {

TEST(FrontendMemory, JikesPeakHeapIsAtMost24BytesPerSourceByte) {
  if (!memacct::available())
    GTEST_SKIP() << "usable-size accounting unavailable on this platform";
  std::vector<SourceFile> Files;
  for (GeneratedBenchmark &G : paperBenchmarkPrograms())
    if (G.Spec.Name == "jikes")
      Files = std::move(G.Files);
  ASSERT_FALSE(Files.empty());
  size_t SourceBytes = 0;
  for (const SourceFile &F : Files)
    SourceBytes += F.Text.size();

  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    Span Frontend("frontend");
    auto C = compileProgram(Files); // The copy of Files counts too.
    ASSERT_TRUE(C->Success);
  }
  int64_t PeakBytes = -1;
  for (const SpanRecord &R : Tel.spans())
    if (R.Name == "frontend")
      PeakBytes = R.MemPeakBytes;
  double PerByte = static_cast<double>(PeakBytes) / SourceBytes;
  EXPECT_LE(PerByte, 24.0) << PeakBytes << " bytes of peak heap for "
                           << SourceBytes << " source bytes";
  EXPECT_GT(PerByte, 1.0) << "the accounting saw no allocations";
  RecordProperty("peak_bytes_per_source_byte", std::to_string(PerByte));
}

} // namespace
