//===-- tests/CorpusTest.cpp - Golden-corpus regression suite -------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden-corpus regression tests: every program under tests/corpus/
/// has a checked-in expected JSON report, and the analysis must
/// reproduce it byte-for-byte at --jobs 1 and 4. Regenerate goldens
/// after an intentional report change with DMM_UPDATE_GOLDEN=1 (then
/// review the diff).
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadMemberAnalysis.h"
#include "analysis/Report.h"
#include "driver/Frontend.h"
#include "interp/Interpreter.h"
#include "support/ThreadPool.h"
#include "vm/VM.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dmm;

namespace {

struct CorpusFile {
  const char *Name;
  bool IsLibrary = false;
};

struct CorpusEntry {
  const char *Name;
  std::vector<CorpusFile> Files;
};

/// Without this, gtest prints the parameter as raw bytes, pointer
/// values included, so the listed test names change from run to run.
void PrintTo(const CorpusEntry &Entry, std::ostream *OS) {
  *OS << '"' << Entry.Name << '"';
}

const CorpusEntry kCorpus[] = {
    {"basics", {{"basics.mcc"}}},
    {"inheritance", {{"inheritance.mcc"}}},
    {"unions", {{"unions.mcc"}}},
    {"casts", {{"casts.mcc"}}},
    {"sizeof", {{"sizeof.mcc"}}},
    {"ptrmember", {{"ptrmember.mcc"}}},
    {"dealloc", {{"dealloc.mcc"}}},
    {"volatile", {{"volatile.mcc"}}},
    {"deadcode", {{"deadcode.mcc"}}},
    {"overloads", {{"overloads.mcc"}}},
    {"multifile", {{"multifile_lib.mcc"}, {"multifile_app.mcc"}}},
    {"library", {{"library_vendor.mcc", /*IsLibrary=*/true},
                 {"library_app.mcc"}}},
};

std::filesystem::path corpusDir() { return DMM_CORPUS_DIR; }

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

/// Compiles a corpus program. Buffer names are the bare file names so
/// the goldens stay machine-independent.
std::unique_ptr<Compilation> compileEntry(const CorpusEntry &Entry) {
  std::vector<SourceFile> Files;
  for (const CorpusFile &F : Entry.Files)
    Files.push_back({F.Name, readFile(corpusDir() / F.Name), F.IsLibrary});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  EXPECT_TRUE(C->Success) << Entry.Name
                          << " does not compile: " << Diag.str();
  return C;
}

/// Renders the report exactly like the CLI's --json path (provenance
/// recorded, locations resolved through the SourceManager).
std::string renderReport(Compilation &C) {
  AnalysisOptions Opts;
  Opts.RecordProvenance = true;
  DeadMemberAnalysis A(C.context(), C.hierarchy(), Opts);
  DeadMemberResult R = A.run(C.mainFunction());
  std::ostringstream OS;
  printJsonReport(OS, C.context(), R, &C.SM);
  return OS.str();
}

/// Locates the first differing line so a corpus failure reads like a
/// diff rather than two walls of JSON.
std::string firstDifference(const std::string &Expected,
                            const std::string &Actual) {
  std::istringstream E(Expected), A(Actual);
  std::string EL, AL;
  size_t Line = 1;
  while (true) {
    bool GotE = static_cast<bool>(std::getline(E, EL));
    bool GotA = static_cast<bool>(std::getline(A, AL));
    if (!GotE && !GotA)
      return "(no textual difference found)";
    if (GotE != GotA || EL != AL)
      return "first difference at line " + std::to_string(Line) +
             "\n  expected: " + (GotE ? EL : "<end of report>") +
             "\n  actual:   " + (GotA ? AL : "<end of report>");
    ++Line;
  }
}

class CorpusTest : public ::testing::TestWithParam<CorpusEntry> {
protected:
  void TearDown() override { setGlobalJobs(1); }
};

TEST_P(CorpusTest, AllPipelinesMatchGolden) {
  const CorpusEntry &Entry = GetParam();
  auto C = compileEntry(Entry);
  ASSERT_TRUE(C->Success);

  setGlobalJobs(1);
  const std::string Report = renderReport(*C);
  const std::filesystem::path GoldenPath =
      corpusDir() / (std::string(Entry.Name) + ".expected.json");

  const char *Update = std::getenv("DMM_UPDATE_GOLDEN");
  if (Update && *Update && std::string(Update) != "0") {
    std::ofstream Out(GoldenPath, std::ios::binary);
    ASSERT_TRUE(Out.good()) << "cannot write " << GoldenPath;
    Out << Report;
  }

  const std::string Golden = readFile(GoldenPath);
  EXPECT_EQ(Golden, Report)
      << "report diverges from golden " << GoldenPath.filename() << "\n"
      << firstDifference(Golden, Report);

  setGlobalJobs(4);
  const std::string Parallel = renderReport(*C);
  EXPECT_EQ(Golden, Parallel) << "report diverges from golden at --jobs 4\n"
                              << firstDifference(Golden, Parallel);
}

INSTANTIATE_TEST_SUITE_P(Programs, CorpusTest, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<CorpusEntry> &I) {
                           return std::string(I.param.Name);
                         });

//===----------------------------------------------------------------------===//
// Distilled fuzzed corpus (ISSUE 8)
//===----------------------------------------------------------------------===//
//
// tests/corpus/fuzzed/ holds the coverage-distilled programs picked by
// `dmm-fuzz --coverage-sweep --distill` (docs/TESTING.md §liveness-
// driven generation). They are single-file programs with no goldens;
// the contract is *internal agreement*: the analysis at --jobs 1 and 4
// must produce one identical report, and both execution engines must
// produce one identical observable run.

std::vector<std::string> fuzzedCorpusFiles() {
  std::vector<std::string> Names;
  const std::filesystem::path Dir = corpusDir() / "fuzzed";
  std::error_code EC;
  for (std::filesystem::directory_iterator It(Dir, EC), End;
       !EC && It != End; It.increment(EC))
    if (It->path().extension() == ".mcc")
      Names.push_back(It->path().filename().string());
  std::sort(Names.begin(), Names.end());
  return Names;
}

std::unique_ptr<Compilation> compileFuzzed(const std::string &Name) {
  std::vector<SourceFile> Files;
  Files.push_back({Name, readFile(corpusDir() / "fuzzed" / Name),
                   /*IsLibrary=*/false});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  EXPECT_TRUE(C->Success) << Name << " does not compile: " << Diag.str();
  return C;
}

class FuzzedCorpusTest : public ::testing::TestWithParam<std::string> {
protected:
  void TearDown() override { setGlobalJobs(1); }
};

TEST_P(FuzzedCorpusTest, PipelinesAgreeAcrossJobs) {
  auto C = compileFuzzed(GetParam());
  ASSERT_TRUE(C->Success);

  std::string Reference;
  for (unsigned Jobs : {1u, 4u}) {
    setGlobalJobs(Jobs);
    const std::string Report = renderReport(*C);
    if (Reference.empty())
      Reference = Report; // The jobs=1 report is the reference.
    EXPECT_EQ(Reference, Report)
        << "report diverges at --jobs " << Jobs << "\n"
        << firstDifference(Reference, Report);
  }
}

TEST_P(FuzzedCorpusTest, EnginesAgreeByteForByte) {
  auto C = compileFuzzed(GetParam());
  ASSERT_TRUE(C->Success);

  Interpreter Tree(C->context(), C->hierarchy(), {});
  ExecResult T = Tree.run(C->mainFunction());
  ASSERT_TRUE(T.Completed) << "tree-walker error: " << T.Error;

  vm::VM M(C->context(), C->hierarchy(), {});
  ExecResult V = M.run(C->mainFunction());
  ASSERT_TRUE(V.Completed) << "vm error: " << V.Error;

  EXPECT_EQ(T.Output, V.Output);
  EXPECT_EQ(T.ExitCode, V.ExitCode);
  EXPECT_EQ(T.Error, V.Error);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, FuzzedCorpusTest, ::testing::ValuesIn(fuzzedCorpusFiles()),
    [](const ::testing::TestParamInfo<std::string> &I) {
      std::string Name = I.param;
      for (char &Ch : Name)
        if (!std::isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

} // namespace
