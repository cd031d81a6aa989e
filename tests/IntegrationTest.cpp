//===-- tests/IntegrationTest.cpp - Whole-pipeline integration ------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
//
// End-to-end scenarios over a "kitchen sink" program that exercises every
// MiniC++ feature at once, plus multi-file compilation and the complete
// measure pipeline.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/ProgramStats.h"
#include "telemetry/Stats.h"
#include "telemetry/Telemetry.h"

using namespace dmm;
using namespace dmm::test;

namespace {

const char *KitchenSink = R"(
// A device-driver-flavoured program touching every language feature.
class Register {
public:
  volatile int control;   // live: volatile write
  int shadow;             // dead: write-only mirror
  Register() : control(0), shadow(0) {}
};

class Buffer {
public:
  char bytes[16];
  int used;
  int capacity;           // dead: set, never consulted
  Buffer() : used(0), capacity(16) {}
  void put(char c) {
    bytes[used] = c;
    used = used + 1;
  }
  int checksum() {
    int acc = 0;
    for (int i = 0; i < used; i = i + 1) {
      acc = acc + (int)bytes[i];
    }
    return acc;
  }
};

class Device {
public:
  Register reg;
  Buffer *queue;
  int id;
  int *dmaScratch;        // dead: allocated, freed, never read
  Device(int anId) : id(anId) {
    queue = new Buffer();
    dmaScratch = new int[8];
  }
  virtual ~Device() {
    delete queue;
    free(dmaScratch);
  }
  virtual int service() { return queue->checksum() + id; }
};

class TurboDevice : public Device {
public:
  int boost;
  TurboDevice(int anId, int aBoost) : Device(anId), boost(aBoost) {}
  virtual int service() { return this->Device::service() * boost; }
};

union Packet {
public:
  int word;
  char raw[4];
};

int pump(Device *d, int n) {
  for (int i = 0; i < n; i = i + 1) {
    d->queue->put('a');
    d->reg.control = i; // volatile write
  }
  return d->service();
}

int main() {
  Device base(1);
  TurboDevice *turbo = new TurboDevice(2, 3);

  int total = pump(&base, 3) + pump(turbo, 2);

  Packet p;
  p.word = 256;
  total = total + (int)p.raw[0];

  int Device::* idPtr = &Device::id;
  total = total + base.*idPtr;

  Device *devices[2];
  devices[0] = &base;
  devices[1] = turbo;
  for (int i = 0; i < 2; i = i + 1) {
    total = total + devices[i]->service();
  }

  delete turbo;
  print_str("total=");
  print_int(total);
  return 0;
}
)";

TEST(Integration, KitchenSinkRunsAndAnalyzes) {
  auto C = compileOK(KitchenSink);

  // Execute with full instrumentation.
  AllocationTrace Trace;
  FieldHeat Heat;
  InterpOptions IO;
  IO.Trace = &Trace;
  IO.Heat = &Heat;
  ExecResult E = runOK(*C, IO);
  EXPECT_EQ(E.ExitCode, 0);
  EXPECT_NE(E.Output.find("total="), std::string::npos);
  EXPECT_EQ(Trace.numLeaked(), 0u);

  // Analyze and check the expected classification.
  auto R = analyze(*C);
  auto Dead = deadNames(R);
  EXPECT_TRUE(Dead.count("Register::shadow"));
  EXPECT_TRUE(Dead.count("Buffer::capacity"));
  EXPECT_TRUE(Dead.count("Device::dmaScratch"));
  EXPECT_FALSE(Dead.count("Register::control")); // volatile write
  EXPECT_FALSE(Dead.count("Device::id"));        // pointer-to-member
  EXPECT_FALSE(Dead.count("TurboDevice::boost"));
  // Union closure: word read makes raw live too.
  EXPECT_FALSE(Dead.count("Packet::raw"));

  // Soundness on this program.
  for (const FieldDecl *F : Heat.FirstReads)
    EXPECT_FALSE(R.isDead(F)) << F->qualifiedName();

  // Dynamic metrics come out consistent.
  LayoutEngine L(C->hierarchy());
  DynamicMetrics M = computeDynamicMetrics(Trace, L, R.deadSet());
  EXPECT_GT(M.ObjectSpace, 0u);
  EXPECT_GT(M.DeadMemberSpace, 0u);
  EXPECT_LE(M.HighWaterMarkNoDead, M.HighWaterMark);
}

TEST(Integration, MetricsTableCoversStablePhaseNames) {
  // The phase names in the --metrics table are part of the tool's
  // observable interface (docs/CLI.md documents them; benches and
  // scripts grep for them). Run the full pipeline and pin them down.
  Telemetry Tel;
  {
    TelemetryScope Scope(Tel);
    auto C = compileOK(KitchenSink);
    analyze(*C);
    runOK(*C);
  }
  std::ostringstream OS;
  stats::printMetrics(stats::buildStats(Tel, "deadmember test"), OS);
  std::string Table = OS.str();
  for (const char *Phase :
       {"lex", "parse", "sema", "callgraph", "analysis", "interp"})
    EXPECT_NE(Table.find(Phase), std::string::npos)
        << "metrics table lost phase '" << Phase << "':\n"
        << Table;
  EXPECT_NE(Table.find("lex.tokens"), std::string::npos);
  EXPECT_NE(Table.find("interp.steps"), std::string::npos);
}

TEST(Integration, MultiFileProgramWithLibraryBoundary) {
  std::vector<SourceFile> Files;
  Files.push_back({"vendor/widgets.mcc", R"(
    class Widget {
    public:
      int handle;
      int themeCache;
      virtual void onPaint() { themeCache = handle; }
    };
  )", /*IsLibrary=*/true});
  Files.push_back({"src/app.mcc", R"(
    class Button : public Widget {
    public:
      int clicks;
      int tooltipId;     // dead in app code
      virtual void onPaint() { clicks = clicks + 1; }
    };
  )", /*IsLibrary=*/false});
  Files.push_back({"src/main.mcc", R"(
    int main() {
      Button b;
      b.clicks = 0;
      b.onPaint();
      return b.clicks;
    }
  )", /*IsLibrary=*/false});

  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  ASSERT_TRUE(C->Success) << Diag.str();

  DeadMemberAnalysis A(C->context(), C->hierarchy(), {});
  auto R = A.run(C->mainFunction());

  // Library members unclassified; app members classified normally.
  EXPECT_FALSE(R.canClassify(findField(*C, "Widget", "themeCache")));
  EXPECT_TRUE(R.isDead(findField(*C, "Button", "tooltipId")));
  EXPECT_TRUE(R.isLive(findField(*C, "Button", "clicks")));

  // Stats cover only app files and classes.
  ProgramStats St = computeProgramStats(C->context(), R, &C->SM,
                                        C->UserFileIDs);
  EXPECT_EQ(St.NumClasses, 1u);

  // Per-file LoC counting saw both app buffers.
  EXPECT_EQ(C->UserFileIDs.size(), 2u);
}

TEST(Integration, DiagnosticsCarryFileNames) {
  std::vector<SourceFile> Files;
  Files.push_back({"good.mcc", "int helper() { return 1; }", false});
  Files.push_back({"bad.mcc", "int main() { return oops; }", false});
  std::ostringstream Diag;
  auto C = compileProgram(std::move(Files), &Diag);
  EXPECT_FALSE(C->Success);
  EXPECT_NE(Diag.str().find("bad.mcc:"), std::string::npos);
}

TEST(Integration, AnalysisIsIdempotentOnSameCompilation) {
  auto C = compileOK(KitchenSink);
  auto R1 = analyze(*C);
  auto R2 = analyze(*C);
  EXPECT_EQ(deadNames(R1), deadNames(R2));
}

TEST(Integration, AllCallGraphKindsAgreeOnKitchenSinkSoundness) {
  auto C = compileOK(KitchenSink);
  FieldHeat Heat;
  InterpOptions IO;
  IO.Heat = &Heat;
  runOK(*C, IO);
  for (CallGraphKind Kind : {CallGraphKind::Trivial, CallGraphKind::CHA,
                             CallGraphKind::RTA}) {
    AnalysisOptions Opts;
    Opts.CallGraph = Kind;
    auto R = analyze(*C, Opts);
    for (const FieldDecl *F : Heat.FirstReads)
      EXPECT_FALSE(R.isDead(F))
          << F->qualifiedName() << " under " << callGraphKindName(Kind);
  }
}

} // namespace
