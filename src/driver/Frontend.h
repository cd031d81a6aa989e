//===-- driver/Frontend.h - Compilation pipeline facade ---------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call compilation of MiniC++ sources: lex, parse, resolve, check.
/// Used by the driver, the examples, the tests, and the benchmark
/// harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_DRIVER_FRONTEND_H
#define DMM_DRIVER_FRONTEND_H

#include "ast/ASTContext.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceFile.h"
#include "support/SourceManager.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dmm {

/// The tool version: reported by --version and recorded in stats
/// documents and crash reports.
inline constexpr const char kToolVersion[] = "0.3.0";

/// The result of compiling a program; owns everything.
class Compilation {
public:
  explicit Compilation(std::ostream *DiagOS = nullptr)
      : Diags(SM, DiagOS), Ctx(std::make_unique<ASTContext>()) {}

  SourceManager SM;
  DiagnosticsEngine Diags;
  std::unique_ptr<ASTContext> Ctx;
  std::unique_ptr<Sema> TheSema;
  std::vector<uint32_t> FileIDs;
  /// FileIDs of non-library buffers (count toward lines-of-code stats).
  std::vector<uint32_t> UserFileIDs;
  bool Success = false;

  ASTContext &context() { return *Ctx; }
  const ClassHierarchy &hierarchy() const { return TheSema->hierarchy(); }
  FunctionDecl *mainFunction() const { return TheSema->mainFunction(); }
};

/// Compiles \p Files as one program. Diagnostics are echoed to \p DiagOS
/// when non-null; check `Result->Success`.
std::unique_ptr<Compilation> compileProgram(std::vector<SourceFile> Files,
                                            std::ostream *DiagOS = nullptr);

/// Convenience wrapper for a single in-memory source.
std::unique_ptr<Compilation> compileString(std::string Source,
                                           std::ostream *DiagOS = nullptr);

} // namespace dmm

#endif // DMM_DRIVER_FRONTEND_H
