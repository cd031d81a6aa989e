//===-- driver/Frontend.cpp -----------------------------------------------==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/Frontend.h"

#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "telemetry/Log.h"
#include "telemetry/Telemetry.h"

using namespace dmm;

std::unique_ptr<Compilation> dmm::compileProgram(std::vector<SourceFile> Files,
                                                 std::ostream *DiagOS) {
  auto C = std::make_unique<Compilation>(DiagOS);

  Parser P(*C->Ctx, C->SM, C->Diags);
  std::vector<std::pair<uint32_t, bool>> Buffers;
  for (SourceFile &F : Files) {
    uint32_t ID = C->SM.addBuffer(std::move(F.Name), std::move(F.Text));
    C->FileIDs.push_back(ID);
    if (!F.IsLibrary)
      C->UserFileIDs.push_back(ID);
    Buffers.emplace_back(ID, F.IsLibrary);
  }

  // Every buffer is lexed before any is parsed, so all lex diagnostics
  // precede all parse diagnostics.
  std::vector<std::vector<Token>> Lexed;
  uint64_t TotalTokens = 0;
  {
    Span Timer("lex");
    for (const auto &[ID, IsLibrary] : Buffers) {
      Span FileSpan("lex.file");
      FileSpan.arg("file", std::string(C->SM.bufferName(ID)));
      Lexer Lex(C->SM, ID, C->Diags, C->Ctx->symbols());
      Lexed.push_back(Lex.lexAll());
      FileSpan.arg("tokens", Lexed.back().size());
      TotalTokens += Lexed.back().size();
    }
  }
  Telemetry::count("lex.tokens", TotalTokens);
  Telemetry::count("lex.buffers", Buffers.size());
  logDebug("lexed sources",
           {kv("files", Buffers.size()), kv("tokens", TotalTokens)});

  bool ParseOK = !C->Diags.hasErrors();
  for (size_t I = 0; I != Buffers.size(); ++I) {
    size_t ClassesBefore = C->Ctx->classes().size();
    if (!P.parseTokens(std::move(Lexed[I])))
      ParseOK = false;
    if (Buffers[I].second)
      for (size_t J = ClassesBefore; J != C->Ctx->classes().size(); ++J)
        C->Ctx->classes()[J]->setLibrary();
  }

  C->TheSema = std::make_unique<Sema>(*C->Ctx, C->Diags);
  bool SemaOK;
  {
    Span Timer("sema");
    SemaOK = C->TheSema->run();
  }
  Telemetry::count("sema.classes", C->Ctx->classes().size());
  Telemetry::count("sema.functions", C->Ctx->functions().size());
  C->Success = ParseOK && SemaOK;
  // A null DiagOS means a deliberately quiet compile (fuzz shrink
  // candidates, library-level tests) — don't log those either.
  if (DiagOS) {
    if (C->Success)
      logInfo("frontend complete",
              {kv("classes", C->Ctx->classes().size()),
               kv("functions", C->Ctx->functions().size())});
    else
      logError("frontend failed",
               {kv("parse_ok", ParseOK), kv("sema_ok", SemaOK)});
  }
  return C;
}

std::unique_ptr<Compilation> dmm::compileString(std::string Source,
                                                std::ostream *DiagOS) {
  std::vector<SourceFile> Files;
  Files.push_back({"<input>", std::move(Source), /*IsLibrary=*/false});
  return compileProgram(std::move(Files), DiagOS);
}
