//===-- support/SourceManager.h - Source buffer registry --------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns source buffers and decodes SourceLocations into human-readable
/// (file, line, column) triples.
///
//===----------------------------------------------------------------------===//

#ifndef DMM_SUPPORT_SOURCEMANAGER_H
#define DMM_SUPPORT_SOURCEMANAGER_H

#include "support/SourceLocation.h"

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace dmm {

/// Decoded position for display in diagnostics.
struct PresumedLoc {
  std::string_view Filename;
  unsigned Line = 0;   ///< 1-based.
  unsigned Column = 0; ///< 1-based.
  bool isValid() const { return Line != 0; }
};

/// Registry of in-memory source buffers.
///
/// Buffers are addressed by 1-based FileIDs; FileID 0 is reserved for the
/// invalid location. Buffers are stored by value so the manager is the
/// single owner of all source text for a compilation. A buffer's text
/// never moves once registered: tokens and AST names are views into it.
class SourceManager {
public:
  /// Registers \p Text under \p Name and returns its FileID.
  uint32_t addBuffer(std::string Name, std::string Text);

  /// Returns the full text of the buffer \p FileID. Asserts on bad IDs.
  std::string_view bufferText(uint32_t FileID) const;

  /// Returns the registered name of buffer \p FileID.
  std::string_view bufferName(uint32_t FileID) const;

  /// Number of registered buffers.
  size_t numBuffers() const { return Buffers.size(); }

  /// Decodes \p Loc into file/line/column. Returns an invalid PresumedLoc
  /// for the invalid location.
  PresumedLoc presumedLoc(SourceLocation Loc) const;

  /// Counts non-empty source lines in buffer \p FileID. Used by the
  /// Table 1 "lines of code" characteristic.
  unsigned countCodeLines(uint32_t FileID) const;

private:
  struct Buffer {
    std::string Name;
    std::string Text;
    /// Byte offsets at which each line starts; computed on registration.
    std::vector<uint32_t> LineStarts;
  };
  /// A deque, not a vector: growing it never moves a Buffer, so the
  /// bytes of a short (inline-stored) text stay put too.
  std::deque<Buffer> Buffers;
};

} // namespace dmm

#endif // DMM_SUPPORT_SOURCEMANAGER_H
