//===-- interp/Memory.h - Storage nodes of both engines ---------*- C++ -*-==//
//
// Part of the deadmember project (Sweeney & Tip, PLDI 1998 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage nodes shared by both execution engines: scalars, class
/// instances, and arrays. Scalar storages owned by a data member record
/// that member, so every dynamic read/write can be attributed to a
/// FieldDecl — the hook the soundness property tests and the dynamic
/// dead-space measurements rely on. An object's field nodes sit at
/// their slot colors (interp/ObjectModel.h).
///
//===----------------------------------------------------------------------===//

#ifndef DMM_INTERP_MEMORY_H
#define DMM_INTERP_MEMORY_H

#include "ast/Decl.h"
#include "interp/ObjectModel.h"
#include "interp/Value.h"

#include <memory>
#include <new>
#include <vector>

namespace dmm {

/// One storage node. A tagged union of scalar / object / array.
struct Storage {
  enum class SK : uint8_t { Scalar, Object, Array };

  SK Kind = SK::Scalar;
  bool Alive = true; ///< Cleared on delete / scope exit (use-after-free
                     ///< detection).
  /// Set on the one node an allocation-trace record names (a complete
  /// object, or the array of a class-array allocation) until it is
  /// freed. Field subobjects and array elements share that node's
  /// ObjectID, so the ID alone cannot tell which node a free names.
  bool Traced = false;
  /// ObjectModel index of an object's class, or of a class array's
  /// element class; NoClass for scalars and other arrays.
  uint32_t ClassIdx = NoClass;

  /// The data member this storage (or aggregate) realizes, when it is a
  /// field subobject; null for locals, globals, temporaries, and array
  /// elements.
  const FieldDecl *OwnerField = nullptr;

  /// Scalar payload.
  Value V;

  /// Identity of the complete object this node belongs to (for trace
  /// attribution); 0 when not part of a traced object.
  uint64_t ObjectID = 0;

  /// An object's field nodes, indexed by slot color (holes null), or an
  /// array's elements.
  std::vector<Storage *> Children;

  /// The node realizing \p F, whose slot color is \p Color, when this
  /// is an object that lays F out; null otherwise. Colors are shared
  /// between fields of unrelated classes, so the slot must realize F.
  Storage *member(const FieldDecl *F, uint32_t Color) const {
    if (Kind != SK::Object || Color >= Children.size())
      return nullptr;
    Storage *S = Children[Color];
    return S && S->OwnerField == F ? S : nullptr;
  }
};

static_assert(sizeof(Storage) <= 96,
              "the arena carves 1024 nodes per chunk; keep a node small");

/// Owns all Storage nodes of one execution; addresses are stable. Nodes
/// are carved from fixed chunks of kChunkNodes (a std::deque would use
/// 512-byte blocks, two nodes each) and live until the arena dies.
class MemoryArena {
public:
  MemoryArena() = default;
  MemoryArena(const MemoryArena &) = delete;
  MemoryArena &operator=(const MemoryArena &) = delete;
  ~MemoryArena() {
    for (size_t C = 0; C != Chunks.size(); ++C) {
      size_t N = C + 1 == Chunks.size() ? Used : kChunkNodes;
      std::destroy_n(Chunks[C]->nodes(), N);
    }
  }

  Storage *createScalar(const FieldDecl *Owner = nullptr) {
    Storage *S = create();
    S->Kind = Storage::SK::Scalar;
    S->OwnerField = Owner;
    return S;
  }

  Storage *createObject(uint32_t ClassIdx,
                        const FieldDecl *Owner = nullptr) {
    Storage *S = create();
    S->Kind = Storage::SK::Object;
    S->ClassIdx = ClassIdx;
    S->OwnerField = Owner;
    return S;
  }

  /// \p ElemClassIdx is NoClass unless the elements are objects.
  Storage *createArray(uint32_t ElemClassIdx,
                       const FieldDecl *Owner = nullptr) {
    Storage *S = create();
    S->Kind = Storage::SK::Array;
    S->ClassIdx = ElemClassIdx;
    S->OwnerField = Owner;
    return S;
  }

private:
  static constexpr size_t kChunkNodes = 1024;
  /// Raw, uninitialized room for kChunkNodes nodes: only the nodes
  /// handed out are constructed (and touched).
  struct Chunk {
    alignas(Storage) unsigned char Bytes[kChunkNodes * sizeof(Storage)];
    Storage *nodes() { return reinterpret_cast<Storage *>(Bytes); }
  };

  Storage *create() {
    if (Used == kChunkNodes) {
      Chunks.emplace_back(new Chunk);
      Used = 0;
    }
    return new (Chunks.back()->nodes() + Used++) Storage();
  }

  std::vector<std::unique_ptr<Chunk>> Chunks;
  size_t Used = kChunkNodes; ///< Nodes handed out from Chunks.back().
};

} // namespace dmm

#endif // DMM_INTERP_MEMORY_H
