#include "memsim/directory.hpp"

namespace cool::mem {

LineState& Directory::allocate(LineAddr line) {
  COOL_CHECK(line < kMaxLines, "directory: line address past the table cap");
  const auto c = static_cast<std::size_t>(line >> kChunkShift);
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  chunks_[c] = std::make_unique<Chunk>();
  return (*chunks_[c])[line & (kChunkLines - 1)];
}

}  // namespace cool::mem
