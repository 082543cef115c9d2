#pragma once
// Shared-memory parallel primitives.
//
// geomap parallelizes embarrassingly-parallel inner loops — the κ! group
// order search, Monte Carlo sampling, and batched cost evaluation. Each
// call starts its workers as fresh std::threads, works on the calling
// thread too, and joins them before it returns. With one worker, or a
// single index, it runs on the caller without starting a thread.

#include <cstddef>
#include <functional>

namespace geomap {

/// Number of workers parallel_for will use (hardware_concurrency, >= 1).
std::size_t parallel_workers();

/// Override the worker count (0 restores the hardware default). Intended
/// for tests and benchmarks; not thread-safe against concurrent
/// parallel_for calls.
void set_parallel_workers(std::size_t n);

/// Invoke fn(i) for every i in [begin, end), possibly concurrently.
/// fn must be safe to call from multiple threads; iteration order is
/// unspecified. Exceptions thrown by fn are rethrown (first one wins).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(chunk_begin, chunk_end) over contiguous chunks.
/// Prefer this for tight numeric loops where per-index std::function call
/// overhead would dominate.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace geomap
