// Corpus-driven robustness tests for CommMatrix::from_text, modelled on
// json_reader_fuzz_test.cpp: every prefix truncation and seeded byte
// mutation (flip, insertion, deletion) of a valid to_text() document must
// either parse or throw geomap::Error — nothing else, never a crash.
// Headers naming a huge or unreadable N are rejected before the builder
// allocates its O(N) offsets; no test here builds a large N.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app.h"
#include "common/error.h"
#include "common/rng.h"
#include "trace/comm_matrix.h"

namespace geomap::trace {
namespace {

/// to_text() of small app patterns: halo (LU), irregular collectives
/// (K-means), all-to-all (FT) and multilevel (MG).
std::vector<std::string> corpus() {
  std::vector<std::string> docs;
  for (const auto& [name, n] : std::vector<std::pair<std::string, int>>{
           {"LU", 8}, {"K-means", 6}, {"FT", 5}, {"MG", 8}}) {
    const apps::App& app = apps::app_by_name(name);
    docs.push_back(app.synthetic_pattern(n, app.default_config(n)).to_text());
  }
  return docs;
}

/// The contract under test: parse or throw geomap::Error.
void parse_or_error(const std::string& text) {
  try {
    (void)CommMatrix::from_text(text);
  } catch (const Error&) {
  }
  // Any other exception type escapes and fails the test.
}

TEST(CommMatrixTextFuzz, CorpusRoundTrips) {
  for (const std::string& doc : corpus()) {
    const CommMatrix m = CommMatrix::from_text(doc);
    EXPECT_EQ(m.to_text(), doc);
    EXPECT_EQ(CommMatrix::from_text(doc + "\n \t\n").to_text(), doc)
        << "trailing whitespace must be accepted";
  }
}

TEST(CommMatrixTextFuzz, EveryPrefixTruncationIsHandled) {
  for (const std::string& doc : corpus()) {
    for (std::size_t len = 0; len < doc.size(); ++len)
      parse_or_error(doc.substr(0, len));
  }
}

TEST(CommMatrixTextFuzz, SeededByteMutationsAreHandled) {
  Rng rng(20261018);
  for (const std::string& doc : corpus()) {
    for (int round = 0; round < 400; ++round) {
      std::string mutated = doc;
      const int edits = 1 + static_cast<int>(rng.uniform_index(3));
      for (int e = 0; e < edits && !mutated.empty(); ++e) {
        const std::size_t at = rng.uniform_index(mutated.size());
        switch (rng.uniform_index(3)) {
          case 0:  // flip to an arbitrary byte (including NUL / high bit)
            mutated[at] = static_cast<char>(rng.uniform_index(256));
            break;
          case 1:  // delete
            mutated.erase(at, 1);
            break;
          default:  // insert a byte the format is made of
            mutated.insert(at, 1, "0123456789 -.e+\n"[rng.uniform_index(16)]);
            break;
        }
      }
      parse_or_error(mutated);
    }
  }
}

TEST(CommMatrixTextFuzz, HeaderIsCheckedBeforeAllocating) {
  const std::string over_limit =
      std::to_string(CommMatrix::kMaxTextProcesses + 1);
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix " + over_limit + " 0\n"),
               Error);
  // N overflows int: the stream fails, and N must not be read as INT_MAX.
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix 99999999999 0\n"),
               Error);
  for (const char* bad :
       {"", "commmatrix", "commmatrix 4", "commmatrix 0 0", "commmatrix -3 0",
        "commmatrix x 0", "commmatrix 4 y", "matrix 4 0"}) {
    EXPECT_THROW((void)CommMatrix::from_text(bad), Error) << bad;
  }
}

TEST(CommMatrixTextFuzz, RecordsMustMatchTheHeader) {
  EXPECT_NO_THROW((void)CommMatrix::from_text("commmatrix 4 1\n0 1 10 1\n"));
  // More records than the header's nnz, or any other trailing bytes.
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix 4 0\n0 1 10 1\n"),
               Error);
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix 4 1\n0 1 10 1\n x"),
               Error);
  // Fewer records, or records outside [0, N).
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix 4 2\n0 1 10 1\n"),
               Error);
  EXPECT_THROW((void)CommMatrix::from_text("commmatrix 4 1\n0 4 10 1\n"),
               Error);
}

}  // namespace
}  // namespace geomap::trace
