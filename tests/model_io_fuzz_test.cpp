// Corpus-driven robustness tests for network_spec_from_text, modelled on
// comm_matrix_text_fuzz_test.cpp: every prefix truncation and seeded byte
// mutation of a valid to_text() document, and every number of one
// replaced by an extreme, fractional, negative or non-finite value, must
// either parse or throw geomap::Error — and a parsed number must be the
// one in the text. Headers naming more sites than the text can hold are
// refused before the matrices are allocated; no test here allocates them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/cloud.h"
#include "net/model_io.h"

namespace geomap::net {
namespace {

NetworkSpec spec_of(int sites, bool capacities, bool coords, bool names) {
  const CloudTopology topo(synthetic_profile(sites, 4, 7));
  NetworkSpec spec = make_spec(topo, NetworkModel::from_ground_truth(topo));
  if (!capacities) spec.capacities.clear();
  if (!coords) spec.coords.clear();
  if (!names) spec.site_names.clear();
  return spec;
}

/// to_text() of specs with every combination of optional sections that
/// matters: all of them (the AWS deployment), none, and some.
std::vector<std::string> corpus() {
  const CloudTopology aws(aws_experiment_profile(4));
  return {to_text(make_spec(aws, NetworkModel::from_ground_truth(aws))),
          to_text(spec_of(2, false, false, false)),
          to_text(spec_of(3, true, true, false)),
          to_text(spec_of(1, true, false, true))};
}

/// Every number of `spec` in the order to_text() writes them.
std::vector<double> numbers_of(const NetworkSpec& spec) {
  const int m = spec.model.num_sites();
  std::vector<double> out = {static_cast<double>(m)};
  for (SiteId k = 0; k < m; ++k)
    for (SiteId l = 0; l < m; ++l) out.push_back(spec.model.latency(k, l));
  for (SiteId k = 0; k < m; ++k)
    for (SiteId l = 0; l < m; ++l) out.push_back(spec.model.bandwidth(k, l));
  for (const int c : spec.capacities) out.push_back(c);
  for (const GeoCoordinate& c : spec.coords) {
    out.push_back(c.latitude_deg);
    out.push_back(c.longitude_deg);
  }
  return out;
}

/// Byte ranges of the numbers in `doc` after the version, in the order
/// numbers_of() lists them. Quoted names are not scanned.
std::vector<std::pair<std::size_t, std::size_t>> number_tokens(
    const std::string& doc) {
  const std::size_t end = std::min(doc.find("\nnames\n"), doc.size());
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t at = doc.find("sites");
  while (at < end) {
    const std::size_t begin = doc.find_first_not_of(" \n", at);
    if (begin >= end) break;
    const std::size_t stop = std::min(doc.find_first_of(" \n", begin), end);
    const std::string token = doc.substr(begin, stop - begin);
    std::size_t used = 0;
    try {
      (void)std::stod(token, &used);
    } catch (const std::exception&) {
    }
    if (used == token.size()) out.emplace_back(begin, stop - begin);
    at = stop;
  }
  return out;
}

/// The contract under test: parse or throw geomap::Error.
void parse_or_error(const std::string& text) {
  try {
    (void)network_spec_from_text(text);
  } catch (const Error&) {
  }
  // Any other exception type escapes and fails the test.
}

TEST(ModelIoFuzz, CorpusRoundTrips) {
  for (const std::string& doc : corpus()) {
    EXPECT_EQ(to_text(network_spec_from_text(doc)), doc);
    EXPECT_EQ(to_text(network_spec_from_text(doc + "\n \t\n")), doc);
  }
}

TEST(ModelIoFuzz, EveryPrefixTruncationIsHandled) {
  for (const std::string& doc : corpus()) {
    for (std::size_t len = 0; len < doc.size(); ++len)
      parse_or_error(doc.substr(0, len));
  }
}

TEST(ModelIoFuzz, SeededByteMutationsAreHandled) {
  Rng rng(20261019);
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
            mutated.insert(at, 1, "0123456789 -.e+#\n"[rng.uniform_index(17)]);
            break;
        }
      }
      parse_or_error(mutated);
    }
  }
}

TEST(ModelIoFuzz, EveryNumberIsReadExactlyOrRefused) {
  int accepted = 0, refused = 0;
  for (const std::string& doc : corpus()) {
    const std::vector<double> original =
        numbers_of(network_spec_from_text(doc));
    const auto tokens = number_tokens(doc);
    ASSERT_EQ(tokens.size(), original.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      for (const char* value : {"1e30", "-1e30", "0.5", "-1", "nan", "inf"}) {
        std::string mutated = doc;
        mutated.replace(tokens[i].first, tokens[i].second, value);
        SCOPED_TRACE("number " + std::to_string(i) + " -> " + value);
        NetworkSpec parsed;
        try {
          parsed = network_spec_from_text(mutated);
        } catch (const Error&) {
          refused += 1;
          continue;
        }
        accepted += 1;
        std::vector<double> want = original;
        want[i] = std::stod(value);
        EXPECT_TRUE(std::isfinite(want[i])) << "a non-finite number parsed";
        EXPECT_EQ(numbers_of(parsed), want);
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(refused, 0);
}

TEST(ModelIoFuzz, IntegerFieldsAreRangeChecked) {
  const std::string head = "geomap-network 1\nsites ";
  const std::string body =
      "\nlatency-seconds\n0 1 1 0\nbandwidth-bytes-per-second\n1 1 1 1\n";
  EXPECT_EQ(network_spec_from_text(head + "2" + body).model.num_sites(), 2);
  EXPECT_EQ(network_spec_from_text(head + "2.0" + body).model.num_sites(), 2);
  for (const char* sites :
       {"0", "-2", "0.5", "2.5", "1e30", "-1e30", "nan", "inf", "2x"}) {
    EXPECT_THROW((void)network_spec_from_text(head + sites + body),
                 InvalidArgument)
        << sites;
  }
  for (const char* capacity : {"-1", "0.5", "1e30", "2147483648", "nan"}) {
    EXPECT_THROW((void)network_spec_from_text(head + "2" + body +
                                              "capacities\n3 " + capacity),
                 InvalidArgument)
        << capacity;
  }
  EXPECT_EQ(network_spec_from_text(head + "2" + body + "capacities\n3 4.0")
                .capacities,
            (std::vector<int>{3, 4}));
}

TEST(ModelIoFuzz, HeaderIsCheckedBeforeAllocating) {
  // 99 999 sites would size two 80 GB matrices; the text cannot hold them.
  for (const char* sites : {"99999", "1000"}) {
    EXPECT_THROW((void)network_spec_from_text(
                     std::string("geomap-network 1\nsites ") + sites +
                     "\nlatency-seconds\n0 1 1 0\n"
                     "bandwidth-bytes-per-second\n1 1 1 1\n"),
                 InvalidArgument)
        << sites;
  }
  EXPECT_THROW((void)network_spec_from_text("geomap-network 1\nsites 100000"),
               InvalidArgument);
}

TEST(ModelIoFuzz, RepeatedSectionsAreRefused) {
  // A second, well-formed copy of any section used to overwrite the first.
  const std::string doc = to_text(spec_of(2, true, true, true));
  for (const char* section :
       {"latency-seconds\n0 1 1 0\n", "bandwidth-bytes-per-second\n1 1 1 1\n",
        "capacities\n1 1\n", "coordinates\n0 0\n0 0\n",
        "names\n\"a\"\n\"b\"\n"}) {
    EXPECT_THROW((void)network_spec_from_text(doc + section), InvalidArgument)
        << section;
  }
}

}  // namespace
}  // namespace geomap::net
