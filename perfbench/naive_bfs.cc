// Reference counts for the check_* workloads, computed apart from the
// model checker: a serial breadth-first search that keeps every distinct
// state whole in a std::set. It uses no fingerprints, no fingerprint set,
// no spilling, no partial-order reduction and no worker threads; it shares
// only the spec (initial states, actions, invariants, constraint) with the
// checker.
//
// It follows the checker's counting rules (see tlax/checker.h):
//   - generated: every initial state plus every successor produced by
//     expanding a state within the constraint, duplicates included;
//   - distinct: every distinct state reached, within the constraint or
//     not (states outside it are counted but not expanded);
//   - diameter: the largest BFS depth of an expanded state;
//   - verdict: the first invariant violated by a distinct state
//     (initial states only when within the constraint), or "none".
//
// Usage: naive_bfs [--write FILE]
// Prints the counts as one JSON object; --write also stores them in FILE
// (perfbench/reference_counts.json is the committed copy that every
// benchmark run of check_ram and check_budget compares against).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "specs/raft_mongo_spec.h"

namespace {

using xmodel::tlax::State;
using xmodel::tlax::Value;

// The workload the counts describe; bench_main.cc builds the same spec.
constexpr int kNodes = 3;
constexpr int64_t kMaxTerm = 3;
constexpr int64_t kMaxOplogLen = 3;

/// Serializes states to compact byte strings, a one-to-one encoding of
/// the value tree: a kind tag per node, small numbers folded into the tag
/// byte, strings and record field names replaced by dictionary ids.
class StateEncoder {
 public:
  std::string Encode(const State& state) {
    std::string out;
    for (const Value& v : state.vars()) Put(v, &out);
    return out;
  }

 private:
  static void PutVarint(uint64_t x, std::string* out) {
    while (x >= 0x80) {
      out->push_back(static_cast<char>((x & 0x7f) | 0x80));
      x >>= 7;
    }
    out->push_back(static_cast<char>(x));
  }
  // High nibble = kind, low nibble = payload < 15, or 15 + a varint.
  static void PutTagged(uint8_t kind, uint64_t payload, std::string* out) {
    if (payload < 15) {
      out->push_back(static_cast<char>(kind << 4 | payload));
    } else {
      out->push_back(static_cast<char>(kind << 4 | 15));
      PutVarint(payload - 15, out);
    }
  }
  uint64_t StringId(std::string_view s) {
    auto it = strings_.find(std::string(s));
    if (it != strings_.end()) return it->second;
    const uint64_t id = strings_.size();
    strings_.emplace(std::string(s), id);
    return id;
  }
  void Put(const Value& v, std::string* out) {
    switch (v.kind()) {
      case Value::Kind::kNil:
        PutTagged(0, 0, out);
        return;
      case Value::Kind::kBool:
        PutTagged(0, v.bool_value() ? 2 : 1, out);
        return;
      case Value::Kind::kInt: {
        const int64_t i = v.int_value();
        const uint64_t zigzag =
            (static_cast<uint64_t>(i) << 1) ^ static_cast<uint64_t>(i >> 63);
        PutTagged(1, zigzag, out);
        return;
      }
      case Value::Kind::kString:
        PutTagged(2, StringId(v.string_value()), out);
        return;
      case Value::Kind::kSeq:
      case Value::Kind::kSet:
        PutTagged(v.kind() == Value::Kind::kSeq ? 3 : 4, v.elements().size(),
                  out);
        for (const Value& e : v.elements()) Put(e, out);
        return;
      case Value::Kind::kRecord:
        PutTagged(5, v.fields().size(), out);
        for (const auto& [name, field] : v.fields()) {
          PutVarint(StringId(name), out);
          Put(field, out);
        }
        return;
    }
  }

  std::map<std::string, uint64_t> strings_;
};

struct Counts {
  uint64_t distinct = 0;
  uint64_t generated = 0;
  int64_t diameter = 0;
  std::string verdict = "none";
};

Counts Explore(const xmodel::tlax::Spec& spec) {
  StateEncoder encoder;
  std::set<std::string> seen;
  Counts counts;
  auto violated = [&](const State& s) {
    for (const auto& inv : spec.invariants()) {
      if (!inv.predicate(s)) {
        counts.verdict = inv.name;
        return true;
      }
    }
    return false;
  };

  std::vector<State> level;
  for (const State& init : spec.InitialStates()) {
    ++counts.generated;
    if (!seen.insert(encoder.Encode(init)).second) continue;
    if (!spec.WithinConstraint(init)) continue;
    if (violated(init)) return counts;
    level.push_back(init);
  }
  std::vector<State> successors;
  for (int64_t depth = 0; !level.empty(); ++depth) {
    counts.diameter = depth;
    std::vector<State> next;
    for (const State& s : level) {
      successors.clear();
      for (const auto& action : spec.actions()) action.next(s, &successors);
      for (const State& succ : successors) {
        ++counts.generated;
        if (!seen.insert(encoder.Encode(succ)).second) continue;
        if (violated(succ)) {
          counts.distinct = seen.size();
          return counts;
        }
        if (spec.WithinConstraint(succ)) next.push_back(succ);
      }
    }
    level = std::move(next);
    std::fprintf(stderr, "depth %lld: %zu distinct\n",
                 static_cast<long long>(depth), seen.size());
  }
  counts.distinct = seen.size();
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  std::string write_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0 && i + 1 < argc) {
      write_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--write FILE]\n", argv[0]);
      return 2;
    }
  }
  xmodel::specs::RaftMongoConfig config;
  config.variant = xmodel::specs::RaftMongoVariant::kDetailed;
  config.num_nodes = kNodes;
  config.max_term = kMaxTerm;
  config.max_oplog_len = kMaxOplogLen;
  const xmodel::specs::RaftMongoSpec spec(config);
  const Counts counts = Explore(spec);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"spec\": \"%s\", \"nodes\": %d, \"max_term\": %lld, "
                "\"max_oplog_len\": %lld, \"distinct\": %llu, "
                "\"generated\": %llu, \"diameter\": %lld, "
                "\"verdict\": \"%s\"}\n",
                spec.name().c_str(), kNodes,
                static_cast<long long>(kMaxTerm),
                static_cast<long long>(kMaxOplogLen),
                static_cast<unsigned long long>(counts.distinct),
                static_cast<unsigned long long>(counts.generated),
                static_cast<long long>(counts.diameter),
                counts.verdict.c_str());
  std::fputs(json, stdout);
  if (!write_path.empty()) {
    FILE* f = std::fopen(write_path.c_str(), "w");
    if (f == nullptr || std::fputs(json, f) < 0 || std::fclose(f) != 0) {
      std::fprintf(stderr, "cannot write %s\n", write_path.c_str());
      return 1;
    }
  }
  return 0;
}
