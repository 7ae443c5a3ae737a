#include "rules.hpp"

#include <algorithm>

namespace nlc::lint {

namespace {

using Toks = std::vector<Token>;

constexpr std::size_t npos = static_cast<std::size_t>(-1);

bool is_punct(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}
bool is_ident(const Toks& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == text;
}
bool is_any_ident(const Toks& t, std::size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}
bool ident_in(const Toks& t, std::size_t i, const std::set<std::string>& s) {
  return i < t.size() && t[i].kind == TokKind::kIdent &&
         s.count(t[i].text) > 0;
}

/// Index just past the token matching the opener at `open`, or npos.
std::size_t match_forward(const Toks& t, std::size_t open, const char* o,
                          const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t, i, o)) ++depth;
    if (is_punct(t, i, c) && --depth == 0) return i;
  }
  return npos;
}

/// Matches a template argument list starting at the '<' at `open`.
/// Statement terminators abort the match: a lone '<' is usually a
/// comparison, and runaway scans would attribute declarations wildly.
std::size_t match_angle(const Toks& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t, i, "<")) ++depth;
    if (is_punct(t, i, ">") && --depth == 0) return i;
    if (is_punct(t, i, ";") || is_punct(t, i, "{")) return npos;
  }
  return npos;
}

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
const std::set<std::string> kOrderedContainers = {
    "vector", "deque",    "list",     "forward_list", "array",
    "span",   "map",      "set",      "multimap",     "multiset",
    "string", "basic_string", "flat_map", "flat_set"};
const std::set<std::string> kKeyedContainers = {
    "map",           "set",           "multimap",
    "multiset",      "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset"};
const std::set<std::string> kConcurrencyPrims = {
    "mutex",         "recursive_mutex", "shared_mutex",
    "timed_mutex",   "recursive_timed_mutex",
    "condition_variable", "condition_variable_any",
    "atomic",        "atomic_flag",     "atomic_ref",
    "counting_semaphore", "binary_semaphore",
    "latch",         "barrier",         "future",
    "shared_future", "promise",         "async",
    "packaged_task"};
const std::set<std::string> kRandomEngines = {
    "mt19937",      "mt19937_64",  "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};
const std::set<std::string> kDetachedQueueApis = {"call_at", "call_after",
                                                  "set_audit_probe"};
// Callees an order-independent accumulation loop body may invoke.
const std::set<std::string> kPureCallees = {"size", "count",  "empty",
                                            "min",  "max",    "length"};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}
bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Per-file declaration facts; the same scanner feeds the global table
/// (ambiguity resolution) and each file's local table (which wins).
struct LocalDecls {
  std::set<std::string> unordered;
  std::set<std::string> ordered;
  std::set<std::string> ptr_vectors;
};

/// Is the first template argument of the list opening at `open` ('<') a
/// raw pointer type? (Last token of the argument is '*'.)
bool first_template_arg_is_pointer(const Toks& t, std::size_t open) {
  int depth = 0;
  std::size_t last = npos;
  for (std::size_t i = open + 1; i < t.size(); ++i) {
    if (is_punct(t, i, "<")) ++depth;
    if (is_punct(t, i, ">")) {
      if (depth == 0) break;
      --depth;
    }
    if (depth == 0 && is_punct(t, i, ",")) break;
    if (depth == 0 && (is_punct(t, i, ";") || is_punct(t, i, "{"))) {
      return false;
    }
    last = i;
  }
  return last != npos && is_punct(t, last, "*");
}

/// Scans declarations: `container<...> [&] name <delim>` plus alias-typed
/// `Alias [&] name <delim>`. Returns the declared name, or empty.
std::string decl_name_after(const Toks& t, std::size_t j) {
  if (is_punct(t, j, "&")) ++j;
  if (!is_any_ident(t, j)) return "";
  static const std::set<std::string> kDelims = {";", "=", "{", "(", ",", ")"};
  if (j + 1 < t.size() && t[j + 1].kind == TokKind::kPunct &&
      kDelims.count(t[j + 1].text) > 0) {
    return t[j].text;
  }
  return "";
}

void scan_decls(const Toks& t, const std::set<std::string>& aliases,
                LocalDecls& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool unordered = kUnorderedContainers.count(t[i].text) > 0;
    const bool ordered = kOrderedContainers.count(t[i].text) > 0;
    if ((unordered || ordered) && is_punct(t, i + 1, "<")) {
      std::size_t close = match_angle(t, i + 1);
      if (close == npos) continue;
      std::string name = decl_name_after(t, close + 1);
      if (!name.empty()) {
        (unordered ? out.unordered : out.ordered).insert(name);
        if (t[i].text == "vector" &&
            first_template_arg_is_pointer(t, i + 1)) {
          out.ptr_vectors.insert(name);
        }
      }
      continue;
    }
    // Alias-typed declaration (skip the `using Alias = ...` line itself).
    if (aliases.count(t[i].text) > 0 && !(i > 0 && is_ident(t, i - 1, "using")) &&
        !(i > 0 && is_punct(t, i - 1, "::"))) {
      std::string name = decl_name_after(t, i + 1);
      if (!name.empty()) out.unordered.insert(name);
    }
  }
}

void scan_aliases(const Toks& t, std::set<std::string>& aliases) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!is_ident(t, i, "using") || !is_any_ident(t, i + 1) ||
        !is_punct(t, i + 2, "=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < t.size() && !is_punct(t, j, ";"); ++j) {
      if (ident_in(t, j, kUnorderedContainers)) {
        aliases.insert(t[i + 1].text);
        break;
      }
    }
  }
}

struct RuleCtx {
  const AnalyzedFile& f;
  const SymbolTable& sym;
  LocalDecls local;
  std::vector<Finding>* out;

  void add(const std::string& rule, int line, std::string msg) {
    out->push_back(Finding{rule, f.path, line, std::move(msg)});
  }

  /// Name-based unordered resolution: the declaring file wins; otherwise a
  /// project-wide unambiguous unordered declaration counts.
  bool is_unordered(const std::string& name) const {
    if (local.unordered.count(name) > 0) return true;
    if (local.ordered.count(name) > 0) return false;
    return sym.unordered_names.count(name) > 0 &&
           sym.ordered_names.count(name) == 0;
  }
  bool is_ptr_vector(const std::string& name) const {
    return local.ptr_vectors.count(name) > 0 ||
           sym.ptr_vector_names.count(name) > 0;
  }
};

// ---------------------------------------------------------------------------
// Ported grep rules (far fewer false-positive escapes: strings, comments
// and preprocessor text are already stripped by the lexer).

void rule_no_assert(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "assert") || !is_punct(t, i + 1, "(")) continue;
    if (i > 0 && t[i - 1].kind == TokKind::kPunct &&
        (t[i - 1].text == "." || t[i - 1].text == "->")) {
      continue;  // member function named assert
    }
    c.add("no-assert", t[i].line,
          "raw assert() — use NLC_CHECK/NLC_CHECK_MSG (src/util/assert.hpp) "
          "so invariants fire in every build type and are catchable");
  }
  for (const Directive& d : c.f.lex.directives) {
    if (contains(d.text, "include") &&
        (contains(d.text, "<cassert>") || contains(d.text, "<assert.h>"))) {
      c.add("no-assert", d.line,
            "<cassert> include — use src/util/assert.hpp");
    }
  }
}

void rule_no_naked_new(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t, i, "new")) {
      if (is_punct(t, i + 1, "(")) continue;  // placement new
      c.add("no-naked-new", t[i].line,
            "naked new — ownership goes through "
            "std::make_unique/std::make_shared/util::arena_make_shared");
    } else if (is_ident(t, i, "delete")) {
      if (i > 0 && is_punct(t, i - 1, "=")) continue;  // deleted function
      if (i > 0 && is_ident(t, i - 1, "operator")) continue;
      c.add("no-naked-new", t[i].line,
            "naked delete — owning raw pointers are banned");
    }
  }
}

void rule_no_raw_thread(RuleCtx& c) {
  if (contains(c.f.path, "util/worker_pool")) return;
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t, i, "std") || !is_punct(t, i + 1, "::")) continue;
    if (!is_ident(t, i + 2, "thread") && !is_ident(t, i + 2, "jthread")) {
      continue;
    }
    if (is_punct(t, i + 3, "::") &&
        is_ident(t, i + 4, "hardware_concurrency")) {
      continue;  // capacity query, not a spawn
    }
    c.add("no-raw-thread", t[i + 2].line,
          "raw std::" + t[i + 2].text +
              " — all fan-out goes through util::WorkerPool "
              "(src/util/worker_pool.hpp) so the deterministic-merge "
              "contract cannot be bypassed");
  }
}

void rule_no_raw_clock(RuleCtx& c) {
  if (starts_with(c.f.path, "src/util/")) return;
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_ident(t, i, "steady_clock")) {
      c.add("no-raw-clock", t[i].line,
            "raw steady_clock — all wall time flows through "
            "util::wall_now_ns() (src/util/time.hpp), one clock domain");
    }
  }
}

void rule_arena_alloc(RuleCtx& c) {
  if (contains(c.f.path, "util/arena.")) return;
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "make_shared") && !is_ident(t, i, "make_unique")) {
      continue;
    }
    if (!is_punct(t, i + 1, "<")) continue;
    std::size_t j = i + 2;
    if (is_ident(t, j, "kern") && is_punct(t, j + 1, "::")) j += 2;
    if ((is_ident(t, j, "PageBytes") || is_ident(t, j, "Node")) &&
        is_punct(t, j + 1, ">")) {
      c.add("arena-alloc", t[i].line,
            "raw payload/node heap allocation — use "
            "util::arena_make_shared (src/util/arena.hpp); a general-purpose "
            "heap hit per page reopens the epoch hot-path cost (DESIGN.md "
            "§12)");
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism rules.

void rule_raw_rand(RuleCtx& c) {
  if (c.f.path.size() >= 12 &&
      c.f.path.compare(c.f.path.size() - 12, 12, "util/rng.hpp") == 0) {
    return;
  }
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if ((t[i].text == "rand" || t[i].text == "srand") &&
        is_punct(t, i + 1, "(")) {
      if (i > 0 && t[i - 1].kind == TokKind::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == "->")) {
        continue;
      }
      c.add("raw-rand", t[i].line,
            "raw " + t[i].text +
                "() — all randomness derives from the seeded nlc::Rng seam "
                "(src/util/rng.hpp) so every trial is reproducible");
    } else if (t[i].text == "random_device") {
      c.add("raw-rand", t[i].line,
            "std::random_device — nondeterministic entropy; derive seeds "
            "via nlc::Rng::split (src/util/rng.hpp)");
    } else if (kRandomEngines.count(t[i].text) > 0) {
      c.add("raw-rand", t[i].line,
            "raw " + t[i].text +
                " engine — wrap in nlc::Rng (src/util/rng.hpp) so seed "
                "derivation stays centralized");
    }
  }
}

/// True if the loop body only accumulates order-independently: compound
/// additive/bitwise updates and calls to pure size-like accessors; no plain
/// assignment, indexing, container growth, early exit, or I/O.
bool body_is_order_independent(const Toks& t, std::size_t begin,
                               std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (t[i].kind == TokKind::kIdent) {
      if (is_punct(t, i + 1, "(") && kPureCallees.count(t[i].text) == 0) {
        return false;
      }
      if (t[i].text == "return" || t[i].text == "break" ||
          t[i].text == "co_return" || t[i].text == "co_await" ||
          t[i].text == "throw" || t[i].text == "goto") {
        return false;
      }
      continue;
    }
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "=" || t[i].text == "[") return false;
    if (t[i].text == "<" && is_punct(t, i + 1, "<")) return false;  // stream
  }
  return true;
}

/// Last identifier of a range expression after stripping trailing call
/// parens: `p->mm().vmas()` → vmas, `d.pages` → pages.
std::string range_expr_name(const Toks& t, std::size_t begin,
                            std::size_t end) {
  std::size_t e = end;  // one past last expr token
  while (e > begin && is_punct(t, e - 1, ")")) {
    int depth = 0;
    std::size_t i = e;
    while (i > begin) {
      --i;
      if (is_punct(t, i, ")")) ++depth;
      if (is_punct(t, i, "(") && --depth == 0) break;
    }
    if (depth != 0) return "";
    e = i;
  }
  if (e > begin && t[e - 1].kind == TokKind::kIdent) return t[e - 1].text;
  return "";
}

void rule_unordered_iter(RuleCtx& c) {
  if (c.f.is_test) return;  // test code may iterate however it likes
  const Toks& t = c.f.lex.tokens;

  // `auto x = ...unordered...;` propagation (e.g. moving a member into a
  // local before iterating it).
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t, i, "auto")) continue;
    std::size_t j = i + 1;
    if (is_punct(t, j, "&")) ++j;
    if (!is_any_ident(t, j) || !is_punct(t, j + 1, "=")) continue;
    for (std::size_t k = j + 2; k < t.size() && !is_punct(t, k, ";"); ++k) {
      if (t[k].kind == TokKind::kIdent && c.is_unordered(t[k].text)) {
        c.local.unordered.insert(t[j].text);
        break;
      }
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "for") || !is_punct(t, i + 1, "(")) continue;
    std::size_t close = match_forward(t, i + 1, "(", ")");
    if (close == npos) continue;

    // Range-for: a ':' at paren depth 1.
    std::size_t colon = npos;
    int depth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (is_punct(t, k, "(")) ++depth;
      if (is_punct(t, k, ")")) --depth;
      if (depth == 1 && k > i + 1 && is_punct(t, k, ":")) {
        colon = k;
        break;
      }
    }
    if (colon != npos) {
      std::string name = range_expr_name(t, colon + 1, close);
      if (name.empty() || !c.is_unordered(name)) continue;
      std::size_t body_begin, body_end;
      if (is_punct(t, close + 1, "{")) {
        body_end = match_forward(t, close + 1, "{", "}");
        body_begin = close + 2;
        if (body_end == npos) body_end = t.size();
      } else {
        body_begin = close + 1;
        body_end = body_begin;
        while (body_end < t.size() && !is_punct(t, body_end, ";")) ++body_end;
      }
      if (body_is_order_independent(t, body_begin, body_end)) continue;
      c.add("unordered-iter", t[i].line,
            "iteration over unordered container '" + name +
                "' with an order-dependent body — hash order is not "
                "deterministic across runs/platforms; iterate a sorted copy "
                "or an insertion-order index");
      continue;
    }

    // Iterator loop: `x.begin()` / `x->cbegin()` inside the header.
    for (std::size_t k = i + 1; k + 2 < close; ++k) {
      if (t[k].kind != TokKind::kIdent) continue;
      if (!is_punct(t, k + 1, ".") && !is_punct(t, k + 1, "->")) continue;
      if ((is_ident(t, k + 2, "begin") || is_ident(t, k + 2, "cbegin")) &&
          is_punct(t, k + 3, "(") && c.is_unordered(t[k].text)) {
        c.add("unordered-iter", t[i].line,
              "iterator loop over unordered container '" + t[k].text +
                  "' — hash order is not deterministic; iterate a sorted "
                  "copy or an insertion-order index");
        break;
      }
    }
  }
}

void rule_ptr_key(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!ident_in(t, i, kKeyedContainers) || !is_punct(t, i + 1, "<")) {
      continue;
    }
    if (first_template_arg_is_pointer(t, i + 1)) {
      c.add("ptr-key", t[i].line,
            "pointer-keyed " + t[i].text +
                " — key order (and hash spread) follows allocation "
                "addresses, which differ across runs; key by a stable id or "
                "confine the map to identity lookups");
    }
  }
}

void rule_ptr_sort(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t, i, "std") || !is_punct(t, i + 1, "::") ||
        !is_ident(t, i + 2, "sort") || !is_punct(t, i + 3, "(")) {
      continue;
    }
    std::size_t close = match_forward(t, i + 3, "(", ")");
    if (close == npos) continue;
    // Split args at depth-0 commas.
    std::vector<std::pair<std::size_t, std::size_t>> args;
    std::size_t start = i + 4;
    int depth = 0;
    for (std::size_t k = i + 4; k < close; ++k) {
      if (is_punct(t, k, "(") || is_punct(t, k, "[") || is_punct(t, k, "{")) {
        ++depth;
      }
      if (is_punct(t, k, ")") || is_punct(t, k, "]") || is_punct(t, k, "}")) {
        --depth;
      }
      if (depth == 0 && is_punct(t, k, ",")) {
        args.emplace_back(start, k);
        start = k + 1;
      }
    }
    args.emplace_back(start, close);
    if (args.size() != 2) continue;  // explicit comparator: judged elsewhere
    auto arg_base = [&](std::size_t b, std::size_t e,
                        const char* member) -> std::string {
      // Suffix must be `<base> . member ( )`.
      if (e - b < 5) return "";
      if (!is_punct(t, e - 1, ")") || !is_punct(t, e - 2, "(") ||
          !is_ident(t, e - 3, member) || !is_punct(t, e - 4, ".")) {
        return "";
      }
      return is_any_ident(t, e - 5) ? t[e - 5].text : "";
    };
    std::string b1 = arg_base(args[0].first, args[0].second, "begin");
    std::string b2 = arg_base(args[1].first, args[1].second, "end");
    if (!b1.empty() && b1 == b2 && c.is_ptr_vector(b1)) {
      c.add("ptr-sort", t[i + 2].line,
            "std::sort of raw pointers in '" + b1 +
                "' without a comparator — address order differs across "
                "runs; sort by a stable field instead");
    }
  }
}

// ---------------------------------------------------------------------------
// Replay-determinism rule (DESIGN.md §14).

/// The deterministic replay engine (any `namespace ... replay { ... }`
/// region, e.g. nlc::core::replay) must be a pure function of the
/// committed event log: a wall-clock read or any non-logged randomness
/// source would diverge the backup's replayed state from the outputs the
/// primary already released. The adaptive epoch controller (`namespace
/// ... epochctl`, DESIGN.md §15) is held to the same standard for a
/// different reason: it feeds back into the epoch schedule, so any
/// non-simulated input would break byte determinism across every
/// NLC_JOBS x NLC_SIMD configuration.
void rule_replay_wallclock(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "namespace")) continue;
    // `namespace replay {`, `namespace nlc::core::epochctl {`, ...: the
    // name path must end in a determinism-critical terminal right before
    // the opening brace.
    std::size_t j = i + 1;
    while (is_any_ident(t, j) && is_punct(t, j + 1, "::")) j += 2;
    const bool engine = is_ident(t, j, "replay");
    const bool ctl = is_ident(t, j, "epochctl");
    if ((!engine && !ctl) || !is_punct(t, j + 1, "{")) continue;
    const std::string region =
        engine ? "the replay engine" : "the epoch controller";
    std::size_t open = j + 1;
    std::size_t close = match_forward(t, open, "{", "}");
    if (close == npos) close = t.size();
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].kind != TokKind::kIdent) continue;
      const bool member = t[k - 1].kind == TokKind::kPunct &&
                          (t[k - 1].text == "." || t[k - 1].text == "->");
      if (is_ident(t, k, "wall_now_ns") && !member) {
        c.add("replay-wallclock", t[k].line,
              "wall_now_ns() inside " + region + " — " +
                  (engine ? "replayed state must be a pure function of the "
                            "committed event log (DESIGN.md §14); stamp "
                            "times into the log at record time"
                          : "epoch lengths must be a pure function of "
                            "simulated-time observables (DESIGN.md §15); "
                            "read the simulation clock instead"));
      } else if (is_ident(t, k, "Rng") && !member) {
        c.add("replay-wallclock", t[k].line,
              "Rng inside " + region + " — " +
                  (engine ? "fresh draws diverge replay from the primary; "
                            "replay the logged kRngDraw entries instead "
                            "(DESIGN.md §14)"
                          : "ambient randomness diverges the adapted epoch "
                            "schedule across job/tier configurations "
                            "(DESIGN.md §15)"));
      } else if (t[k].text == "random_device" ||
                 kRandomEngines.count(t[k].text) > 0) {
        c.add("replay-wallclock", t[k].line,
              t[k].text + " inside " + region +
                  " — non-logged entropy breaks " +
                  (engine ? "replay equivalence (DESIGN.md §14)"
                          : "byte determinism (DESIGN.md §15)"));
      } else if ((t[k].text == "rand" || t[k].text == "srand") &&
                 is_punct(t, k + 1, "(") && !member) {
        c.add("replay-wallclock", t[k].line,
              t[k].text + "() inside " + region +
                  " — non-logged entropy breaks " +
                  (engine ? "replay equivalence (DESIGN.md §14)"
                          : "byte determinism (DESIGN.md §15)"));
      }
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// Ownership/concurrency rules.

void rule_concurrency_owner(RuleCtx& c) {
  // Exempt ONLY the concurrency-owning modules. Everything else — the
  // simulation-deterministic core, src/topo (the topology rule must stay
  // a pure function, see DESIGN.md §16) and src/trace (the recorder has
  // one writer, DESIGN.md §11) — is in scope.
  if (starts_with(c.f.path, "src/util/") ||
      starts_with(c.f.path, "src/harness/")) {
    return;
  }
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t, i, "std") || !is_punct(t, i + 1, "::")) continue;
    if (!ident_in(t, i + 2, kConcurrencyPrims)) continue;
    c.add("concurrency-owner", t[i + 2].line,
          "std::" + t[i + 2].text +
              " outside the concurrency-owning modules (src/util, "
              "src/harness) — fan-out goes through "
              "util::WorkerPool; new synchronization needs an owning seam");
  }
}

void rule_detached_this(RuleCtx& c) {
  const Toks& t = c.f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!ident_in(t, i, kDetachedQueueApis) || !is_punct(t, i + 1, "(")) {
      continue;
    }
    std::size_t close = match_forward(t, i + 1, "(", ")");
    if (close == npos) continue;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (!is_punct(t, k, "[")) continue;
      std::size_t cap_close = match_forward(t, k, "[", "]");
      if (cap_close == npos || cap_close > close) break;
      bool captures_this = false;
      for (std::size_t m = k + 1; m < cap_close; ++m) {
        if (is_ident(t, m, "this")) captures_this = true;
      }
      bool default_capture =
          cap_close == k + 2 &&
          (is_punct(t, k + 1, "=") || is_punct(t, k + 1, "&"));
      if (captures_this ||
          (default_capture && !c.f.is_test && starts_with(c.f.path, "src/"))) {
        c.add("detached-this", t[k].line,
              "lambda capturing `this` (or everything) queued on " +
                  t[i].text +
                  " — the callback can outlive the object; hold the "
                  "TimerHandle and cancel it in the destructor, or capture "
                  "owning/weak state");
      }
      k = cap_close;
    }
  }
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      "no-assert",      "no-naked-new", "no-raw-thread",     "no-raw-clock",
      "arena-alloc",    "raw-rand",     "unordered-iter",    "ptr-key",
      "ptr-sort",       "concurrency-owner", "detached-this",
      "replay-wallclock"};
  return kRules;
}

void collect_symbols(const AnalyzedFile& f, SymbolTable& sym) {
  scan_aliases(f.lex.tokens, sym.unordered_aliases);
  LocalDecls d;
  scan_decls(f.lex.tokens, sym.unordered_aliases, d);
  sym.unordered_names.insert(d.unordered.begin(), d.unordered.end());
  sym.ordered_names.insert(d.ordered.begin(), d.ordered.end());
  sym.ptr_vector_names.insert(d.ptr_vectors.begin(), d.ptr_vectors.end());
}

void run_rules(const AnalyzedFile& f, const SymbolTable& sym,
               std::vector<Finding>& out) {
  RuleCtx c{f, sym, {}, &out};
  scan_decls(f.lex.tokens, sym.unordered_aliases, c.local);
  rule_no_assert(c);
  rule_no_naked_new(c);
  rule_no_raw_thread(c);
  rule_no_raw_clock(c);
  rule_arena_alloc(c);
  rule_raw_rand(c);
  rule_unordered_iter(c);
  rule_ptr_key(c);
  rule_ptr_sort(c);
  rule_concurrency_owner(c);
  rule_detached_this(c);
  rule_replay_wallclock(c);
}

namespace {

/// Lines covered by `// NLC_LINT_OK(rule[, rule...]): reason` comments.
/// A suppression covers findings on its own line and the following line.
std::map<int, std::set<std::string>> suppressions_of(const LexedFile& lex) {
  std::map<int, std::set<std::string>> out;
  for (const Comment& cm : lex.comments) {
    std::size_t at = cm.text.find("NLC_LINT_OK(");
    if (at == std::string::npos) continue;
    std::size_t open = at + 11;  // index of '('
    std::size_t close = cm.text.find(')', open);
    if (close == std::string::npos) continue;
    std::string rules = cm.text.substr(open + 1, close - open - 1);
    std::size_t pos = 0;
    while (pos <= rules.size()) {
      std::size_t comma = rules.find(',', pos);
      std::string one = rules.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      std::size_t b = one.find_first_not_of(" \t");
      std::size_t e = one.find_last_not_of(" \t");
      if (b != std::string::npos) {
        out[cm.line].insert(one.substr(b, e - b + 1));
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  return out;
}

}  // namespace

AnalysisResult analyze(const std::vector<AnalyzedFile>& files) {
  SymbolTable sym;
  // Two rounds: the second pass resolves declarations whose alias was
  // defined in a file processed later (or later in the same file).
  for (const AnalyzedFile& f : files) collect_symbols(f, sym);
  for (const AnalyzedFile& f : files) collect_symbols(f, sym);

  AnalysisResult res;
  for (const AnalyzedFile& f : files) {
    std::vector<Finding> raw;
    run_rules(f, sym, raw);
    auto sup = suppressions_of(f.lex);
    for (Finding& fd : raw) {
      auto covers = [&](int line) {
        auto it = sup.find(line);
        return it != sup.end() && it->second.count(fd.rule) > 0;
      };
      if (covers(fd.line) || covers(fd.line - 1)) {
        res.suppressed.push_back(std::move(fd));
      } else {
        res.findings.push_back(std::move(fd));
      }
    }
  }
  std::sort(res.findings.begin(), res.findings.end());
  std::sort(res.suppressed.begin(), res.suppressed.end());
  return res;
}

}  // namespace nlc::lint
